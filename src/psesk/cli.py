"""Command-line front end: dataset computation and deterministic file output.

Commands: spectrum, winding, entropy-surface, wigner, solve-potential,
frft-check.  Every run writes its tables (CSV by default, JSON with
--format json) plus a JSON sidecar holding the fully resolved configuration.
Float cells use shortest round-trip formatting; infinite entanglement
energies serialize as "+inf"/"-inf".  Exit codes: 0 ok, 2 config error,
3 numeric failure, 4 gap closed during winding.
"""

from __future__ import annotations

import argparse
import json
import math
import sys
from pathlib import Path

import numpy as np

from . import chiral, entanglement, phasespace, potentials
from .chiral import GapClosed, NotInversionSymmetric
from .hobasis import HOExpansion, TruncationError, ho_stack
from .overlap import GramBoundError
from .states import SlaterState, ho_slater, interpolated_state

NUMERIC_ERRORS = (
    TruncationError,
    GramBoundError,
    entanglement.NonHermitian,
    entanglement.SingularOverlap,
    NotInversionSymmetric,
    chiral.GridTooCoarse,
    chiral.EmptyBlock,
    phasespace.DegenerateAngle,
    phasespace.EdgeLeakage,
    potentials.QuadratureOverflow,
    potentials.NotEnoughBoundStates,
)

DEFAULTS = {
    "out": ".",
    "format": "csv",
    "gnuplot": False,
    "theta_points": 128,
    "basis": None,
    "t_points": 81,
    "levels": 8,
    "grid_points": 161,
    "grid_half_width": 8.0,
    "winding_grid": 256,
    "state": None,
}

# the quadrature oracle confirms the overlap table through index ~1000
MAX_BASIS = 1024

# key: (type, predicate, what the predicate asks for); bools are not ints here
NUMERIC_KEYS = {
    "theta_points": (int, lambda v: v >= 16 and v % 2 == 0, "an even integer >= 16"),
    "basis": (int, lambda v: 1 <= v <= MAX_BASIS, f"an integer in [1, {MAX_BASIS}]"),
    "t_points": (int, lambda v: v >= 1, "an integer >= 1"),
    "levels": (int, lambda v: v >= 1, "an integer >= 1"),
    "grid_points": (int, lambda v: v >= 2, "an integer >= 2"),
    "winding_grid": (int, lambda v: v >= 1, "an integer >= 1"),
    "grid_half_width": (float, lambda v: 0.0 < v < math.inf, "a finite number > 0"),
}

PLOT_CLIP = 30.0


class ConfigError(Exception):
    pass


# ---------------------------------------------------------------- formatting


def fmt_float(v) -> str:
    v = float(v)
    if math.isinf(v):
        return "+inf" if v > 0 else "-inf"
    return repr(v)


def _json_value(v):
    if isinstance(v, float) and math.isinf(v):
        return "+inf" if v > 0 else "-inf"
    return v


def write_table(directory: Path, stem: str, fmt: str, header: list[str], rows) -> str:
    if fmt == "json":
        name = f"{stem}.json"
        payload = [
            {key: _json_value(cell) for key, cell in zip(header, row)} for row in rows
        ]
        (directory / name).write_text(json.dumps(payload, sort_keys=True) + "\n")
        return name
    name = f"{stem}.csv"
    lines = [",".join(header)]
    for row in rows:
        lines.append(",".join(cell if isinstance(cell, str) else fmt_float(cell) for cell in row))
    (directory / name).write_text("\n".join(lines) + "\n")
    return name


def write_sidecar(directory: Path, stem: str, payload: dict) -> str:
    name = f"{stem}.json"
    (directory / name).write_text(json.dumps(payload, sort_keys=True, indent=2) + "\n")
    return name


# ------------------------------------------------------------- configuration


def _parse_floats(text: str, n: int, what: str) -> list[float]:
    parts = [p for p in text.replace(" ", "").split(",") if p]
    if len(parts) != n:
        raise ConfigError(f"{what} expects {n} comma-separated values")
    try:
        return [float(p) for p in parts]
    except ValueError as exc:
        raise ConfigError(f"{what}: {exc}") from exc


def resolve_config(args: argparse.Namespace) -> dict:
    cfg = dict(DEFAULTS)
    if args.config:
        try:
            loaded = json.loads(Path(args.config).read_text())
        except (OSError, json.JSONDecodeError) as exc:
            raise ConfigError(f"cannot read config {args.config}: {exc}") from exc
        if not isinstance(loaded, dict):
            raise ConfigError("config file must hold a JSON object")
        cfg.update(loaded)

    for key in ("out", "format", "theta_points", "basis", "t_points", "levels",
                "grid_points", "grid_half_width", "winding_grid"):
        val = getattr(args, key.replace("-", "_"), None)
        if val is not None:
            cfg[key] = val
    if getattr(args, "gnuplot", False):
        cfg["gnuplot"] = True

    state = cfg.get("state") or {}
    if getattr(args, "ho_slater", None):
        try:
            state = {"ho_slater": [int(p) for p in args.ho_slater.replace(" ", "").split(",") if p]}
        except ValueError as exc:
            raise ConfigError(f"--ho-slater: {exc}") from exc
    if getattr(args, "interpolated", None):
        t, phi = _parse_floats(args.interpolated, 2, "--interpolated")
        state = {"interpolated": {"t": t, "phi": phi}}
    if getattr(args, "potential", None):
        entry = state.get("potential_ground", {}) if "potential_ground" in state else {}
        entry["kind"] = args.potential
        state = {"potential_ground": entry}
    if getattr(args, "potential_expr", None):
        entry = state.get("potential_ground", {"kind": "custom"})
        entry["kind"] = "custom"
        entry["expression"] = args.potential_expr
        state = {"potential_ground": entry}
    if getattr(args, "particles", None) is not None:
        if "potential_ground" not in state:
            raise ConfigError("--particles applies to a potential_ground state")
        state["potential_ground"]["n"] = args.particles
    if getattr(args, "coherent", None):
        parts = args.coherent.replace(" ", "").split(",")
        vals = _parse_floats(args.coherent, len(parts), "--coherent")
        state = {"coherent": vals if len(vals) == 2 else [vals[0], 0.0]}
    cfg["state"] = state or None

    if cfg["format"] not in ("csv", "json"):
        raise ConfigError("format must be 'csv' or 'json'")
    for key, (kind, ok, what) in NUMERIC_KEYS.items():
        val = cfg[key]
        if key == "basis" and val is None:
            continue
        types = (int,) if kind is int else (int, float)
        if isinstance(val, bool) or not isinstance(val, types) or not ok(val):
            raise ConfigError(f"{key} must be {what}, got {val!r}")
    return cfg


def _particle_count(entry: dict, default: int) -> int:
    n = int(entry.get("n", default))
    if n < 1:
        raise ConfigError("particle number must be at least 1")
    return n


def build_state(cfg: dict) -> tuple[SlaterState, dict]:
    """Resolve the state spec into a SlaterState plus descriptive metadata."""
    spec = cfg.get("state")
    if not spec:
        raise ConfigError("no state specified (state key or a state flag)")
    basis = cfg.get("basis")
    try:
        if "ho_slater" in spec:
            indices = list(spec["ho_slater"])
            if basis is None and indices and max(indices) >= MAX_BASIS:
                raise ConfigError(f"ho_slater index {max(indices)} needs a basis above {MAX_BASIS}")
            state = ho_slater(indices, basis_size=basis)
            return state, {"kind": "ho_slater", "indices": indices}
        if "interpolated" in spec:
            t = float(spec["interpolated"]["t"])
            phi = float(spec["interpolated"]["phi"])
            state = interpolated_state(t, phi, basis_size=basis or 3)
            return state, {"kind": "interpolated", "t": t, "phi": phi}
        if "potential_ground" in spec:
            entry = spec["potential_ground"]
            n = _particle_count(entry, 1)
            pot = potentials.potential(entry["kind"], entry.get("expression"))
            bset = potentials.bound_states(pot, n, basis_size=basis or 100)
            return bset.as_slater(), {
                "kind": "potential_ground",
                "potential": entry["kind"],
                "n": n,
                "energies": [float(e) for e in bset.energies],
            }
    except (ValueError, KeyError) as exc:
        raise ConfigError(f"bad state spec: {exc}") from exc
    raise ConfigError(f"unrecognized state spec {sorted(spec)}")


def _chiral_metadata(state: SlaterState, winding_grid: int) -> dict:
    meta: dict = {"n_even": None, "n_odd": None, "flat_bands": None,
                  "nu_e": None, "inversion_symmetric": False}
    try:
        ps = chiral.parity_sort(state)
    except NotInversionSymmetric:
        return meta
    meta.update(
        inversion_symmetric=True,
        n_even=ps.n_even,
        n_odd=ps.n_odd,
        flat_bands=chiral.flat_band_count(ps),
    )
    if ps.n_even == ps.n_odd and ps.n_even > 0:
        try:
            meta["nu_e"] = chiral.winding_number(ps, grid_size=winding_grid)
        except (GapClosed, chiral.GridTooCoarse):
            meta["nu_e"] = None
    return meta


# ------------------------------------------------------------------ commands


def cmd_spectrum(cfg: dict) -> int:
    state, state_meta = build_state(cfg)
    out = Path(cfg["out"])
    out.mkdir(parents=True, exist_ok=True)
    thetas = np.linspace(0.0, 2.0 * math.pi, cfg["theta_points"], endpoint=False)
    data = entanglement.pses_sweep(state, thetas)

    rows = []
    for i, theta in enumerate(data.thetas):
        for level, eps in enumerate(data.energies[i]):
            rows.append((theta, str(level), eps))
    spectrum_file = write_table(out, "spectrum", cfg["format"], ["theta", "level", "epsilon"], rows)
    entropy_file = write_table(
        out, "entropy", cfg["format"], ["theta", "entropy"],
        list(zip(data.thetas, data.entropy)),
    )

    files = [spectrum_file, entropy_file]
    if cfg["gnuplot"]:
        lines = []
        for i, theta in enumerate(data.thetas):
            clipped = np.clip(data.energies[i], -PLOT_CLIP, PLOT_CLIP)
            lines.append(" ".join([fmt_float(theta)] + [fmt_float(e) for e in clipped]))
        (out / "spectrum_matrix.dat").write_text("\n".join(lines) + "\n")
        files.append("spectrum_matrix.dat")

    meta = _chiral_metadata(state, cfg["winding_grid"])
    sidecar = {
        "command": "spectrum",
        "config": _config_payload(cfg),
        "state": state_meta,
        "n_particles": state.n_particles,
        "basis_size": state.basis_size,
        "gap_min": _json_value(float(np.min(data.gap))),
        "entropy_file": entropy_file,
        "files": files,
        **meta,
    }
    write_sidecar(out, "spectrum_meta", sidecar)
    return 0


def cmd_winding(cfg: dict) -> int:
    state, state_meta = build_state(cfg)
    out = Path(cfg["out"])
    out.mkdir(parents=True, exist_ok=True)
    ps = chiral.parity_sort(state)
    payload = {
        "command": "winding",
        "config": _config_payload(cfg),
        "state": state_meta,
        "n_even": ps.n_even,
        "n_odd": ps.n_odd,
    }
    if ps.n_even != ps.n_odd:
        payload.update(nu_E=None, flat_bands=chiral.flat_band_count(ps), closings=[])
        write_sidecar(out, "winding", payload)
        print(f"flat bands: {chiral.flat_band_count(ps)} (n_even={ps.n_even}, n_odd={ps.n_odd})")
        return 0
    try:
        nu, k_used, min_det = chiral.winding_scan(ps, grid_size=cfg["winding_grid"])
    except GapClosed:
        closings = chiral.detect_gap_closings(ps)
        payload.update(nu_E=None, K_used=None, min_abs_det=0.0,
                       closings=[float(c) for c in closings])
        write_sidecar(out, "winding", payload)
        print("gap closed; winding undefined", file=sys.stderr)
        return 4
    payload.update(nu_E=nu, K_used=k_used, min_abs_det=min_det, closings=[])
    write_sidecar(out, "winding", payload)
    print(f"nu_E = {nu}")
    return 0


def cmd_entropy_surface(cfg: dict) -> int:
    spec = cfg.get("state") or {}
    if "interpolated" not in spec:
        raise ConfigError("entropy-surface requires an interpolated state spec")
    phi = float(spec["interpolated"]["phi"])
    out = Path(cfg["out"])
    out.mkdir(parents=True, exist_ok=True)
    t_grid = np.linspace(0.0, 1.0, int(cfg["t_points"]))
    thetas = np.linspace(0.0, 2.0 * math.pi, cfg["theta_points"], endpoint=False)
    rows = []
    best = (-1.0, 0.0, 0.0)
    for t in t_grid:
        data = entanglement.pses_sweep(interpolated_state(float(t), phi), thetas)
        for theta, s in zip(thetas, data.entropy):
            rows.append((t, theta, s))
        i = int(np.argmax(data.entropy))
        if data.entropy[i] > best[0]:
            best = (float(data.entropy[i]), float(t), float(thetas[i]))
    table = write_table(out, "entropy_surface", cfg["format"], ["t", "theta", "entropy"], rows)
    sidecar = {
        "command": "entropy-surface",
        "config": _config_payload(cfg),
        "phi": phi,
        "max_entropy": best[0],
        "argmax": {"t": best[1], "theta": best[2]},
        "files": [table],
    }
    write_sidecar(out, "entropy_surface_meta", sidecar)
    print(f"max entropy {best[0]:.6f} at t={best[1]:.4f}, theta={best[2]:.4f}")
    return 0


def _wigner_operator(cfg: dict):
    spec = cfg.get("state") or {}
    if "coherent" in spec:
        w = complex(spec["coherent"][0], spec["coherent"][1] if len(spec["coherent"]) > 1 else 0.0)
        return ("coherent", w), {"kind": "coherent", "w": [w.real, w.imag]}
    state, meta = build_state(cfg)
    rho = state.coeffs.T @ state.coeffs.conj()
    return ("matrix", rho), meta


def cmd_wigner(cfg: dict) -> int:
    (mode, op), state_meta = _wigner_operator(cfg)
    out = Path(cfg["out"])
    out.mkdir(parents=True, exist_ok=True)
    half = float(cfg["grid_half_width"])
    pts = int(cfg["grid_points"])
    axis = np.linspace(-half, half, pts)
    if mode == "coherent":
        field = phasespace.coherent_wigner(op, axis, axis)
    else:
        field = phasespace.wigner_of_state(op, axis, axis)
    rows = []
    for i, xv in enumerate(field.x):
        for j, pv in enumerate(field.p):
            val = field.values[i, j]
            rows.append((xv, pv, float(val.real), float(val.imag)))
    table = write_table(out, "wigner", cfg["format"], ["x", "p", "w_re", "w_im"], rows)
    files = [table]
    if cfg["gnuplot"]:
        lines = [" ".join([str(len(field.x))] + [fmt_float(v) for v in field.x])]
        for j, pv in enumerate(field.p):
            lines.append(" ".join([fmt_float(pv)] + [fmt_float(field.values[i, j].real)
                                                     for i in range(len(field.x))]))
        (out / "wigner_matrix.dat").write_text("\n".join(lines) + "\n")
        files.append("wigner_matrix.dat")
    sidecar = {
        "command": "wigner",
        "config": _config_payload(cfg),
        "state": state_meta,
        "is_diagonal": field.is_diagonal,
        "files": files,
    }
    write_sidecar(out, "wigner_meta", sidecar)
    return 0


def cmd_solve_potential(cfg: dict) -> int:
    spec = cfg.get("state") or {}
    entry = spec.get("potential_ground")
    if not entry:
        raise ConfigError("solve-potential requires a potential spec")
    try:
        pot = potentials.potential(entry["kind"], entry.get("expression"))
        levels = _particle_count(entry, cfg["levels"])
    except (ValueError, KeyError) as exc:
        raise ConfigError(f"bad potential spec: {exc}") from exc
    basis = cfg.get("basis") or 100
    bset = potentials.bound_states(pot, levels, basis_size=basis)
    parities = potentials.parity_check(bset)
    out = Path(cfg["out"])
    out.mkdir(parents=True, exist_ok=True)
    rows = [
        (str(i), e, "asym" if par is None else f"{par:+d}")
        for i, (e, par) in enumerate(zip(bset.energies, parities))
    ]
    table = write_table(out, "bound_states", cfg["format"], ["n", "energy", "parity"], rows)
    coeff_header = ["n"]
    for m in range(bset.basis_size):
        coeff_header += [f"re_{m}", f"im_{m}"]
    coeff_rows = []
    for i, row in enumerate(bset.states):
        cells = [str(i)]
        for v in row:
            cells += [float(np.real(v)), float(np.imag(v))]
        coeff_rows.append(tuple(cells))
    coeff_table = write_table(out, "coefficients", cfg["format"], coeff_header, coeff_rows)
    sidecar = {
        "command": "solve-potential",
        "config": _config_payload(cfg),
        "potential": entry["kind"],
        "levels": levels,
        "basis_size": bset.basis_size,
        "quadrature_order": bset.quadrature_order,
        "energies": [float(e) for e in bset.energies],
        "files": [table, coeff_table],
    }
    write_sidecar(out, "solve_potential_meta", sidecar)
    return 0


def cmd_frft_check(cfg: dict) -> int:
    rng = np.random.default_rng(20240601)
    checks: list[tuple[str, float, float]] = []

    coeffs = rng.normal(size=11) + 1j * rng.normal(size=11)
    coeffs /= np.linalg.norm(coeffs)
    expn = HOExpansion(coeffs=coeffs)

    worst = 0.0
    for _ in range(8):
        theta = rng.uniform(0.0, 2.0 * math.pi)
        rotated = phasespace.frft_ho(expn, theta)
        worst = max(worst, abs(math.sqrt(rotated.norm_sq) - math.sqrt(expn.norm_sq)))
    checks.append(("ho-path unitarity", worst, 1e-12))

    worst = 0.0
    for _ in range(8):
        t1, t2 = rng.uniform(0.0, math.pi, size=2)
        once = phasespace.frft_ho(phasespace.frft_ho(expn, t1), t2)
        direct = phasespace.frft_ho(expn, t1 + t2)
        worst = max(worst, float(np.max(np.abs(once.coeffs - direct.coeffs))))
    checks.append(("ho-path group law", worst, 1e-12))

    worst = 0.0
    for _ in range(6):
        t1 = rng.uniform(0.35, math.pi / 2.0)
        t2 = rng.uniform(0.35, math.pi / 2.0)
        x, y = rng.uniform(-2.0, 2.0, size=2)
        lhs = phasespace.compose_kernels_quadrature(t1, t2, x, y)
        rhs = phasespace.frft_kernel(t1 + t2, x, y)
        worst = max(worst, abs(lhs - rhs))
    checks.append(("kernel composition", worst, 1e-6))

    grid = np.linspace(-10.0, 10.0, 801)
    stack = ho_stack(10, grid)
    worst = 0.0
    for _ in range(6):
        theta = rng.uniform(0.3, math.pi - 0.3)
        samples = coeffs @ stack
        direct = phasespace.frft_direct(samples, grid, theta)
        via_ho = phasespace.frft_ho(expn, theta).coeffs @ stack
        worst = max(worst, float(np.max(np.abs(direct - via_ho))))
    checks.append(("direct vs ho-path", worst, 1e-5))

    a = 1.3
    packet = np.exp(-((grid - a) ** 2) / 2.0).astype(complex)
    transformed = phasespace.frft_direct(packet, grid, math.pi / 2.0)
    analytic = np.exp(1j * a * grid - grid**2 / 2.0)
    checks.append(
        ("pi/2 Gaussian transform", float(np.max(np.abs(transformed - analytic))), 1e-6)
    )

    ok = True
    for name, err, tol in checks:
        passed = err <= tol
        ok = ok and passed
        print(f"{name:26s} {err:10.3e}  (tol {tol:.0e})  {'PASS' if passed else 'FAIL'}")
    return 0 if ok else 3


def _config_payload(cfg: dict) -> dict:
    payload = {k: cfg[k] for k in sorted(DEFAULTS) if k != "state"}
    payload["state"] = cfg.get("state")
    return payload


# ---------------------------------------------------------------- dispatcher


def _add_common(parser: argparse.ArgumentParser, state_flags: bool = True) -> None:
    parser.add_argument("--config", help="JSON config file; flags override its keys")
    parser.add_argument("--out", help="output directory")
    parser.add_argument("--theta-points", type=int, dest="theta_points")
    parser.add_argument("--basis", type=int)
    parser.add_argument("--format", choices=("csv", "json"))
    parser.add_argument("--gnuplot", action="store_true")
    if state_flags:
        parser.add_argument("--ho-slater", dest="ho_slater",
                            help="occupied oscillator levels, e.g. 0,1,2")
        parser.add_argument("--interpolated", help="t,phi for the two-fermion interpolation")
        parser.add_argument("--potential", choices=potentials.BUILTIN_KINDS + ("custom",))
        parser.add_argument("--potential-expr", dest="potential_expr",
                            help="custom potential expression, e.g. 'x^2/2'")
        parser.add_argument("--particles", type=int)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="psesk",
        description="Phase-space entanglement spectra of 1D free-fermion states",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("spectrum", help="entanglement spectrum over cut angles")
    _add_common(p)
    p.add_argument("--winding-grid", type=int, dest="winding_grid")

    p = sub.add_parser("winding", help="chiral winding invariant")
    _add_common(p)
    p.add_argument("--winding-grid", type=int, dest="winding_grid")

    p = sub.add_parser("entropy-surface", help="entropy over (t, theta)")
    _add_common(p)
    p.add_argument("--t-points", type=int, dest="t_points")

    p = sub.add_parser("wigner", help="Wigner field of a state or 1-RDM")
    _add_common(p)
    p.add_argument("--coherent", help="coherent-state center, re[,im]")
    p.add_argument("--grid-points", type=int, dest="grid_points")
    p.add_argument("--grid-half-width", type=float, dest="grid_half_width")

    p = sub.add_parser("solve-potential", help="bound states of a 1D well")
    _add_common(p)
    p.add_argument("--levels", type=int)

    p = sub.add_parser("frft-check", help="rotation-kernel oracle suite")
    _add_common(p, state_flags=False)
    return parser


COMMANDS = {
    "spectrum": cmd_spectrum,
    "winding": cmd_winding,
    "entropy-surface": cmd_entropy_surface,
    "wigner": cmd_wigner,
    "solve-potential": cmd_solve_potential,
    "frft-check": cmd_frft_check,
}


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        cfg = resolve_config(args)
        return COMMANDS[args.command](cfg)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except GapClosed as exc:
        print(f"GapClosed: {exc}", file=sys.stderr)
        return 4
    except NUMERIC_ERRORS as exc:
        print(f"{type(exc).__name__}: {exc}", file=sys.stderr)
        return 3


def entry_point() -> None:
    sys.exit(main())


if __name__ == "__main__":
    entry_point()
