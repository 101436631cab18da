"""Command-line front end: dataset computation and deterministic file output.

Commands: spectrum, winding, entropy-surface, wigner, solve-potential,
frft-check.  Every run writes its tables (CSV by default, JSON with
--format json) plus a JSON sidecar holding the config keys it read.
Tables are written in blocks of rows, one theta, t, x or level at a time,
each axis formatted once.  Float cells use shortest round-trip formatting;
infinite entanglement energies serialize as "+inf"/"-inf".  Exit codes:
0 ok, 2 config error, 3 a numeric refusal (any ``NumericError``, labelled
with its class name) or a result too large to allocate, 4 gap closed
during winding; a failure prints one line to stderr.
"""

from __future__ import annotations

import argparse
import itertools
import json
import math
import sys
from pathlib import Path
from typing import Callable, Iterable, Iterator, NamedTuple

import numpy as np

from . import chiral, entanglement, phasespace, potentials
from .chiral import GapClosed, NotInversionSymmetric
from .hobasis import DEFAULT_BASIS_SIZE, ho_stack
from .states import NumericError, SlaterState, ho_slater, interpolated_state

# the overlap table, ho_stack (so the quadrature oracle, translated cuts and
# Wigner fields) and the Galerkin solve are all exact up to this basis
MAX_BASIS = 1024
# keeps every array dimension, and the product of two, inside numpy's index
# range: a larger size request fails with MemoryError (exit 3), never ValueError
MAX_POINTS = 2**24
# solve-potential's level count when neither levels nor the state's n sets it
DEFAULT_LEVELS = 8


def _finite(v) -> bool:
    # bools are not numbers here; a huge int would overflow float()
    return type(v) in (int, float) and abs(v) <= sys.float_info.max


def _size(lo: int, even: bool = False):
    return lambda v: type(v) is int and lo <= v <= MAX_POINTS and not (even and v % 2)


POTENTIAL_KINDS = potentials.BUILTIN_KINDS + ("custom",)

# state kind: (check of its value, what the check asks for); JSON gives exact types
STATE_KINDS = {
    "ho_slater": (lambda v: type(v) is list and all(type(i) is int for i in v),
                  "a list of integers"),
    "interpolated": (lambda v: type(v) is dict and v.keys() == {"t", "phi"}
                     and all(map(_finite, v.values())),
                     "an object with finite numbers t and phi"),
    "potential_ground": (lambda v: type(v) is dict and v.keys() <= {"kind", "expression", "n"}
                         and v.get("kind") in POTENTIAL_KINDS
                         and ("expression" in v) == (v["kind"] == "custom")
                         and type(v.get("expression", "")) is str
                         and _size(1)(v.get("n", 1)),
                         f"an object with a kind in {POTENTIAL_KINDS}, a string expression "
                         f"exactly when the kind is 'custom' and an integer n in [1, {MAX_POINTS}]"),
    "coherent": (lambda v: type(v) is list and len(v) in (1, 2) and all(map(_finite, v)),
                 "a list of one or two finite numbers"),
}


class Key(NamedTuple):
    default: object
    ok: Callable[[object], bool]
    what: str  # what ``ok`` asks for
    commands: tuple[str, ...]  # the commands that read the key and take it as a flag
    flag: dict  # argparse options of that flag


# the one table of config keys: JSON config values and flag values alike
INT = {"type": int}
KEYS = {
    "out": Key(".", lambda v: type(v) is str and "\0" not in v, "a directory path",
               ("spectrum", "winding", "entropy-surface", "wigner", "solve-potential"),
               {"help": "output directory"}),
    "theta_points": Key(128, _size(16, even=True), f"an even integer in [16, {MAX_POINTS}]",
                        ("spectrum", "entropy-surface"), INT),
    "basis": Key(None, lambda v: v is None or type(v) is int and 1 <= v <= MAX_BASIS,
                 f"an integer in [1, {MAX_BASIS}]",
                 ("spectrum", "winding", "wigner", "solve-potential"), INT),
    "format": Key("csv", lambda v: v in ("csv", "json"), "'csv' or 'json'",
                  ("spectrum", "entropy-surface", "wigner", "solve-potential"),
                  {"choices": ("csv", "json")}),
    "gnuplot": Key(False, lambda v: type(v) is bool, "true or false", ("spectrum", "wigner"),
                   {"action": "store_true"}),
    "state": Key(None, lambda v: v is None or type(v) is dict and len(v) == 1
                 and v.keys() <= STATE_KINDS.keys(),
                 f"null or an object naming one of {', '.join(STATE_KINDS)}", (), {}),
    "t_points": Key(81, _size(1), f"an integer in [1, {MAX_POINTS}]", ("entropy-surface",), INT),
    "grid_points": Key(161, _size(2), f"an integer in [2, {MAX_POINTS}]", ("wigner",), INT),
    # every grid step 2 w / (n - 1) stays a normal double, and 2 w and the
    # grid's products with it stay finite, at any grid_points
    "grid_half_width": Key(
        8.0, lambda v: _finite(v) and MAX_POINTS * sys.float_info.min <= v <= sys.float_info.max / 4,
        f"a number in [{MAX_POINTS * sys.float_info.min!r}, {sys.float_info.max / 4!r}]",
        ("wigner",), {"type": float}),
    "levels": Key(None, lambda v: v is None or _size(1)(v), f"an integer in [1, {MAX_POINTS}]",
                  ("solve-potential",), INT),
}


def _numbers(kind: type, count: int | None = None):
    """argparse type: comma-separated numbers of one kind."""
    def parse(text: str) -> list:
        try:
            values = [kind(p) for p in text.replace(" ", "").split(",")]
        except ValueError:
            values = []
        if not values or count not in (None, len(values)):
            raise argparse.ArgumentTypeError(
                f"expected {count or 'comma-separated'} {kind.__name__} values, got {text!r}")
        return values
    return parse


# state flag: (the state kind it sets, its part of that kind's value, the
# commands that take it and so its kind, argparse options); a dict part is
# merged into the same kind's object from the config, anything else replaces
# the state.  --potential merges after --potential-expr, so the two with a
# kind other than custom leave an expression that STATE_KINDS rejects
STATE_FLAGS = {
    "ho_slater": ("ho_slater", lambda v: v, ("spectrum", "winding", "wigner"),
                  {"type": _numbers(int), "help": "occupied oscillator levels, e.g. 0,1,2"}),
    "interpolated": ("interpolated", lambda v: dict(zip(("t", "phi"), v)),
                     ("spectrum", "winding", "entropy-surface", "wigner"),
                     {"type": _numbers(float, 2),
                      "help": "t,phi for the two-fermion interpolation"}),
    "potential_expr": ("potential_ground", lambda v: {"kind": "custom", "expression": v},
                       ("spectrum", "winding", "wigner", "solve-potential"),
                       {"help": "custom potential expression, e.g. 'x^2/2'"}),
    "potential": ("potential_ground", lambda v: {"kind": v},
                  ("spectrum", "winding", "wigner", "solve-potential"),
                  {"choices": POTENTIAL_KINDS}),
    "particles": ("potential_ground", lambda v: {"n": v},
                  ("spectrum", "winding", "wigner", "solve-potential"), INT),
    "coherent": ("coherent", lambda v: v if len(v) > 1 else [*v, 0.0], ("wigner",),
                 {"type": _numbers(float), "help": "coherent-state center, re[,im]"}),
}

PLOT_CLIP = 30.0


class ConfigError(Exception):
    pass


# ---------------------------------------------------------------- formatting


# the text of a float cell where it is not ``repr``'s: infinite energies are
# "+inf"/"-inf", which JSON quotes, and JSON spells nan as NaN
SPECIAL = {"csv": {"inf": "+inf"}, "json": {"inf": '"+inf"', "-inf": '"-inf"', "nan": "NaN"}}
# values formatted at once along a long axis
SPAN = 4096


def _json_value(v):
    if isinstance(v, float) and math.isinf(v):
        return "+inf" if v > 0 else "-inf"
    return v


def cell_texts(fmt: str) -> Callable[[object], list[str]]:
    """The cell formatter of a table format: it maps a list of strings, or a
    1-D float array by one ``tolist``, to the cells' texts."""
    special = SPECIAL[fmt]
    quote = json.dumps if fmt == "json" else str

    def cells(values) -> list[str]:
        if isinstance(values, list):
            return [quote(v) for v in values]
        values = np.asarray(values, dtype=float)
        texts = list(map(repr, values.tolist()))
        if not np.isfinite(values).all():
            texts = [special.get(t, t) for t in texts]
        return texts
    return cells


def _streamed(cells, values) -> Iterator[str]:
    """``cells(values)`` made SPAN values at a time."""
    return itertools.chain.from_iterable(
        cells(values[s:s + SPAN]) for s in range(0, len(values), SPAN))


def _spans(cells, *columns) -> Iterator[Iterator[tuple[str, ...]]]:
    """Blocks of SPAN rows of the table whose columns are ``columns``."""
    for s in range(0, len(columns[0]), SPAN):
        yield zip(*(cells(c[s:s + SPAN]) for c in columns))


def _grid_rows(cells, outer, inner, *planes) -> Iterator[Iterator[tuple[str, ...]]]:
    """Blocks of the table over the grid ``outer`` x ``inner``, one per outer
    value: its text beside each inner text and one row of each plane.  The
    inner axis is formatted once, the outer one SPAN values at a time; a
    plane yields one row of cell texts per outer value."""
    inner = cells(inner)
    for x, *rows in zip(_streamed(cells, outer), *planes):
        yield zip(itertools.repeat(x), inner, *rows)


class Blocks:
    """A table's rows in blocks of text rows, made as they are written;
    ``len`` is the row count, known before any block is made."""

    def __init__(self, count: int, blocks: Iterable[Iterable[tuple[str, ...]]]):
        self.count, self.blocks = count, blocks

    def __len__(self) -> int:
        return self.count

    def __iter__(self):
        return iter(self.blocks)


def _write_blocks(f, line: Callable[..., str], blocks: Iterable, sep: str = "") -> None:
    """Write each block's rows as ``line(*row)``, ``sep`` between rows."""
    lead = ""
    for block in blocks:
        text = sep.join(itertools.starmap(line, block))
        if text:
            f.write(lead + text)
            lead = sep


def _spaced(*row: str) -> str:
    return " ".join(row) + "\n"


def write_table(directory: Path, stem: str, fmt: str, header: list[str], rows: Blocks) -> str:
    """Stream ``rows``, cells made by ``cell_texts(fmt)``, to ``<stem>.csv``
    or ``<stem>.json`` one block at a time."""
    name = f"{stem}.{fmt}"
    fields = [f"{{{k}}}" for k in range(len(header))]
    with (directory / name).open("w") as f:
        if fmt == "json":  # one object per row, keys sorted
            keys = sorted(range(len(header)), key=header.__getitem__)
            item = ", ".join(f"{json.dumps(header[k])}: {fields[k]}" for k in keys)
            f.write("[")
            _write_blocks(f, ("{{" + item + "}}").format, rows, ", ")
            f.write("]\n")
        else:
            f.write(",".join(header) + "\n")
            _write_blocks(f, (",".join(fields) + "\n").format, rows)
    return name


def write_sidecar(directory: Path, stem: str, payload: dict) -> str:
    name = f"{stem}.json"
    (directory / name).write_text(json.dumps(payload, sort_keys=True, indent=2) + "\n")
    return name


def write_outputs(cfg: dict, command: str, sidecar_stem: str, report: dict,
                  tables=(), matrix=None) -> None:
    """Write a command's tables, its gnuplot matrix if asked for, and the
    sidecar holding the command, the resolved config and ``report``.

    ``tables`` holds (stem, header, Blocks) triples; ``matrix`` the blocks
    of rows of ``<command>_matrix.dat``, cells as in the CSV tables.
    """
    out = Path(cfg["out"])
    try:
        out.mkdir(parents=True, exist_ok=True)
        files = [write_table(out, stem, cfg["format"], header, rows)
                 for stem, header, rows in tables]
        if matrix is not None and cfg["gnuplot"]:
            files.append(f"{command}_matrix.dat")
            with (out / files[-1]).open("w") as f:
                _write_blocks(f, _spaced, matrix)
        sidecar = {"command": command, "config": cfg, **report}
        if files:
            sidecar["files"] = files
        write_sidecar(out, sidecar_stem, sidecar)
    except OSError as exc:
        raise ConfigError(f"cannot write to {str(out)!r}: {exc.strerror or exc}") from exc


# ------------------------------------------------------------- configuration


def _merge_state(state, flags: dict):
    """The state after the state flags in ``flags`` (see STATE_FLAGS)."""
    base = state if type(state) is dict else {}
    given: dict = {}
    for flag, (kind, part, *_) in STATE_FLAGS.items():
        if flag in flags:
            value = part(flags[flag])
            old = given.get(kind, base.get(kind))
            given[kind] = {**old, **value} if type(old) is type(value) is dict else value
    return given or state


def resolve_config(args: argparse.Namespace) -> dict:
    """Defaults, then the --config file, then the flags, each value checked
    against KEYS and STATE_KINDS; returns the keys and state the command reads."""
    flags = vars(args)
    kinds = {kind for kind, _, commands, _ in STATE_FLAGS.values() if args.command in commands}
    cfg = {key: spec.default for key, spec in KEYS.items()}
    if flags.get("config"):
        try:
            loaded = json.loads(Path(flags["config"]).read_text())
        except (OSError, ValueError, RecursionError) as exc:
            raise ConfigError(f"cannot read config {flags['config']}: {exc}") from exc
        if type(loaded) is not dict:
            raise ConfigError("config file must hold a JSON object")
        unknown = sorted(set(loaded) - set(KEYS))
        if unknown:
            raise ConfigError(f"unknown config key(s) {', '.join(map(repr, unknown))}")
        cfg.update(loaded)
    cfg.update((key, value) for key, value in flags.items() if key in KEYS)
    cfg["state"] = _merge_state(cfg["state"], flags)

    for key, spec in KEYS.items():
        if not spec.ok(cfg[key]):
            raise ConfigError(f"{key} must be {spec.what}, got {cfg[key]!r}")
    for kind, value in (cfg["state"] or {}).items():
        ok, what = STATE_KINDS[kind]
        if not ok(value):
            raise ConfigError(f"state {kind} must be {what}, got {value!r}")
    given = next(iter(cfg["state"] or {}), "no state (state key or a state flag)")
    if kinds and given not in kinds:
        raise ConfigError(f"{args.command} takes a {' or '.join(sorted(kinds))} state, got {given}")
    cfg = {key: cfg[key] for key, spec in KEYS.items()
           if args.command in spec.commands or key == "state" and kinds}
    # two values that set one quantity, or a value the state has no use for
    state = cfg.get("state") or {}
    n = state.get("potential_ground", {}).get("n")
    if None not in (n, cfg.get("levels")) and n != cfg["levels"]:
        raise ConfigError(f"levels {cfg['levels']} and the state's n {n} both set the level count")
    if "coherent" in state and cfg.get("basis") is not None:
        raise ConfigError("a coherent state takes no basis")
    return cfg


def _solve_well(spec: dict, count: int, basis: int | None) -> potentials.BoundStateSet:
    """The ``count`` lowest bound states of the well that a potential_ground
    ``spec`` names, at ``basis`` or DEFAULT_BASIS_SIZE basis functions;
    a bad spec raises ValueError."""
    pot = potentials.potential(spec["kind"], spec.get("expression"))
    return potentials.bound_states(pot, count, basis_size=basis or DEFAULT_BASIS_SIZE)


def build_state(cfg: dict) -> tuple[SlaterState, dict]:
    """Resolve the state spec into a SlaterState plus descriptive metadata."""
    ((kind, spec),) = cfg["state"].items()
    basis = cfg["basis"]
    try:
        if kind == "ho_slater":
            if basis is None and spec and max(spec) >= MAX_BASIS:
                raise ConfigError(f"ho_slater index {max(spec)} needs a basis above {MAX_BASIS}")
            return ho_slater(spec, basis_size=basis), {"kind": kind, "indices": spec}
        if kind == "interpolated":
            t, phi = float(spec["t"]), float(spec["phi"])
            state = interpolated_state(t, phi, basis_size=basis or 3)
            return state, {"kind": kind, "t": t, "phi": phi}
        n = spec.get("n", 1)  # potential_ground
        bset = _solve_well(spec, n, basis)
        return bset.as_slater(), {"kind": kind, "potential": spec["kind"], "n": n,
                                  "energies": [float(e) for e in bset.energies]}
    except ValueError as exc:
        raise ConfigError(f"bad state spec: {exc}") from exc


def _chiral_metadata(state: SlaterState) -> dict:
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
            meta["nu_e"] = chiral.winding_number(ps)
        except (GapClosed, chiral.GridTooCoarse):
            meta["nu_e"] = None
    return meta


# ------------------------------------------------------------------ commands


def cmd_spectrum(cfg: dict) -> int:
    """entanglement spectrum over cut angles"""
    state, state_meta = build_state(cfg)
    thetas = np.linspace(0.0, 2.0 * math.pi, cfg["theta_points"], endpoint=False)
    data = entanglement.pses_sweep(state, thetas)
    cells, csv = cell_texts(cfg["format"]), cell_texts("csv")
    levels = [str(k) for k in range(data.energies.shape[1])]

    def matrix():
        for theta, row in zip(_streamed(csv, data.thetas), data.energies):
            yield [(theta, *csv(np.clip(row, -PLOT_CLIP, PLOT_CLIP)))]

    report = {
        "state": state_meta,
        "n_particles": state.n_particles,
        "basis_size": state.basis_size,
        "gap_min": _json_value(float(np.min(data.gap))),
        "entropy_file": f"entropy.{cfg['format']}",
        **_chiral_metadata(state),
    }
    write_outputs(cfg, "spectrum", "spectrum_meta", report, tables=[
        ("spectrum", ["theta", "level", "epsilon"], Blocks(data.energies.size, _grid_rows(
            cells, data.thetas, levels, map(cells, data.energies)))),
        ("entropy", ["theta", "entropy"],
         Blocks(len(data.thetas), _spans(cells, data.thetas, data.entropy))),
    ], matrix=matrix())
    return 0


def cmd_winding(cfg: dict) -> int:
    """chiral winding invariant"""
    state, state_meta = build_state(cfg)
    ps = chiral.parity_sort(state)
    report = {"state": state_meta, "n_even": ps.n_even, "n_odd": ps.n_odd,
              "nu_E": None, "closings": []}
    if ps.n_even != ps.n_odd:
        report["flat_bands"] = flat = chiral.flat_band_count(ps)
        line, code = f"flat bands: {flat} (n_even={ps.n_even}, n_odd={ps.n_odd})", 0
    else:
        try:
            report["nu_E"], report["K_used"], report["min_abs_det"] = chiral.winding_scan(ps)
            line, code = f"nu_E = {report['nu_E']}", 0
        except GapClosed as exc:
            report.update(K_used=None, min_abs_det=exc.min_abs_det, closings=exc.closings)
            line, code = "gap closed; winding undefined", 4
    write_outputs(cfg, "winding", "winding", report)
    print(line, file=sys.stderr if code else sys.stdout)
    return code


def cmd_entropy_surface(cfg: dict) -> int:
    """entropy over (t, theta)"""
    phi = float(cfg["state"]["interpolated"]["phi"])
    t_grid = np.linspace(0.0, 1.0, cfg["t_points"])
    thetas = np.linspace(0.0, 2.0 * math.pi, cfg["theta_points"], endpoint=False)
    entropy = np.array([entanglement.pses_sweep(interpolated_state(float(t), phi), thetas).entropy
                        for t in t_grid])
    cells = cell_texts(cfg["format"])
    half = entropy[:, : len(thetas) // 2]  # the sweep gives S(theta + pi) = S(theta)
    i, j = np.unravel_index(np.argmax(half), half.shape)
    best = (float(half[i, j]), float(t_grid[i]), float(thetas[j]))
    report = {"phi": phi, "max_entropy": best[0], "argmax": {"t": best[1], "theta": best[2]}}
    write_outputs(cfg, "entropy-surface", "entropy_surface_meta", report,
                  tables=[("entropy_surface", ["t", "theta", "entropy"],
                           Blocks(entropy.size,
                                  _grid_rows(cells, t_grid, thetas, map(cells, entropy))))])
    print(f"max entropy {best[0]:.6f} at t={best[1]:.4f}, theta={best[2]:.4f}")
    return 0


def _wigner_field(cfg: dict, axis: np.ndarray) -> tuple[phasespace.WignerField, dict]:
    """The configured state's Wigner field (a Slater state's is its 1-RDM's)
    on the square grid ``axis`` x ``axis``, and the state metadata."""
    if "coherent" in cfg["state"]:
        w = complex(*cfg["state"]["coherent"])
        meta = {"kind": "coherent", "w": [w.real, w.imag]}
        return phasespace.coherent_wigner(w, axis, axis), meta
    state, meta = build_state(cfg)
    rho = state.coeffs.T @ state.coeffs.conj()
    return phasespace.wigner_of_state(rho, axis, axis), meta


def cmd_wigner(cfg: dict) -> int:
    """Wigner field of a state or 1-RDM"""
    half = float(cfg["grid_half_width"])
    field, state_meta = _wigner_field(cfg, np.linspace(-half, half, cfg["grid_points"]))
    cells, csv = cell_texts(cfg["format"]), cell_texts("csv")
    re, im = field.values.real, field.values.imag
    # w_re is formatted once when the matrix shows it too
    held = [cells(row) for row in re] if cfg["gnuplot"] else None
    # a w_im column of +0.0 entries is one constant text (-0.0 keeps its own)
    zero = not np.any(im) and not np.any(np.signbit(im))
    rows = _grid_rows(cells, field.x, field.p, held or map(cells, re),
                      itertools.repeat(itertools.repeat("0.0")) if zero else map(cells, im))

    def matrix():  # JSON's cells are CSV's where finite
        texts = held if cfg["format"] == "csv" or np.isfinite(re).all() else map(csv, re)
        yield [(str(len(field.x)), *csv(field.x))]
        for p, col in zip(csv(field.p), zip(*texts)):
            yield [(p, *col)]

    write_outputs(cfg, "wigner", "wigner_meta",
                  {"state": state_meta, "is_diagonal": field.is_diagonal},
                  tables=[("wigner", ["x", "p", "w_re", "w_im"],
                           Blocks(field.values.size, rows))], matrix=matrix())
    return 0


def cmd_solve_potential(cfg: dict) -> int:
    """bound states of a 1D well"""
    entry = cfg["state"]["potential_ground"]
    levels = entry.get("n", cfg["levels"] or DEFAULT_LEVELS)
    try:
        bset = _solve_well(entry, levels, cfg["basis"])
    except ValueError as exc:
        raise ConfigError(f"bad potential spec: {exc}") from exc
    parities = potentials.parity_check(bset)
    cells = cell_texts(cfg["format"])
    names = [str(i) for i in range(levels)]
    parity = ["asym" if par is None else f"{par:+d}" for par in parities]
    coeff_header = ["n", *(f"{part}_{m}" for m in range(bset.basis_size) for part in ("re", "im"))]
    coeffs = np.stack([bset.states.real, bset.states.imag], axis=-1).reshape(levels, -1)
    coeff_rows = ([(name, *cells(row))] for name, row in zip(cells(names), coeffs))
    report = {
        "potential": entry["kind"],
        "levels": levels,
        "basis_size": bset.basis_size,
        "quadrature_order": bset.quadrature_order,
        "energies": [float(e) for e in bset.energies],
    }
    write_outputs(cfg, "solve-potential", "solve_potential_meta", report, tables=[
        ("bound_states", ["n", "energy", "parity"],
         Blocks(levels, _spans(cells, names, bset.energies, parity))),
        ("coefficients", coeff_header, Blocks(levels, coeff_rows)),
    ])
    return 0


def cmd_frft_check(cfg: dict) -> int:
    """rotation-kernel oracle suite"""
    rng = np.random.default_rng(20240601)
    checks: list[tuple[str, float, float]] = []

    coeffs = rng.normal(size=11) + 1j * rng.normal(size=11)
    coeffs /= np.linalg.norm(coeffs)
    norm = math.sqrt(np.sum(np.abs(coeffs) ** 2))

    worst = 0.0
    for _ in range(8):
        theta = rng.uniform(0.0, 2.0 * math.pi)
        rotated = phasespace.frft_ho(coeffs, theta)
        worst = max(worst, abs(math.sqrt(np.sum(np.abs(rotated) ** 2)) - norm))
    checks.append(("ho-path unitarity", worst, 1e-12))

    worst = 0.0
    for _ in range(8):
        t1, t2 = rng.uniform(0.0, math.pi, size=2)
        once = phasespace.frft_ho(phasespace.frft_ho(coeffs, t1), t2)
        direct = phasespace.frft_ho(coeffs, t1 + t2)
        worst = max(worst, float(np.max(np.abs(once - direct))))
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
        via_ho = phasespace.frft_ho(coeffs, theta) @ stack
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


# ---------------------------------------------------------------- dispatcher


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise ConfigError(message)


def build_parser() -> argparse.ArgumentParser:
    """One subparser per command; its flags, and --config if it has any, come
    from KEYS and STATE_FLAGS.

    Flags default to absent, so the namespace holds only the flags given.
    """
    parser = _Parser(
        prog="psesk",
        description="Phase-space entanglement spectra of 1D free-fermion states",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, command in COMMANDS.items():
        p = sub.add_parser(name, help=command.__doc__, argument_default=argparse.SUPPRESS)
        flags = [(key, options) for key, (*_, commands, options)
                 in [*KEYS.items(), *STATE_FLAGS.items()] if name in commands]
        if flags:
            p.add_argument("--config", help="JSON config file; flags override its keys")
        for key, options in flags:
            p.add_argument("--" + key.replace("_", "-"), **options)
    return parser


COMMANDS = {
    "spectrum": cmd_spectrum,
    "winding": cmd_winding,
    "entropy-surface": cmd_entropy_surface,
    "wigner": cmd_wigner,
    "solve-potential": cmd_solve_potential,
    "frft-check": cmd_frft_check,
}


def _fail(code: int, label: str, exc) -> int:
    print(" ".join(f"{label}: {exc}".splitlines()), file=sys.stderr)  # one line
    return code


def main(argv=None) -> int:
    try:
        args = build_parser().parse_args(argv)
        cfg = resolve_config(args)
        return COMMANDS[args.command](cfg)
    except ConfigError as exc:
        return _fail(2, "config error", exc)
    except NumericError as exc:
        return _fail(3, type(exc).__name__, exc)
    except MemoryError as exc:
        return _fail(3, "MemoryError", str(exc) or "result too large to allocate")


def entry_point() -> None:
    sys.exit(main())


if __name__ == "__main__":
    entry_point()
