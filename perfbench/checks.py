"""Output checks for every benchmark job.

Each check compares a job's output with an analytic result or with the
reference the acceptance suite uses, and returns a list of problems; an
empty list means the output is correct.  A job with any problem counts as
failed.
"""

from __future__ import annotations

import json
import math
from pathlib import Path

import numpy as np

from workloads import GRID_HALF_WIDTH, GRID_POINTS, SYMMETRIC_WELLS, grid_axis

T_CRIT = (2.0 / math.pi) * math.atan(math.sqrt(2.0))  # 0.6082, interpolation gap closing
LN2 = math.log(2.0)
LEVEL_TOL = 1e-3
CHIRAL_TOL = 1e-9  # on Schmidt values mu, where roundoff is uniform in [0, 1]
ZERO_BAND_TOL = 1e-8  # acceptance criteria 04 and 11
BREAKING_MIN = 1e-3  # acceptance criterion 12
WIGNER_NORM_TOL = 2e-3  # acceptance criterion 09, relative to tr rho
WIGNER_PEAK_TOL = 1e-9
WIGNER_IMAG_TOL = 1e-10
ENTROPY_MAX_TOL = 1e-3


def _table(path: Path) -> np.ndarray:
    return np.loadtxt(path, delimiter=",", skiprows=1, ndmin=2)


def _json(path: Path) -> dict:
    return json.loads(path.read_text())


def schmidt_from_energies(eps: np.ndarray) -> np.ndarray:
    """mu = 1 / (1 + e^eps), with the -inf/+inf sentinels mapping to 1/0."""
    with np.errstate(over="ignore"):
        return 1.0 / (1.0 + np.exp(eps))


def chiral_asymmetry(energies: np.ndarray) -> float:
    """Largest |mu_a + mu_{N-1-a} - 1| over angles, rows sorted ascending.

    Negation symmetry of each row of energies is symmetry of its Schmidt
    values about 1/2; comparing mu keeps the tolerance meaningful for
    energies of +-30, whose own roundoff is ~1e-2.
    """
    mu = schmidt_from_energies(np.sort(energies, axis=1))
    return float(np.max(np.abs(mu + mu[:, ::-1] - 1.0))) if mu.size else 0.0


def zero_bands(energies: np.ndarray) -> int:
    """Bands (sorted level indices) pinned at zero energy at every angle."""
    return int(np.sum(np.all(np.abs(np.sort(energies, axis=1)) < ZERO_BAND_TOL, axis=0)))


# ---------------------------------------------------------------- cold jobs


def check_solve(expect: dict, out: Path) -> list[str]:
    problems = []
    levels = expect["levels"]
    rows = (out / "bound_states.csv").read_text().splitlines()[1:]
    if len(rows) != levels:
        return [f"bound_states.csv has {len(rows)} rows, expected {levels}"]
    energies = np.array([float(r.split(",")[1]) for r in rows])
    parities = [r.split(",")[2] for r in rows]
    n = np.arange(levels)
    well = expect["well"]
    if well == "sho":
        exact = n + 0.5
    elif well == "poschl_teller":
        exact = -0.5 * (9.0 - n) ** 2
    else:
        exact = None
    if exact is not None and np.max(np.abs(energies - exact)) > LEVEL_TOL:
        problems.append(f"{well} levels {energies} differ from the analytic {exact}")
    if np.any(np.diff(energies) <= 0.0):
        problems.append("bound-state energies are not ascending")
    if well in SYMMETRIC_WELLS:
        want = ["+1" if k % 2 == 0 else "-1" for k in n]
    else:
        want = ["asym"] * levels
    if parities != want:
        problems.append(f"parities {parities} differ from {want}")
    coeffs = _table(out / "coefficients.csv")
    if coeffs.shape != (levels, 1 + 2 * 100):
        problems.append(f"coefficients.csv has shape {coeffs.shape}")
    meta = _json(out / "solve_potential_meta.json")
    if not np.array_equal(np.array(meta["energies"]), energies):
        problems.append("sidecar energies differ from bound_states.csv")
    return problems


def check_spectrum(expect: dict, out: Path) -> list[str]:
    problems = []
    n, k = expect["n"], expect["theta_points"]
    table = _table(out / "spectrum.csv")
    if table.shape != (k * n, 3):
        return [f"spectrum.csv has shape {table.shape}, expected ({k * n}, 3)"]
    energies = table[:, 2].reshape(k, n)
    entropy = _table(out / "entropy.csv")
    if entropy.shape != (k, 2):
        problems.append(f"entropy.csv has shape {entropy.shape}")
    elif np.any(entropy[:, 1] < 0.0) or np.any(entropy[:, 1] > n * LN2 + 1e-12):
        problems.append("entropy outside [0, N ln 2]")
    if len((out / "spectrum_matrix.dat").read_text().splitlines()) != k:
        problems.append("spectrum_matrix.dat does not have one line per angle")
    meta = _json(out / "spectrum_meta.json")
    if expect["well"] in SYMMETRIC_WELLS:
        asym = chiral_asymmetry(energies)
        if asym > CHIRAL_TOL:
            problems.append(f"spectrum not symmetric about zero (mu asymmetry {asym:.2e})")
        want_flat = n % 2
        if meta["flat_bands"] != want_flat or zero_bands(energies) != want_flat:
            problems.append(f"expected {want_flat} zero bands, sidecar {meta['flat_bands']}, "
                            f"table {zero_bands(energies)}")
        want_nu = 3 if n == 6 else None
        if meta["nu_e"] != want_nu:
            problems.append(f"nu_e = {meta['nu_e']}, expected {want_nu}")
    else:
        if meta["inversion_symmetric"] is not False:
            problems.append("asymmetric well reported inversion symmetric")
        finite = np.where(np.isfinite(energies), energies, 0.0)
        breaking = float(np.max(np.abs(finite + finite[:, ::-1])))
        if breaking <= BREAKING_MIN:
            problems.append(f"asymmetric well spectrum is symmetric ({breaking:.2e})")
    return problems


def check_winding(expect: dict, out: Path, stdout: str) -> list[str]:
    meta = _json(out / "winding.json")
    problems = []
    if meta.get("nu_E") != expect["nu"]:
        problems.append(f"nu_E = {meta.get('nu_E')}, expected {expect['nu']}")
    if f"nu_E = {expect['nu']}" not in stdout:
        problems.append("stdout does not report the winding")
    if meta.get("closings") != []:
        problems.append("gapped state reported gap closings")
    return problems


def check_entropy_surface(expect: dict, out: Path) -> list[str]:
    problems = []
    nt, nk = expect["t_points"], expect["theta_points"]
    table = _table(out / "entropy_surface.csv")
    if table.shape != (nt * nk, 3):
        return [f"entropy_surface.csv has shape {table.shape}, expected ({nt * nk}, 3)"]
    i = int(np.argmax(table[:, 2]))
    s_max, t_arg, theta_arg = table[i, 2], table[i, 0], table[i, 1]
    if abs(s_max - 2.0 * LN2) > ENTROPY_MAX_TOL:
        problems.append(f"max entropy {s_max} is not 2 ln 2")
    if abs(t_arg - T_CRIT) > 1.0 / (nt - 1):
        problems.append(f"argmax t = {t_arg}, expected {T_CRIT:.4f}")
    # entropy is pi-periodic in theta (x -> -x swaps the two sides of the cut)
    theta_star = 0.5 * (math.pi + expect["phi"])
    gap = abs((theta_arg - theta_star + 0.5 * math.pi) % math.pi - 0.5 * math.pi)
    if gap > 2.0 * math.pi / nk:
        problems.append(f"argmax theta = {theta_arg}, expected {theta_star % math.pi} mod pi")
    meta = _json(out / "entropy_surface_meta.json")
    if meta["max_entropy"] != s_max:
        problems.append("sidecar max entropy differs from the table")
    return problems


def check_wigner(expect: dict, out: Path, gnuplot: bool) -> list[str]:
    problems = []
    half = expect.get("half_width", GRID_HALF_WIDTH)
    points = expect.get("points", GRID_POINTS)
    table = _table(out / "wigner.csv")
    if table.shape != (points * points, 4):
        return [f"wigner.csv has shape {table.shape}, expected ({points * points}, 4)"]
    axis = grid_axis(half, points)
    if not (np.array_equal(table[::points, 0], axis)
            and np.array_equal(table[:points, 1], axis)):
        problems.append("wigner.csv grid differs from the requested axis")
    w = table[:, 2].reshape(points, points)
    step = axis[1] - axis[0]
    norm = float(np.sum(w)) * step * step / (2.0 * math.pi)
    if abs(norm - expect["trace"]) > WIGNER_NORM_TOL * expect["trace"]:
        problems.append(f"integral W / 2 pi = {norm}, expected tr rho = {expect['trace']}")
    imag = float(np.max(np.abs(table[:, 3])))
    if imag > WIGNER_IMAG_TOL:
        problems.append(f"max |w_im| = {imag:.2e} for a Hermitian operator")
    if "peak" in expect:
        i, j = expect["peak"]
        if abs(w[i, j] - 2.0) > WIGNER_PEAK_TOL or np.max(w) > 2.0 + WIGNER_PEAK_TOL:
            problems.append(f"coherent peak {w[i, j]} at its center, expected 2")
    if "origin" in expect:
        c = points // 2
        if abs(w[c, c] - expect["origin"]) > WIGNER_PEAK_TOL:
            problems.append(f"W(0, 0) = {w[c, c]}, expected {expect['origin']}")
    if gnuplot and len((out / "wigner_matrix.dat").read_text().splitlines()) != points + 1:
        problems.append("wigner_matrix.dat does not have one line per p plus a header")
    if _json(out / "wigner_meta.json")["is_diagonal"] is not True:
        problems.append("Hermitian operator not flagged is_diagonal")
    return problems


def check_cold(job, out: Path, code: int, stdout: str, stderr: str) -> list[str]:
    """All problems with one finished CLI process."""
    if code != 0:
        return [f"exit code {code}: {stderr.strip()[-300:]}"]
    if "Traceback" in stderr:
        return ["traceback on stderr"]
    expect = job.expect
    kind = expect["check"]
    try:
        if kind == "solve":
            return check_solve(expect, out)
        if kind == "spectrum":
            return check_spectrum(expect, out)
        if kind == "winding":
            return check_winding(expect, out, stdout)
        if kind == "entropy_surface":
            return check_entropy_surface(expect, out)
        if kind == "wigner":
            return check_wigner(expect, out, "--gnuplot" in job.argv)
    except (OSError, ValueError, KeyError, json.JSONDecodeError) as exc:
        return [f"unreadable output: {type(exc).__name__}: {exc}"]
    raise ValueError(f"no check named {kind!r}")


# ------------------------------------------------------------ sweep-warm jobs


def check_sweep(n_even: int, n_odd: int, outcome: dict) -> list[str]:
    """Problems with one sweep-warm job; ``outcome`` holds its results."""
    problems = []
    energies = outcome["energies"]
    n = n_even + n_odd
    asym = chiral_asymmetry(energies)
    if asym > CHIRAL_TOL:
        problems.append(f"spectrum not symmetric about zero (mu asymmetry {asym:.2e})")
    if zero_bands(energies) != abs(n_even - n_odd):
        problems.append(f"{zero_bands(energies)} zero bands, expected {abs(n_even - n_odd)}")
    entropy = outcome["entropy"]
    if np.any(entropy < 0.0) or np.any(entropy > n * LN2 + 1e-12):
        problems.append("entropy outside [0, N ln 2]")
    if outcome["parity"] != (n_even, n_odd):
        problems.append(f"parity counts {outcome['parity']}, generated {(n_even, n_odd)}")
    if n_even == n_odd:
        # sweep states are ground fillings of 2n levels: gapped, with nu = n
        if outcome["winding"] != n_even or outcome["closings"]:
            problems.append(f"winding {outcome['winding']!r} with closings "
                            f"{outcome['closings']}, expected {n_even} and none")
    elif outcome["flat_bands"] != abs(n_even - n_odd):
        problems.append(f"flat_band_count {outcome['flat_bands']}, expected {abs(n_even - n_odd)}")
    return problems
