"""Seeded inputs for the three benchmark workloads.

Every value a job depends on (angles, interpolation parameters, coherent
centers, filling sizes, sweep states, job order) is drawn here from the
workload seed, so one seed always gives the same inputs.  The program only
ever sees the generated CLI arguments or states.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

SYMMETRIC_WELLS = ("sho", "anharmonic", "double_well", "poschl_teller")
ALL_WELLS = SYMMETRIC_WELLS + ("rosen_morse",)

# the CLI's default Wigner grid, reproduced so coherent centers land on nodes
GRID_HALF_WIDTH = 8.0
GRID_POINTS = 161

# The rank-7 Poschl-Teller density reaches |p| ~ 9.5, past the default
# [-8, 8] window; +-12 at the same spacing keeps its Wigner normalisation
# within the acceptance tolerance.
PT_GRID_HALF_WIDTH = 12.0
PT_GRID_POINTS = 241
GALLERY_ROUNDS = 2

SWEEP_BASIS = 100
SWEEP_ANGLES = 256
SWEEP_BALANCED_SHARE = 0.7
# Each balanced size appears this often per well and pass: the 36 pure-level
# oscillator fillings, whose refinement counts vary with roundoff, then
# average out between seeds and hold the tail percentile.
SWEEP_BALANCED_REPEATS = 6
# Bound levels the sweep takes from each well: six of each parity, except
# that the Poschl-Teller well holds only nine (E_n = -(9 - n)^2 / 2).
WELL_LEVELS = {"sho": 12, "anharmonic": 12, "double_well": 12, "poschl_teller": 9}


@dataclass(frozen=True)
class ColdJob:
    """One CLI process: its arguments (without --out) and what to check."""

    label: str
    argv: tuple[str, ...]
    expect: dict = field(default_factory=dict)


def grid_axis(half_width: float = GRID_HALF_WIDTH, points: int = GRID_POINTS) -> np.ndarray:
    return np.linspace(-half_width, half_width, points)


def wells_cold(rng: np.random.Generator) -> list[ColdJob]:
    """scripts/potential_well_spectra.py plus a README-style filling winding."""
    jobs = []
    for kind in ALL_WELLS:
        jobs.append(ColdJob(
            f"solve-{kind}",
            ("solve-potential", "--potential", kind, "--levels", "7"),
            {"check": "solve", "well": kind, "levels": 7},
        ))
        for n in (6, 7):
            jobs.append(ColdJob(
                f"spectrum-{kind}-n{n}",
                ("spectrum", "--potential", kind, "--particles", str(n),
                 "--theta-points", str(SWEEP_ANGLES), "--gnuplot"),
                {"check": "spectrum", "well": kind, "n": n, "theta_points": SWEEP_ANGLES},
            ))
    for kind in SYMMETRIC_WELLS:
        jobs.append(ColdJob(
            f"winding-{kind}-n6",
            ("winding", "--potential", kind, "--particles", "6"),
            {"check": "winding", "nu": 3},
        ))
    half = int(rng.integers(1, 9))
    filling = ",".join(str(k) for k in range(2 * half))
    jobs.append(ColdJob(
        f"winding-filling-{2 * half}",
        ("winding", "--ho-slater", filling, "--basis", "100"),
        {"check": "winding", "nu": half},
    ))
    return jobs


def gallery_cold(rng: np.random.Generator) -> list[ColdJob]:
    """scripts/entropy_polar.py and scripts/wigner_gallery.py plus a rank-7
    density, in two rounds with their own seeded angle, interpolation points
    and coherent centers (22 jobs, so ten jobs lie beyond a tail percentile
    above the median)."""
    return [job for r in range(GALLERY_ROUNDS) for job in _gallery_round(rng, f"r{r}")]


def _gallery_round(rng: np.random.Generator, tag: str) -> list[ColdJob]:
    phi = float(rng.uniform(0.0, 2.0 * math.pi))
    jobs = [ColdJob(
        f"{tag}-entropy-surface",
        ("entropy-surface", "--interpolated", f"0,{phi!r}",
         "--t-points", "201", "--theta-points", "256"),
        {"check": "entropy_surface", "phi": phi, "t_points": 201, "theta_points": 256},
    )]
    for n in (0, 1, 2):
        jobs.append(ColdJob(
            f"{tag}-wigner-eig{n}",
            ("wigner", "--ho-slater", str(n), "--gnuplot"),
            {"check": "wigner", "trace": 1.0, "origin": 2.0 * (-1.0) ** n},
        ))
    axis = grid_axis()
    for k in range(2):
        # W = 2 exp(-|x - x0|^2 - |p - p0|^2) with (x0, p0) = sqrt(2) w; put
        # (x0, p0) on a grid node inside |.| <= 4 so the peak is sampled.
        i, j = (int(v) for v in rng.integers(40, 121, size=2))
        w = (float(axis[i]) / math.sqrt(2.0), float(axis[j]) / math.sqrt(2.0))
        jobs.append(ColdJob(
            f"{tag}-wigner-coherent{k}",
            ("wigner", f"--coherent={w[0]!r},{w[1]!r}", "--gnuplot"),  # '=' admits a leading '-'
            {"check": "wigner", "trace": 1.0, "peak": [i, j]},
        ))
    for k, t in enumerate(np.sort(rng.uniform(0.0, 1.0, size=4))):
        jobs.append(ColdJob(
            f"{tag}-wigner-interp{k}",
            ("wigner", "--interpolated", f"{float(t)!r},{phi!r}", "--gnuplot"),
            {"check": "wigner", "trace": 2.0},
        ))
    jobs.append(ColdJob(
        f"{tag}-wigner-pt7",
        ("wigner", "--potential", "poschl_teller", "--particles", "7",
         "--grid-half-width", repr(PT_GRID_HALF_WIDTH), "--grid-points", str(PT_GRID_POINTS)),
        {"check": "wigner", "trace": 7.0,
         "half_width": PT_GRID_HALF_WIDTH, "points": PT_GRID_POINTS},
    ))
    return jobs


COLD = {"wells-cold": wells_cold, "gallery-cold": gallery_cold}


def _unitary(rng: np.random.Generator, n: int) -> np.ndarray:
    q, r = np.linalg.qr(rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n)))
    return q * (np.diag(r) / np.abs(np.diag(r)))


def sector_limits(well: str) -> tuple[int, int]:
    """Bound levels of each parity that the sweep draws from a well."""
    levels = WELL_LEVELS[well]
    return (levels + 1) // 2, levels // 2


def sweep_sizes(rng: np.random.Generator) -> list[tuple[str, int, int]]:
    """(well, N_e, N_o) for the jobs of one sweep-warm pass.

    The balanced sizes are a fixed design (each size the well allows,
    SWEEP_BALANCED_REPEATS times per well), so the mix of work does not
    drift with the seed; the unbalanced sizes come from it.
    """
    sizes = [(well, k, k) for well in SYMMETRIC_WELLS
             for k in range(1, min(sector_limits(well)) + 1)
             for _ in range(SWEEP_BALANCED_REPEATS)]
    balanced = len(sizes)
    unbalanced = round(balanced * (1.0 - SWEEP_BALANCED_SHARE) / SWEEP_BALANCED_SHARE)
    for j in range(unbalanced):
        well = SYMMETRIC_WELLS[j % len(SYMMETRIC_WELLS)]
        even, odd = sector_limits(well)
        while True:
            ne, no = int(rng.integers(1, even + 1)), int(rng.integers(1, odd + 1))
            if ne != no:
                break
        sizes.append((well, ne, no))
    return sizes


def well_orbitals() -> dict[str, np.ndarray]:
    """Bound-state coefficient rows of each symmetric well at M = 100, in
    ascending energy (so parity alternates, starting even)."""
    from psesk.potentials import bound_states, potential

    return {well: bound_states(potential(well), WELL_LEVELS[well], SWEEP_BASIS).states
            for well in SYMMETRIC_WELLS}


def sweep_specs(rng: np.random.Generator) -> list[tuple[int, int, np.ndarray]]:
    """(N_e, N_o, coefficient rows) for one sweep-warm pass, in seeded order.

    A job's state fills the N_e lowest even and N_o lowest odd bound levels
    of its well (the ground filling the spectrum jobs of wells-cold use) and
    mixes the orbitals by a seeded random unitary.  For the oscillator well
    the levels are pure oscillator levels, the ``ho_slater`` filling of the
    README, whose |det m(theta)| is constant.
    """
    wells = well_orbitals()
    sizes = sweep_sizes(rng)
    specs = []
    for k in rng.permutation(len(sizes)).tolist():
        well, ne, no = sizes[k]
        levels = wells[well]
        rows = np.vstack([levels[0::2][:ne], levels[1::2][:no]]).astype(complex)
        specs.append((ne, no, _unitary(rng, ne + no) @ rows))
    return specs
