"""Acceptance suite: one test per release criterion, each printing a
PASS/FAIL line (run with -s to see them inline)."""

import math
import time

import numpy as np
import pytest

from helpers import negation_asymmetry, random_slater, random_symmetric_slater
from psesk import chiral, entanglement as ent, overlap, phasespace as ph, potentials as pot
from psesk.hobasis import ho_stack
from psesk.states import ho_slater, interpolated_state

T_CRIT = (2.0 / math.pi) * math.atan(math.sqrt(2.0))
PHI = 2.0 * math.pi / 3.0

_t0 = {}


def _start(key):
    _t0[key] = time.perf_counter()


def _report(key, num, name, ok):
    elapsed = time.perf_counter() - _t0[key]
    print(f"\nACCEPTANCE {num:02d} [{name}] {'PASS' if ok else 'FAIL'} ({elapsed:.1f}s)")
    assert ok, f"criterion {num} ({name}) failed"


@pytest.fixture(scope="module")
def solved_wells():
    kinds = ("sho", "anharmonic", "double_well", "poschl_teller")
    return {
        (kind, n): pot.bound_states(pot.potential(kind), n)
        for kind in kinds
        for n in (6, 7)
    }


def test_criterion_01_overlap_oracle_agreement():
    _start("c1")
    worst = 0.0
    for m in range(41):
        for n in range(m, 41):
            closed = overlap.ho_halfspace_overlap(m, n)
            brute = overlap.overlap_quadrature_oracle(m, n)
            worst = max(worst, abs(closed - brute))
    _report("c1", 1, "overlap closed form vs quadrature", worst <= 1e-8)


def test_criterion_02_gram_bound_and_complementarity():
    _start("c2")
    rng = np.random.default_rng(1002)
    ok = True
    for _ in range(500):
        n = int(rng.integers(1, 9))
        m = int(rng.integers(max(n, 2), 61))
        state = random_slater(rng, n, m)
        theta = float(rng.uniform(0.0, 2.0 * math.pi))
        right = overlap.rotated_overlap(state, theta)
        left = overlap.rotated_overlap(state, theta, side="left")
        evals = np.linalg.eigvalsh(right)
        ok &= evals.min() >= -1e-9 and evals.max() <= 1.0 + 1e-9
        ok &= bool(np.max(np.abs(right + left - np.eye(n))) <= 1e-9)
        if not ok:
            break
    _report("c2", 2, "Gram bounds + complementarity, 500 states", ok)


def test_criterion_03_chiral_symmetry_random_states():
    _start("c3")
    rng = np.random.default_rng(1003)
    thetas = np.linspace(0.0, 2.0 * math.pi, 32, endpoint=False)
    worst = 0.0
    for _ in range(200):
        n_even = int(rng.integers(1, 4))
        n_odd = int(rng.integers(1, 4))
        m = int(rng.integers(10, 31))
        state = random_symmetric_slater(rng, n_even, n_odd, m)
        for theta in thetas:
            eps = ent.entanglement_energies(
                ent.schmidt_values(overlap.rotated_overlap(state, theta))
            )
            worst = max(worst, negation_asymmetry(eps))
    _report("c3", 3, "spectrum negation symmetry, 200 states x 32 angles", worst <= 1e-8)


def test_criterion_04_flat_bands_and_zero_modes():
    _start("c4")
    thetas = np.linspace(0.0, 2.0 * math.pi, 128, endpoint=False)
    ok = True
    for occ in ([0], [1], [0, 1], [0, 2], [0, 1, 2], [1, 3, 5], [0, 1, 2, 3, 4], [2, 5]):
        state = ho_slater(occ, basis_size=max(occ) + 1)
        data = ent.pses_sweep(state, thetas)
        variation = np.max(data.energies, axis=0) - np.min(data.energies, axis=0)
        ok &= bool(np.max(variation) <= 1e-8)
        ps = chiral.parity_sort(state)
        zeros_per_theta = np.sum(np.abs(data.energies) < 1e-8, axis=1)
        ok &= bool(np.all(zeros_per_theta == chiral.flat_band_count(ps)))
    _report("c4", 4, "flat bands + exact zero-mode count", ok)


def test_criterion_05_winding_integers():
    _start("c5")
    ok = True
    for m in range(1, 6):
        gs = chiral.parity_sort(ho_slater(list(range(2 * m))))
        es = chiral.parity_sort(ho_slater(list(range(1, 2 * m + 1))))
        nu_gs = chiral.winding_number(gs)
        nu_es = chiral.winding_number(es)
        ok &= nu_gs == m and nu_es == -m
        ok &= chiral.winding_number(gs, grid_size=512) == nu_gs
        ok &= chiral.winding_number(es, grid_size=512) == nu_es
    _report("c5", 5, "winding +-M for ground/excited fillings, grid stable", ok)


@pytest.fixture(scope="module")
def critical_point():
    t_grid = np.arange(0.0, 1.0 + 1e-12, 1e-3)
    best = (math.inf, None)
    for t in t_grid:
        ps = chiral.parity_sort(interpolated_state(float(t), PHI))
        dets = np.abs(chiral.block_determinants(ps, np.linspace(0, math.pi, 64, endpoint=False)))
        gap = float(np.min(dets))
        if gap < best[0]:
            best = (gap, float(t))
    t_star = best[1]
    ps = chiral.parity_sort(interpolated_state(t_star, PHI))
    theta_star, gap = chiral.minimum_block_gap(ps)
    return t_star, theta_star, gap


def test_criterion_06_gap_closing_location(critical_point):
    _start("c6")
    t_star, theta_star, _ = critical_point
    ok = abs(t_star - T_CRIT) <= 1e-3
    ok &= abs(theta_star - 5.0 * math.pi / 6.0) <= 1e-3
    _report("c6", 6, "critical t and closing angle", ok)


def test_criterion_07_entropy_saturation(critical_point):
    _start("c7")
    t_star, theta_star, _ = critical_point
    state = interpolated_state(t_star, PHI)
    mu = ent.schmidt_values(overlap.rotated_overlap(state, theta_star))
    entropy = ent.entanglement_entropy(mu)
    _report("c7", 7, "entropy saturates 2 ln 2 at the critical point",
            abs(entropy - 2.0 * math.log(2.0)) <= 1e-4)


def test_criterion_08_frft_laws():
    _start("c8")
    rng = np.random.default_rng(1008)
    coeffs = rng.normal(size=11) + 1j * rng.normal(size=11)
    coeffs /= np.linalg.norm(coeffs)

    ok = True
    for _ in range(20):
        t1, t2 = rng.uniform(0.0, 2.0 * math.pi, size=2)
        rotated = ph.frft_ho(coeffs, t1)
        ok &= abs(np.sum(np.abs(rotated) ** 2) - np.sum(np.abs(coeffs) ** 2)) <= 1e-12
        composed = ph.frft_ho(ph.frft_ho(coeffs, t1), t2)
        direct = ph.frft_ho(coeffs, t1 + t2)
        ok &= bool(np.max(np.abs(composed - direct)) <= 1e-12)

    grid = np.linspace(-10.0, 10.0, 801)
    stack = ho_stack(10, grid)
    samples = coeffs @ stack
    worst = 0.0
    for _ in range(12):
        theta = float(rng.uniform(0.3, math.pi - 0.3))
        via_kernel = ph.frft_direct(samples, grid, theta)
        via_phases = ph.frft_ho(coeffs, theta) @ stack
        worst = max(worst, float(np.max(np.abs(via_kernel - via_phases))))
    ok &= worst <= 1e-5

    a = 0.9
    packet = np.exp(-((grid - a) ** 2) / 2.0).astype(complex)
    transformed = ph.frft_direct(packet, grid, math.pi / 2.0)
    analytic = np.exp(1j * a * grid - grid * grid / 2.0)
    ok &= bool(np.max(np.abs(transformed - analytic)) <= 1e-6)
    _report("c8", 8, "frFT unitarity, group law, kernel agreement", ok)


def test_criterion_09_wigner_suite():
    _start("c9")
    rng = np.random.default_rng(1009)
    x = p = np.linspace(-8, 8, 161)
    fine = np.linspace(-13.0, 13.0, 1041)
    ok = True

    for trial in range(20):
        c = rng.normal(size=21) + 1j * rng.normal(size=21)
        c /= np.linalg.norm(c)
        closed = ph.wigner_of_state(c, x, p)
        samples = c @ ho_stack(20, fine)
        oracle = ph.wigner_pure(samples, fine, x, p)
        ok &= bool(np.max(np.abs(closed.values - oracle.values)) <= 1e-4)
        total = np.trapezoid(np.trapezoid(closed.values.real, p, axis=1), x) / (2 * math.pi)
        ok &= abs(total - 1.0) <= 2e-3
        if trial < 5:
            marg = ph.marginal_position(closed)
            density = np.abs(c @ ho_stack(20, x)) ** 2
            ok &= bool(np.max(np.abs(marg - density)) <= 1e-5)
        if not ok:
            break

    w = 1.2 - 0.7j
    theta = 0.8
    expn = ph.coherent_expansion(w, 48)
    rotated = ph.wigner_of_state(ph.frft_ho(expn, theta), x, p)
    target = ph.coherent_wigner(w * np.exp(1j * theta), x, p)
    ok &= bool(np.max(np.abs(rotated.values - target.values)) <= 1e-6)
    _report("c9", 9, "Wigner oracle, marginals, normalization, covariance", ok)


def test_criterion_10_potential_solver(solved_wells):
    _start("c10")
    sho = solved_wells[("sho", 7)]
    bset8 = pot.bound_states(pot.potential("sho"), 8)
    ok = bool(np.max(np.abs(bset8.energies - (np.arange(8) + 0.5))) <= 1e-8)
    pt = pot.bound_states(pot.potential("poschl_teller"), 7)
    exact = -0.5 * (9.0 - np.arange(7)) ** 2
    rel = np.abs(pt.energies - exact) / np.abs(exact)
    ok &= bool(np.max(rel) <= 1e-4)
    ok &= abs(pt.energies[0] + 40.5) <= 1e-4
    ok &= sho.energies[0] == pytest.approx(0.5, abs=1e-8)
    _report("c10", 10, "solver: SHO exact ladder, sech^2 analytic spectrum", ok)


def test_criterion_11_well_windings_and_flat_band(solved_wells):
    _start("c11")
    ok = True
    for kind in ("sho", "anharmonic", "double_well", "poschl_teller"):
        ps6 = chiral.parity_sort(solved_wells[(kind, 6)].as_slater())
        ok &= chiral.winding_number(ps6) == 3
        ps7 = chiral.parity_sort(solved_wells[(kind, 7)].as_slater())
        ok &= chiral.flat_band_count(ps7) == 1
        data = ent.pses_sweep(
            solved_wells[(kind, 7)].as_slater(),
            np.linspace(0.0, 2.0 * math.pi, 32, endpoint=False),
        )
        zero_bands = int(np.sum(np.all(np.abs(data.energies) < 1e-8, axis=0)))
        ok &= zero_bands == 1
    _report("c11", 11, "wells: nu = 3 at N=6, one zero band at N=7", ok)


def test_criterion_12_inversion_breaking():
    _start("c12")
    bset = pot.bound_states(pot.potential("rosen_morse"), 6)
    state = bset.as_slater()
    raised = False
    try:
        chiral.parity_sort(state)
    except chiral.NotInversionSymmetric:
        raised = True
    data = ent.pses_sweep(state, np.linspace(0.0, 2.0 * math.pi, 32, endpoint=False))
    asym = max(negation_asymmetry(row) for row in data.energies)
    _report("c12", 12, "asymmetric well breaks the chiral symmetry",
            raised and asym > 1e-3)
