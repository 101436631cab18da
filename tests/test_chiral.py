import gc
import math
import tracemalloc
import weakref

import numpy as np
import pytest

from helpers import (mixed_well_filling, negation_asymmetry, random_symmetric_slater,
                     random_unitary_rows)
from psesk import chiral, overlap, potentials
from psesk.entanglement import entanglement_energies, pses_sweep, schmidt_values
from psesk.overlap import ho_halfspace_overlap, rotated_overlap
from psesk.states import SlaterState, ho_slater, interpolated_state

O01 = ho_halfspace_overlap(0, 1)
O21 = ho_halfspace_overlap(2, 1)
T_CRIT = (2.0 / math.pi) * math.atan(math.sqrt(2.0))
PHI = 2.0 * math.pi / 3.0


def test_inversion_matrix_basis_states():
    s = ho_slater([0, 1])
    assert chiral.inversion_matrix(s) == pytest.approx(np.diag([1.0, -1.0]))


def test_inversion_matrix_mixed_pair():
    c = np.array([[1, 1], [1, -1]], dtype=complex) / math.sqrt(2.0)
    s = SlaterState(c)
    assert np.allclose(chiral.inversion_matrix(s), [[0, 1], [1, 0]], atol=1e-15)


def test_inversion_eigenvalues_pm_one_for_symmetric_states():
    rng = np.random.default_rng(31)
    s = random_symmetric_slater(rng, 3, 2, 14)
    lam = np.linalg.eigvalsh(chiral.inversion_matrix(s))
    assert np.max(np.abs(np.abs(lam) - 1.0)) < 1e-12


def test_parity_sort_identity_case():
    ps = chiral.parity_sort(ho_slater([0, 1]))
    assert (ps.n_even, ps.n_odd) == (1, 1)
    assert list(ps.parity) == [1, -1]
    assert abs(ps.coeffs[0, 0]) == pytest.approx(1.0)
    assert abs(ps.coeffs[1, 1]) == pytest.approx(1.0)


def test_parity_sort_reorders_even_first():
    ps = chiral.parity_sort(ho_slater([0, 1, 2]))
    assert (ps.n_even, ps.n_odd) == (2, 1)
    assert list(ps.parity) == [1, 1, -1]
    # odd row is phi_1
    assert abs(ps.coeffs[2, 1]) == pytest.approx(1.0)


def test_parity_sort_rows_stay_orthonormal():
    rng = np.random.default_rng(30)
    ps = chiral.parity_sort(random_symmetric_slater(rng, 3, 2, 18))
    gram = ps.coeffs @ ps.coeffs.conj().T
    assert np.max(np.abs(gram - np.eye(5))) < 1e-10


def test_parity_sort_mixed_rows_recovers_eigenstates():
    c = np.array([[1, 1, 0], [1, -1, 0]], dtype=complex) / math.sqrt(2.0)
    ps = chiral.parity_sort(SlaterState(c))
    assert (ps.n_even, ps.n_odd) == (1, 1)
    even_leak = np.abs(ps.coeffs[0, 1]) ** 2
    odd_leak = np.abs(ps.coeffs[1, 0]) ** 2 + np.abs(ps.coeffs[1, 2]) ** 2
    assert even_leak < 1e-16
    assert odd_leak < 1e-16


def test_parity_sort_deterministic_with_exact_sectors():
    rng = np.random.default_rng(37)
    base = random_symmetric_slater(rng, 4, 3, 30)
    mixed = SlaterState(random_unitary_rows(rng, 7, 7) @ base.coeffs)
    ps = chiral.parity_sort(mixed)
    again = chiral.parity_sort(mixed)
    assert ps.coeffs.tobytes() == again.coeffs.tobytes()
    assert np.max(np.abs(ps.coeffs @ ps.coeffs.conj().T - np.eye(7))) < 1e-12
    assert not np.any(ps.coeffs[: ps.n_even, 1::2])
    assert not np.any(ps.coeffs[ps.n_even :, 0::2])


def test_parity_sort_rejects_asymmetric_span():
    c = np.zeros((1, 3), dtype=complex)
    c[0, 0] = c[0, 1] = 1.0 / math.sqrt(2.0)
    with pytest.raises(chiral.NotInversionSymmetric):
        chiral.parity_sort(SlaterState(c))


def test_chiral_block_scalar_pair():
    ps = chiral.parity_sort(ho_slater([0, 1]))
    for theta in (0.0, 0.6, 2.5):
        blk = chiral.chiral_block(ps, theta)
        assert blk.shape == (1, 1)
        assert blk[0, 0] == pytest.approx(O01 * np.exp(1j * theta), abs=1e-12)


def test_chiral_block_interpolated_family_formula():
    t = 0.37
    ps = chiral.parity_sort(interpolated_state(t, PHI))
    for theta in (0.2, 1.9):
        got = chiral.chiral_block(ps, theta)[0, 0]
        want = O01 * math.cos(math.pi * t / 2) * np.exp(1j * theta) + O21 * math.sin(
            math.pi * t / 2
        ) * np.exp(1j * (PHI - theta))
        # parity sorting may rephase the orbitals; compare up to one constant phase
        assert abs(got) == pytest.approx(abs(want), abs=1e-12)
    # the modulus profile over theta pins the relative phase structure
    thetas = np.linspace(0, math.pi, 64, endpoint=False)
    got_abs = np.abs(chiral.block_determinants(ps, thetas))
    want_abs = np.abs(
        O01 * math.cos(math.pi * t / 2) * np.exp(1j * thetas)
        + O21 * math.sin(math.pi * t / 2) * np.exp(1j * (PHI - thetas))
    )
    assert np.max(np.abs(got_abs - want_abs)) < 1e-12


def test_block_antiperiodic_under_half_turn():
    rng = np.random.default_rng(32)
    ps = chiral.parity_sort(random_symmetric_slater(rng, 2, 2, 12))
    theta = 0.81
    a = chiral.chiral_block(ps, theta)
    b = chiral.chiral_block(ps, theta + math.pi)
    assert np.max(np.abs(a + b)) < 1e-12


def test_block_determinants_stack_equals_single_angle_calls():
    # 257 angles end in a partial block; stacking must not change a single bit
    rng = np.random.default_rng(33)
    ps = chiral.parity_sort(random_symmetric_slater(rng, 3, 3, 40))
    thetas = np.linspace(0.0, math.pi, 257)
    single = [chiral.block_determinants(ps, [theta])[0] for theta in thetas]
    assert np.array_equal(chiral.block_determinants(ps, thetas), single)


def test_block_requires_both_sectors():
    ps = chiral.parity_sort(ho_slater([0, 2]))
    with pytest.raises(chiral.EmptyBlock):
        chiral.chiral_block(ps, 0.3)


@pytest.mark.parametrize("m", [1, 2, 3])
def test_winding_ground_and_excited(m):
    gs = chiral.parity_sort(ho_slater(list(range(2 * m))))
    assert chiral.winding_number(gs) == m
    es = chiral.parity_sort(ho_slater(list(range(1, 2 * m + 1))))
    assert chiral.winding_number(es) == -m


def test_winding_grid_doubling_stable():
    ps = chiral.parity_sort(ho_slater([0, 1, 2, 3]))
    assert chiral.winding_number(ps, grid_size=64) == chiral.winding_number(ps, grid_size=128)


def test_winding_sign_flips_across_critical_t():
    lo = chiral.parity_sort(interpolated_state(T_CRIT - 0.05, PHI))
    hi = chiral.parity_sort(interpolated_state(T_CRIT + 0.05, PHI))
    assert chiral.winding_number(lo) == 1
    assert chiral.winding_number(hi) == -1


def test_winding_raises_at_closed_gap():
    ps = chiral.parity_sort(interpolated_state(T_CRIT, PHI))
    with pytest.raises(chiral.GapClosed):
        chiral.winding_number(ps, grid_size=4096)


def test_winding_at_the_grid_cap_finds_a_zero_between_grid_points(monkeypatch):
    # the base grid misses the zero, bisection stops at the cap, and the
    # golden search on the largest phase step finds it
    monkeypatch.setattr(chiral, "GRID_CAP", 260)
    ps = chiral.parity_sort(interpolated_state(T_CRIT, 1.0))
    assert np.min(np.abs(ps.grid_determinants)) > chiral.DET_FLOOR
    with pytest.raises(chiral.GapClosed, match="near theta = 2.070796"):
        chiral.winding_scan(ps)


def test_winding_at_the_grid_cap_without_a_zero_is_too_coarse(monkeypatch):
    # 40 levels wind 20 times over [0, pi]: 8 intervals cannot resolve it
    monkeypatch.setattr(chiral, "GRID_CAP", 16)
    with pytest.raises(chiral.GridTooCoarse):
        chiral.winding_scan(chiral.parity_sort(ho_slater(range(40))), grid_size=8)


@pytest.mark.parametrize("t, nu", [(0.6082, -1), (0.60817, 1)])
def test_winding_bisects_only_the_intervals_with_large_steps(t, nu, monkeypatch):
    # gapped close to T_CRIT (min |det m| 2e-5 and 3e-6): the dip is narrower
    # than a 16384-angle grid's spacing, so only the intervals it lies in are split
    ps = chiral.parity_sort(interpolated_state(t, PHI))
    angles = []
    dets = chiral.block_determinants
    monkeypatch.setattr(chiral, "block_determinants",
                        lambda ps, thetas: angles.append(len(thetas)) or dets(ps, thetas))
    winding, intervals, min_det = chiral.winding_scan(ps)
    assert winding == nu
    assert chiral.DET_FLOOR < min_det < 1e-4
    assert 256 < intervals < 300
    # the 257-angle base grid comes from the FFT: only bisection midpoints are evaluated per angle
    assert sum(angles) == intervals - 256


def test_flat_band_count():
    assert chiral.flat_band_count(chiral.parity_sort(ho_slater([0, 1, 2]))) == 1
    assert chiral.flat_band_count(chiral.parity_sort(ho_slater([0, 1]))) == 0
    assert chiral.flat_band_count(chiral.parity_sort(ho_slater([0, 2, 4]))) == 3


def test_detect_gap_closings_critical_family():
    ps = chiral.parity_sort(interpolated_state(T_CRIT, PHI))
    closings = chiral.detect_gap_closings(ps)
    assert len(closings) == 1
    assert closings[0] == pytest.approx((math.pi + PHI) / 2.0 % math.pi, abs=1e-6)


def test_detect_gap_closings_empty_for_gapped():
    assert chiral.detect_gap_closings(chiral.parity_sort(interpolated_state(0.0, PHI))) == []
    assert chiral.detect_gap_closings(chiral.parity_sort(ho_slater([0, 1]))) == []


def test_minimum_block_gap_location():
    ps = chiral.parity_sort(interpolated_state(T_CRIT, PHI))
    theta_star, gap = chiral.minimum_block_gap(ps)
    assert theta_star == pytest.approx((math.pi + PHI) / 2.0, abs=1e-6)
    assert gap < 1e-9


def test_spectrum_chiral_symmetry_random_states():
    rng = np.random.default_rng(33)
    for _ in range(10):
        n_even = int(rng.integers(1, 4))
        n_odd = int(rng.integers(1, 4))
        s = random_symmetric_slater(rng, n_even, n_odd, 16)
        theta = float(rng.uniform(0, 2 * math.pi))
        eps = entanglement_energies(schmidt_values(rotated_overlap(s, theta)))
        assert negation_asymmetry(eps) < 1e-8


def test_anticommutation_with_parity_grading():
    rng = np.random.default_rng(34)
    ps = chiral.parity_sort(random_symmetric_slater(rng, 3, 2, 14))
    grading = np.diag([1.0] * ps.n_even + [-1.0] * ps.n_odd)
    for theta in (0.0, 0.9, 2.2):
        o = rotated_overlap(ps.as_state(), theta)
        m_big = 2.0 * o - np.eye(ps.n_even + ps.n_odd)
        anti = m_big @ grading + grading @ m_big
        assert np.max(np.abs(anti)) < 1e-10


def test_zero_mode_count_respects_rank_bound():
    rng = np.random.default_rng(35)
    ps = chiral.parity_sort(random_symmetric_slater(rng, 4, 2, 16))
    for theta in np.linspace(0, math.pi, 9):
        eps = entanglement_energies(schmidt_values(rotated_overlap(ps.as_state(), theta)))
        zeros = int(np.sum(np.abs(eps) < 1e-8))
        assert zeros >= chiral.flat_band_count(ps)


def test_winding_homotopy_invariance_under_small_perturbation():
    rng = np.random.default_rng(36)
    base = ho_slater([0, 1, 2, 3], basis_size=12)
    nu_base = chiral.winding_number(chiral.parity_sort(base))
    # small inversion-symmetric perturbation, re-orthonormalized
    delta = np.zeros((4, 12), dtype=complex)
    even_cols = np.arange(0, 12, 2)
    odd_cols = np.arange(1, 12, 2)
    parities = [1, -1, 1, -1]  # matches occupations 0,1,2,3
    for row, par in enumerate(parities):
        cols = even_cols if par == 1 else odd_cols
        delta[row, cols] = 1e-3 * (rng.normal(size=len(cols)) + 1j * rng.normal(size=len(cols)))
    perturbed = base.coeffs + delta
    gram = perturbed @ perturbed.conj().T
    low = np.linalg.cholesky(gram)
    perturbed = np.linalg.solve(low, perturbed)
    ps = chiral.parity_sort(SlaterState(perturbed))
    _, gap = chiral.minimum_block_gap(ps)
    assert gap > 1e-4
    assert chiral.winding_number(ps) == nu_base


def _scalar_golden(ps, lo, hi, resolution):
    """One-bracket golden-section search, one single-angle det per probe."""

    def f(theta):
        return float(np.abs(chiral.block_determinants(ps, [theta])[0]))

    g = (math.sqrt(5.0) - 1.0) / 2.0
    a, b = lo, hi
    c, d = b - g * (b - a), a + g * (b - a)
    fc, fd = f(c), f(d)
    while b - a > resolution:
        if fc < fd:
            b, d, fd = d, c, fc
            c = b - g * (b - a)
            fc = f(c)
        else:
            a, c, fc = c, d, fd
            d = a + g * (b - a)
            fd = f(d)
    theta = 0.5 * (a + b)
    return theta, f(theta)


def _grid_brackets(ps, n_grid=256, dets=None):
    thetas = np.linspace(0.0, math.pi, n_grid, endpoint=False)
    if dets is None:
        dets = np.abs(chiral.block_determinants(ps, thetas))
    left, right = np.roll(dets, 1), np.roll(dets, -1)
    minima = (dets <= left) & (dets <= right) & ((dets < left) | (dets < right))
    step = thetas[1] - thetas[0]
    return [(thetas[i - 1] if i > 0 else thetas[0] - step,
             thetas[i + 1] if i + 1 < n_grid else thetas[-1] + step)
            for i in np.flatnonzero(minima)]


def _lockstep_states():
    u = random_unitary_rows(np.random.default_rng(12), 12, 12)
    pt = potentials.bound_states(potentials.potential("poschl_teller"), 6)
    return {
        "interpolated-critical": interpolated_state(T_CRIT, PHI),
        "oscillator-0-11-mixed": SlaterState(u @ ho_slater(list(range(12)), basis_size=100).coeffs),
        "poschl-teller-6": pt.as_slater(),
    }


@pytest.mark.parametrize("name", ["interpolated-critical", "oscillator-0-11-mixed",
                                  "poschl-teller-6"])
def test_lockstep_refiner_matches_scalar_golden_section(name, monkeypatch):
    ps = chiral.parity_sort(_lockstep_states()[name])
    brackets = _grid_brackets(ps)
    reference = [_scalar_golden(ps, lo, hi, 1e-10) for lo, hi in brackets]
    thetas, dets = chiral._golden_minima(ps, brackets, 1e-10)
    assert thetas == [t for t, _ in reference]
    assert dets.tolist() == [d for _, d in reference]

    want = sorted(t % math.pi for t, d in reference if d < chiral.DIP_THRESHOLD)
    calls = []
    block_determinants = chiral.block_determinants

    def counted(ps, thetas):
        calls.append(len(thetas))
        return block_determinants(ps, thetas)

    monkeypatch.setattr(chiral, "block_determinants", counted)
    got = chiral.detect_gap_closings(ps)
    assert got == want  # no two reference closings lie within the merge distance
    assert len(calls) <= 45
    if name == "interpolated-critical":
        assert len(got) == 1
    if name == "oscillator-0-11-mixed":
        assert len(brackets) > 24


def test_winding_and_closings_build_the_harmonics_once(monkeypatch):
    calls = []
    build = chiral.gramian_harmonics

    def counted(left, right):
        calls.append(len(left))
        return build(left, right)

    monkeypatch.setattr(chiral, "gramian_harmonics", counted)
    ps = chiral.parity_sort(_lockstep_states()["oscillator-0-11-mixed"])
    assert chiral.winding_scan(ps)[0] == 6
    assert chiral.detect_gap_closings(ps) == []
    assert calls == [6]


def test_block_too_large_to_keep_is_rebuilt_per_call(monkeypatch):
    state = _lockstep_states()["poschl-teller-6"]
    thetas = np.linspace(0.0, math.pi, 33)
    kept = chiral.parity_sort(state)
    want = chiral.block_determinants(kept, thetas)
    monkeypatch.setattr(overlap, "HARMONIC_BYTES", 1)
    ps = chiral.parity_sort(SlaterState(state.coeffs.copy()))  # the same object would be remembered
    assert ps.harmonics.coeffs is None
    assert np.max(np.abs(chiral.block_determinants(ps, thetas) - want)) < 1e-13
    assert chiral.winding_number(ps) == chiral.winding_number(kept)


def test_flat_determinant_ripples_are_not_refined(monkeypatch):
    # pure oscillator levels: |det m| is constant, its grid minima are roundoff
    ps = chiral.parity_sort(_lockstep_states()["oscillator-0-11-mixed"])
    assert len(_grid_brackets(ps)) > 24
    calls = []
    block_determinants = chiral.block_determinants

    def counted(ps, thetas):
        calls.append(len(thetas))
        return block_determinants(ps, thetas)

    grids = []
    grid_determinants = chiral._grid_determinants

    def counted_grid(ps, grid_size):
        grids.append(grid_size)
        return grid_determinants(ps, grid_size)

    monkeypatch.setattr(chiral, "block_determinants", counted)
    monkeypatch.setattr(chiral, "_grid_determinants", counted_grid)
    assert chiral.detect_gap_closings(ps) == []
    assert calls == []
    assert grids == [chiral.DEFAULT_GRID]


def test_block_determinants_memory_on_a_long_grid():
    rng = np.random.default_rng(38)
    ps = chiral.parity_sort(random_symmetric_slater(rng, 6, 6, 100))
    thetas = np.linspace(0.0, math.pi, 16385)
    overlap.ho_overlap_table(100)
    tracemalloc.start()
    try:
        chiral.block_determinants(ps, thetas)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    # the (16385, 6, 6) stack alone is 9.0 MiB; harmonics and phase blocks stay small
    assert peak <= 1.1 * 9.6 * 2**20


SYMMETRIC_WELLS = ("sho", "anharmonic", "double_well", "poschl_teller")


@pytest.fixture(scope="module")
def well_states():
    return {kind: chiral.parity_sort(potentials.bound_states(potentials.potential(kind), 6)
                                     .as_slater())
            for kind in SYMMETRIC_WELLS}


def _grid_oracle_states(well_states):
    rng = np.random.default_rng(39)
    states = {f"well-{kind}": ps for kind, ps in well_states.items()}
    for m in (3, 100, 1000):
        n = 1 if m == 3 else 3  # M = 3 holds one odd level
        states[f"random-{m}"] = chiral.parity_sort(random_symmetric_slater(rng, n, n, m))
    states["ho-900-919"] = chiral.parity_sort(ho_slater(list(range(900, 920))))
    return states


def _assert_grid_matches_per_angle(ps):
    for grid_size in (1, 2, 3, 256, 4096):
        want = chiral.block_determinants(ps, np.linspace(0.0, math.pi, grid_size + 1))
        got = chiral._grid_determinants(ps, grid_size)
        assert got.shape == want.shape
        assert np.max(np.abs(got - want)) <= 1e-12 * np.max(np.abs(want)), grid_size


def test_grid_determinants_match_block_determinants(well_states):
    # the half-turn FFT grid against per-angle evaluation, endpoint det m(pi) included
    states = _grid_oracle_states(well_states)
    assert {ps.n_even % 2 for ps in states.values()} == {0, 1}  # both endpoint signs
    for name, ps in states.items():
        assert ps.n_even == ps.n_odd, name
        _assert_grid_matches_per_angle(ps)


def test_grid_determinants_from_row_blocks(well_states, monkeypatch):
    states = _grid_oracle_states(well_states)
    monkeypatch.setattr(overlap, "HARMONIC_BYTES", 1)
    for name in ("well-double_well", "random-1000", "ho-900-919"):
        ps = chiral.parity_sort(states[name].as_state())
        assert ps.harmonics.coeffs is None
        _assert_grid_matches_per_angle(ps)


@pytest.mark.parametrize("indices", [[0, 1, 2], [0, 2]])
def test_unequal_sectors_raise_empty_block(indices):
    ps = chiral.parity_sort(ho_slater(indices))
    for scan in (chiral.winding_scan, chiral.detect_gap_closings, chiral.minimum_block_gap):
        with pytest.raises(chiral.EmptyBlock):
            scan(ps)


def test_gapped_well_windings_evaluate_no_single_angles(well_states, monkeypatch):
    calls = []
    block_determinants = chiral.block_determinants
    monkeypatch.setattr(chiral, "block_determinants",
                        lambda ps, thetas: calls.append(len(thetas)) or block_determinants(ps, thetas))
    for kind, ps in well_states.items():
        assert chiral.winding_scan(ps)[:2] == (3, chiral.DEFAULT_GRID), kind
    assert calls == []


def test_winding_scan_memory_on_a_long_grid():
    rng = np.random.default_rng(38)
    ps = chiral.parity_sort(random_symmetric_slater(rng, 6, 6, 100))
    grid_size = 16384
    overlap.ho_overlap_table(100)
    tracemalloc.start()
    try:
        assert chiral.winding_scan(ps, grid_size)[1] == grid_size
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    # FFT bins and their transform coexist: about twice the (G, 6, 6) complex stack
    assert peak <= 2.2 * grid_size * 36 * 16


def test_default_grid_is_computed_once_per_state(monkeypatch):
    grids = []
    grid_determinants = chiral._grid_determinants
    monkeypatch.setattr(chiral, "_grid_determinants",
                        lambda ps, grid_size: grids.append(grid_size) or grid_determinants(ps, grid_size))
    ps = chiral.parity_sort(interpolated_state(0.3, PHI))
    chiral.winding_scan(ps)
    chiral.detect_gap_closings(ps)
    chiral.minimum_block_gap(ps)
    assert grids == [chiral.DEFAULT_GRID]
    assert not ps.grid_determinants.flags.writeable
    chiral.winding_scan(ps, 64)
    assert grids == [chiral.DEFAULT_GRID, 64]


def _closing_oracle_states():
    rng = np.random.default_rng(40)
    states = {f"{kind}-{n}": potentials.bound_states(potentials.potential(kind), n).as_slater()
              for kind in SYMMETRIC_WELLS for n in (6, 8)}
    states.update({f"interpolated-{t}": interpolated_state(t, PHI) for t in (0.60817, 0.6082)})
    states.update({f"critical-{phi}": interpolated_state(T_CRIT, phi) for phi in (1.0, 0.3)})
    states.update({f"random-{m}": random_symmetric_slater(rng, 3, 3, m) for m in (100, 1000)})
    states["ho-0-39"] = ho_slater(list(range(40)))
    return states


def test_gap_closings_match_golden_section_on_every_grid_minimum():
    # the oracle refines every strict minimum of the scan's own grid: none is
    # dropped, neither as a ripple nor by the Weyl bound
    found = {}
    for name, state in _closing_oracle_states().items():
        ps = chiral.parity_sort(state)
        brackets = _grid_brackets(ps, dets=np.abs(ps.grid_determinants[:-1]))
        reference = [_scalar_golden(ps, lo, hi, chiral.RESOLUTION) for lo, hi in brackets]
        want = sorted(t % math.pi for t, d in reference if d < chiral.DIP_THRESHOLD)
        assert chiral.detect_gap_closings(ps) == want, name
        found[name] = len(want)
    assert found["critical-1.0"] == found["critical-0.3"] == 1
    assert found["random-1000"] > 0
    assert found["ho-0-39"] > 50  # |det m| <= 2^-20 < DIP_THRESHOLD everywhere


def test_det_lower_bound_holds_inside_every_bracket(well_states):
    rng = np.random.default_rng(41)
    states = dict(well_states)
    for m in (4, 8, 12, 40, 100):
        for n in (1, 2):
            states[f"random-{m}-{n}"] = chiral.parity_sort(random_symmetric_slater(rng, n, n, m))
    thetas = np.linspace(0.0, math.pi, chiral.DEFAULT_GRID, endpoint=False)
    half_width = math.pi / chiral.DEFAULT_GRID
    positive = 0
    for name, ps in states.items():
        centres = thetas[chiral._grid_minima(ps)]
        for centre, bound in zip(centres, chiral._det_lower_bounds(ps, centres)):
            probes = np.linspace(centre - half_width, centre + half_width, 65)
            assert np.min(np.abs(chiral.block_determinants(ps, probes))) >= bound, name
            positive += bound > 0.0
    assert positive > 20


def _counting(monkeypatch, name):
    calls = []
    original = getattr(chiral, name)
    monkeypatch.setattr(chiral, name, lambda ps, args, *rest: calls.append(len(args))
                        or original(ps, args, *rest))
    return calls


def test_gapped_wells_and_flat_fillings_refine_nothing(well_states, monkeypatch):
    states = dict(well_states)
    states["oscillator-0-11-mixed"] = chiral.parity_sort(_lockstep_states()["oscillator-0-11-mixed"])
    assert sum(len(chiral._grid_minima(ps)) for ps in well_states.values()) > 0
    calls = _counting(monkeypatch, "block_determinants")
    for name, ps in states.items():
        assert chiral.detect_gap_closings(ps) == [], name
    assert calls == []


def test_every_bracket_is_refined_without_harmonics(well_states, monkeypatch):
    # streamed harmonics get the Weyl bound too: the scan refines exactly the
    # brackets of the held scan, and the rebuilt Gramians round within 1e-15
    # of the held ones, so the closings agree to the refinement width
    states = {kind: ps.as_state() for kind, ps in well_states.items()}
    states["random-1000"] = _closing_oracle_states()["random-1000"]  # two closings
    brackets = []
    golden_minima = chiral._golden_minima
    monkeypatch.setattr(chiral, "_golden_minima", lambda ps, refine, resolution:
                        brackets.append(list(refine)) or golden_minima(ps, refine, resolution))
    want = {}
    for name, state in states.items():
        want[name] = (chiral.detect_gap_closings(chiral.parity_sort(state)), brackets[-1])
    assert len(want["random-1000"][0]) == 2
    # the bound drops the wells' grid minima
    assert sum(len(want[kind][1]) for kind in well_states) == 0
    assert sum(len(chiral._grid_minima(ps)) for ps in well_states.values()) > 0
    monkeypatch.setattr(overlap, "HARMONIC_BYTES", 1)
    for name, state in states.items():
        ps = chiral.parity_sort(SlaterState(state.coeffs.copy()))
        assert ps.harmonics.coeffs is None
        closings = chiral.detect_gap_closings(ps)
        assert brackets[-1] == want[name][1], name
        assert closings == pytest.approx(want[name][0], abs=1e-8), name


# ------------------------------------------------- the remembered parity sort

def test_sweep_and_scans_of_one_state_build_the_harmonics_once(monkeypatch):
    # the library chain of one analysis: sweep, sort, winding, gap closings
    calls = []
    for module in (chiral, overlap):
        build = module.gramian_harmonics
        monkeypatch.setattr(module, "gramian_harmonics",
                            lambda left, right, build=build: calls.append(len(left))
                            or build(left, right))
    state = mixed_well_filling(np.random.default_rng(42), "double_well", 3, 3)
    pses_sweep(state, np.linspace(0.0, 2.0 * math.pi, 256, endpoint=False))
    ps = chiral.parity_sort(state)
    assert chiral.winding_scan(ps)[0] == 3
    assert chiral.detect_gap_closings(ps) == []
    assert calls == [3]


def test_parity_sort_remembers_the_last_state_by_identity():
    state = mixed_well_filling(np.random.default_rng(43), "anharmonic", 2, 3)
    ps = chiral.parity_sort(state)
    assert chiral.parity_sort(state) is ps
    twin = SlaterState(state.coeffs.copy())
    fresh = chiral.parity_sort(twin)
    assert fresh is not ps
    assert np.array_equal(fresh.coeffs, ps.coeffs)
    assert chiral.parity_sort(twin) is fresh
    assert chiral.parity_sort(state) is not ps  # one state is remembered, the last one


def test_parity_sort_holds_no_reference_to_its_state():
    state = mixed_well_filling(np.random.default_rng(44), "sho", 2, 2)
    ps = chiral.parity_sort(state)
    ps.grid_determinants  # the kept harmonics and grid hold no reference either
    ref = weakref.ref(state)
    del state
    gc.collect()
    assert ref() is None
    assert chiral._last_sort is None
