import gc
import math
import tracemalloc
import weakref

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from helpers import (mixed_well_filling, negation_asymmetry, random_symmetric_slater,
                     random_unitary_rows)
from psesk import chiral, entanglement, overlap, potentials
from psesk.entanglement import entanglement_energies, pses_sweep, schmidt_values
from psesk.overlap import ho_overlap_table, rotated_overlap
from psesk.states import SlaterState, ho_slater, interpolated_state

O01, O21 = ho_overlap_table(3).entries[[0, 2], 1]
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
    assert abs(ps.coeffs[0, 0]) == pytest.approx(1.0)
    assert abs(ps.coeffs[1, 1]) == pytest.approx(1.0)


def test_parity_sort_reorders_even_first():
    ps = chiral.parity_sort(ho_slater([0, 1, 2]))
    assert (ps.n_even, ps.n_odd) == (2, 1)
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


def test_parity_sort_keeps_the_span_of_mixed_well_fillings():
    # the sorted rows span the input's to within 2e-12: the projector
    # C^H C onto the occupied orbitals moves by no more than that
    for kind in ("anharmonic", "double_well", "sho"):
        rng = np.random.default_rng(46)
        for n_even, n_odd in [(2, 5), (2, 2), (3, 3), (1, 6), (2, 6)] * 4:
            state = mixed_well_filling(rng, kind, n_even, n_odd)
            ps = chiral.parity_sort(state)
            drift = ps.coeffs.conj().T @ ps.coeffs - state.coeffs.conj().T @ state.coeffs
            assert np.max(np.abs(drift)) <= 2e-12, (kind, n_even, n_odd)


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
    # the 257 grid angles gather their blocks, and the 257 angles between
    # them end in a partial block; stacking must not change a single bit
    rng = np.random.default_rng(33)
    ps = chiral.parity_sort(random_symmetric_slater(rng, 3, 3, 40))
    grid = np.linspace(0.0, math.pi, 257)
    thetas = np.concatenate((grid, grid + 1e-3))
    single = [chiral.block_determinants(ps, [theta])[0] for theta in thetas]
    assert np.array_equal(chiral.block_determinants(ps, thetas), single)


def test_chiral_block_matches_the_dense_product_and_builds_no_grid():
    # balanced or not, the block is summed from the harmonics of the sectors
    rng = np.random.default_rng(35)
    for n_even, n_odd in ((2, 2), (3, 2)):
        ps = chiral.parity_sort(random_symmetric_slater(rng, n_even, n_odd, 40))
        table = ho_overlap_table(40).entries
        for theta in (0.0, 0.7, 4.0):
            phases = np.exp(1j * theta * np.arange(40))
            even, odd = (rows * phases for rows in ps.sectors)
            want = even.conj() @ table @ odd.T
            assert np.max(np.abs(chiral.chiral_block(ps, theta) - want)) < 1e-14
        assert "grid_blocks" not in ps.__dict__


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


def _grid(ps, grid_size):
    """det m on a base grid of ``grid_size`` intervals, not the state's own."""
    return chiral._grid_determinants(ps, overlap.evaluate_half_turn(*ps.sectors, 2 * grid_size))


def _scan(ps, grid_size):
    """The phase scan from a base grid of ``grid_size`` intervals, not the state's
    own; its midpoints and SVD blocks still come from the state's own grid."""
    return chiral._phase_scan(ps, _grid(ps, grid_size))


def test_winding_grid_doubling_stable():
    ps = chiral.parity_sort(ho_slater([0, 1, 2, 3]))
    assert _scan(ps, 64)[0] == _scan(ps, 128)[0] == chiral.winding_number(ps)


def test_winding_sign_flips_across_critical_t():
    lo = chiral.parity_sort(interpolated_state(T_CRIT - 0.05, PHI))
    hi = chiral.parity_sort(interpolated_state(T_CRIT + 0.05, PHI))
    assert chiral.winding_number(lo) == 1
    assert chiral.winding_number(hi) == -1


def test_winding_raises_at_closed_gap():
    ps = chiral.parity_sort(interpolated_state(T_CRIT, PHI))
    with pytest.raises(chiral.GapClosed) as closed:
        chiral.winding_number(ps)
    # a finer base grid finds the same closing
    finer = _scan(ps, 4096)[3]
    assert len(finer) == len(closed.value.closings) == 1
    assert abs(finer[0] - closed.value.closings[0]) < 1e-9


def test_winding_at_the_grid_cap_finds_a_zero_between_grid_points(monkeypatch):
    # the base grid misses the zero; bisection narrows the interval holding
    # it to RESOLUTION within the default cap, while a cap on the midpoints
    # that stops the bisection first leaves a bad step and no closing
    ps = chiral.parity_sort(interpolated_state(T_CRIT, 1.0))
    assert np.min(np.abs(ps.grid_determinants)) > chiral.DET_FLOOR
    with pytest.raises(chiral.GapClosed):
        chiral.winding_scan(ps)
    assert chiral.detect_gap_closings(ps) == [pytest.approx((math.pi + 1.0) / 2.0, abs=1e-9)]
    monkeypatch.setattr(chiral, "GRID_CAP", 4)
    capped = chiral.parity_sort(interpolated_state(T_CRIT, 1.0))
    with pytest.raises(chiral.GridTooCoarse):
        chiral.winding_scan(capped)
    assert chiral.detect_gap_closings(capped) == []


def test_zero_on_a_grid_point_is_one_closing():
    # on these rows of interpolated_state(T_CRIT, 0) det m is exactly 0 at the
    # grid point pi/2: its phase steps are NaN, which count as bad, the
    # bisection resolves the zero, and no warning escapes
    rows = np.array([[0.577350269189626, 0.0, 0.8164965809277263], [0.0, 1.0, 0.0]], dtype=complex)
    exact = chiral.ParitySortedState(coeffs=rows, n_even=1, n_odd=1)
    assert exact.grid_determinants[chiral.DEFAULT_GRID // 2] == 0.0
    # the sorted state's det there is roundoff, not 0, and one ulp above
    # T_CRIT the phase scan sees no bad step at all (nu = -1): only the gap
    # floor finds those closings
    ps = chiral.parity_sort(interpolated_state(T_CRIT, 0.0))
    assert 0.0 < abs(ps.grid_determinants[chiral.DEFAULT_GRID // 2]) < chiral.DET_FLOOR
    above = chiral.parity_sort(interpolated_state(math.nextafter(T_CRIT, 1.0), 0.0))
    assert above.phase_scan[0] == -1
    for state in (exact, ps, above):
        closings = chiral.detect_gap_closings(state)
        assert len(closings) == 1
        assert abs(closings[0] - math.pi / 2.0) < 1e-9
        with pytest.raises(chiral.GapClosed) as closed:
            chiral.winding_scan(state)
        assert closed.value.closings == tuple(closings)


def test_floor_svds_read_base_grid_blocks(monkeypatch):
    # |det m| < DET_FLOOR at the grid point pi/2: its SVD gathers the held
    # block bitwise, and no angle is evaluated from the harmonics
    read = []
    interpolate = chiral._interpolate_half_turn

    def recorded(blocks, thetas):
        out = interpolate(blocks, thetas)
        read.extend(zip(np.asarray(thetas).tolist(), out))
        return out

    monkeypatch.setattr(chiral, "_interpolate_half_turn", recorded)
    monkeypatch.setattr(chiral, "evaluate_gramians", None)
    ps = chiral.parity_sort(interpolated_state(T_CRIT, 0.0))
    assert abs(ps.grid_determinants[ps.grid_size // 2]) < chiral.DET_FLOOR
    closings = chiral.detect_gap_closings(ps)
    assert len(closings) == 1 and abs(closings[0] - math.pi / 2.0) < 1e-9
    grid = np.linspace(0.0, math.pi, ps.grid_size + 1).tolist()
    held = np.concatenate((ps.grid_blocks, -ps.grid_blocks[:1]))  # m(pi) = -m(0)
    gathered = [(grid.index(theta), block) for theta, block in read if theta in grid]
    assert ps.grid_size // 2 in [j for j, _ in gathered]
    assert all(np.array_equal(block, held[j]) for j, block in gathered)


def test_a_finer_grid_resolves_a_winding_the_default_grid_aliases():
    # an even orbital spread over levels 0 and 1000 against level 1001: det m
    # is T_{1000,1001} e^{i theta} plus a small e^{1001 i theta} term, over
    # sqrt 2, and the offset S = 1001 - 500 leaves the frequencies -500 and
    # 500 to the demodulated determinant: 256 intervals step by 1.95 pi
    # each, which wraps to -0.05 pi; the state's own grid, 1024 intervals
    # for M = 1024, steps by 0.49 pi each
    rows = np.zeros((2, 1024), dtype=complex)
    rows[0, [0, 1000]] = math.sqrt(0.5)
    rows[1, 1001] = 1.0
    ps = chiral.parity_sort(SlaterState(rows))
    assert _scan(ps, chiral.DEFAULT_GRID)[0] == 513
    assert chiral.winding_scan(ps)[:2] == (1, 1024)


@pytest.mark.parametrize("levels, nu", [([0, 601], 601), ([0, 2, 601, 603], 1202)])
def test_windings_faster_than_the_floor_grid(levels, nu):
    # M = 602 and 604 give these states 1024 intervals; the offsets S = 601
    # and 1202 leave their demodulated det m constant, so none is bisected
    assert chiral.winding_scan(chiral.parity_sort(ho_slater(levels)))[:2] == (nu, 1024)


def _filling(n):
    half = st.sets(st.integers(0, 511), min_size=n, max_size=n)
    return st.tuples(half, half).map(lambda pair: sorted([2 * k for k in pair[0]]
                                                         + [2 * k + 1 for k in pair[1]]))


@settings(max_examples=100, deadline=None, derandomize=True)
@given(st.integers(1, 4).flatmap(_filling))
@example([0, 2, 1001, 1003])  # det m turns by 2002 pi over [0, pi], 1024 intervals
@example([13, 99, 197, 270, 388, 506])
def test_oscillator_fillings_wind_by_their_level_sums(levels):
    # m(theta) = D_e(theta)^* m_0 D_o(theta) with diagonal phases e^{i n theta}
    # and m_0 nonsingular, so nu = sum of the odd levels - sum of the even ones;
    # the grid's own scan, which a filling's phase_scan skips, must wind the
    # same (its demodulation by S makes this exact)
    nu = sum(n if n % 2 else -n for n in levels)
    ps = chiral.parity_sort(ho_slater(levels))
    assert chiral.winding_number(ps) == nu
    assert chiral._phase_scan(ps, ps.grid_determinants)[0] == nu


def test_grid_size_comes_from_the_basis():
    rng = np.random.default_rng(45)
    for m in (1, 100, 256, 257, 1024):
        if m == 1:  # one column holds no odd level: the sort's rows are given directly
            ps = chiral.ParitySortedState(coeffs=np.array([[1.0], [0.0]], dtype=complex),
                                          n_even=1, n_odd=1)
        else:
            ps = chiral.parity_sort(random_symmetric_slater(rng, 1, 1, m))
        assert len(ps.grid_determinants) - 1 == max(256, 2 ** math.ceil(math.log2(m))), m


def test_zero_padding_and_orbital_mixing_keep_the_winding_and_closings():
    # padding the basis across M = 256 and 512 changes the state's grid, and
    # mixing the orbitals changes det m by a constant phase: neither moves
    # the winding or the closings
    rng = np.random.default_rng(46)
    for state in (ho_slater([0, 1, 2, 3]), interpolated_state(T_CRIT, PHI)):
        want = chiral.parity_sort(state).phase_scan
        n, basis = state.coeffs.shape
        for m in (257, 1024):
            rows = np.zeros((n, m), dtype=complex)
            rows[:, :basis] = state.coeffs
            for mixed in (rows, random_unitary_rows(rng, n, n) @ rows):
                ps = chiral.parity_sort(SlaterState(mixed))
                nu, _, _, closings = ps.phase_scan
                assert len(ps.grid_determinants) - 1 == 2 ** math.ceil(math.log2(m))
                assert nu == want[0]
                assert len(closings) == len(want[3])
                for got, was in zip(closings, want[3]):
                    assert abs((got - was + math.pi / 2.0) % math.pi - math.pi / 2.0) < 1e-9


def test_a_grid_at_the_cap_still_bisects():
    # GRID_CAP bounds the midpoints, not the base grid: the dip near
    # 5 pi / 6 is narrower than this grid's spacing too
    ps = chiral.parity_sort(interpolated_state(0.6082, PHI))
    nu, intervals, _, closings = _scan(ps, chiral.GRID_CAP)
    assert (nu, closings) == (-1, ())
    assert chiral.GRID_CAP < intervals <= 2 * chiral.GRID_CAP


def test_wide_fillings_wind_with_an_open_gap():
    # |det m| <= 2^-N_e falls below DET_FLOOR, but the chiral gap
    # sigma_min(m) >= 2^{N_e - 1} |det m| stays open
    ps = chiral.parity_sort(ho_slater(range(68)))
    nu, _, min_det = chiral.winding_scan(ps)
    assert (nu, chiral.detect_gap_closings(ps)) == (34, [])
    assert min_det < chiral.DET_FLOOR < 2.0**33 * min_det
    ps = chiral.parity_sort(random_symmetric_slater(np.random.default_rng(5), 30, 30, 1024))
    nu, _, min_det = chiral.winding_scan(ps)
    assert nu == 16  # as on every base grid from 512 to 4096 intervals
    assert 2.0**29 * min_det < chiral.DET_FLOOR  # here the bound alone cannot tell


def test_winding_at_the_grid_cap_without_a_zero_is_too_coarse(monkeypatch):
    # orbitals spread over 100 levels keep harmonics that the demodulation
    # cannot remove, and 8 intervals cannot resolve them
    monkeypatch.setattr(chiral, "GRID_CAP", 16)
    state = random_symmetric_slater(np.random.default_rng(47), 3, 3, 100)
    nu, intervals, _, closings = _scan(chiral.parity_sort(state), 8)
    assert (nu, closings) == (None, ())
    assert intervals <= 8 + 16


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


@pytest.mark.parametrize("gap, count", [(1e-4, 2), (1e-7, 1)])
def test_closings_merge_only_within_their_distance(gap, count, monkeypatch):
    # two simple zeros of det m astride a grid angle, each in its own base
    # interval: 1e-4 apart they are two closings, 1e-7 apart one, as
    # closings merge within 1e-6
    ps = chiral.parity_sort(interpolated_state(0.3, PHI))
    grid = np.linspace(0.0, math.pi, ps.grid_size + 1)
    zeros = grid[100] + np.array([-0.5, 0.5]) * gap

    def dets(thetas):
        return np.prod(np.exp(2j * np.asarray(thetas)[:, None]) - np.exp(2j * zeros), axis=1)

    monkeypatch.setattr(chiral, "block_determinants", lambda ps, thetas: dets(thetas))
    closings = chiral._phase_scan(ps, dets(grid))[3]
    assert len(closings) == count
    assert all(np.min(np.abs(zeros - c)) < 1e-9 for c in closings)


def _circular_distance(a, b):
    """|a - b| mod pi, folded into [0, pi/2]."""
    return abs((a - b + math.pi / 2.0) % math.pi - math.pi / 2.0)


@pytest.mark.parametrize("alpha", [0.3, 1.234567, 2.9])
def test_rotating_the_state_moves_its_closings_by_the_rotation(alpha):
    # c_n -> c_n e^{-i n alpha} maps the cut at theta to the cut at
    # theta - alpha: the closings move by +alpha mod pi, off the base grid,
    # where the scan reads its blocks by interpolation, and nu stays
    def rotated(state):
        return SlaterState(state.coeffs * np.exp(-1j * alpha * np.arange(state.basis_size)))

    for phi in (0.0, 1.0, 2.0 * math.pi / 3.0):
        state = interpolated_state(T_CRIT, phi)
        want = chiral.detect_gap_closings(chiral.parity_sort(state))
        got = chiral.detect_gap_closings(chiral.parity_sort(rotated(state)))
        assert len(got) == len(want) == 1, phi
        assert _circular_distance(got[0], want[0] + alpha) < 1e-9, phi
    for kind in SYMMETRIC_WELLS:
        state = potentials.bound_states(potentials.potential(kind), 6).as_slater()
        want = chiral.parity_sort(state).phase_scan
        got = chiral.parity_sort(rotated(state)).phase_scan
        assert got[0] == want[0] == 3 and got[3] == want[3] == (), kind


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
        o = rotated_overlap(SlaterState(ps.coeffs), theta)
        m_big = 2.0 * o - np.eye(ps.n_even + ps.n_odd)
        anti = m_big @ grading + grading @ m_big
        assert np.max(np.abs(anti)) < 1e-10


def test_zero_mode_count_respects_rank_bound():
    rng = np.random.default_rng(35)
    ps = chiral.parity_sort(random_symmetric_slater(rng, 4, 2, 16))
    for theta in np.linspace(0, math.pi, 9):
        eps = entanglement_energies(schmidt_values(rotated_overlap(SlaterState(ps.coeffs), theta)))
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
    n_grid = n_grid if dets is None else len(dets)
    thetas = np.linspace(0.0, math.pi, n_grid, endpoint=False)
    if dets is None:
        dets = np.abs(chiral.block_determinants(ps, thetas))
    left, right = np.roll(dets, 1), np.roll(dets, -1)
    minima = (dets <= left) & (dets <= right) & ((dets < left) | (dets < right))
    step = thetas[1] - thetas[0]
    return [(thetas[i - 1] if i > 0 else thetas[0] - step,
             thetas[i + 1] if i + 1 < n_grid else thetas[-1] + step)
            for i in np.flatnonzero(minima)]


def _scan_states():
    u = random_unitary_rows(np.random.default_rng(12), 12, 12)
    pt = potentials.bound_states(potentials.potential("poschl_teller"), 6)
    return {
        "interpolated-critical": interpolated_state(T_CRIT, PHI),
        "oscillator-0-11-mixed": SlaterState(u @ ho_slater(list(range(12)), basis_size=100).coeffs),
        "poschl-teller-6": pt.as_slater(),
    }


@pytest.mark.parametrize("name", ["interpolated-critical", "oscillator-0-11-mixed",
                                  "poschl-teller-6"])
def test_minimum_block_gap_reads_the_phase_scan(name, monkeypatch):
    ps = chiral.parity_sort(_scan_states()[name])
    try:
        min_det = chiral.winding_scan(ps)[2]
    except chiral.GapClosed as closed:
        min_det = closed.min_abs_det
    for evaluation in ("block_determinants", "_grid_determinants", "evaluate_gramians"):
        monkeypatch.setattr(chiral, evaluation, None)
    theta, det = chiral.minimum_block_gap(ps)
    monkeypatch.undo()
    assert det == min_det
    if ps.levels is None:
        assert det <= np.min(np.abs(ps.grid_determinants))
    else:  # a filling's |det m| = prod sigma(m(0)) is constant: no grid angle holds less
        assert det == pytest.approx(np.min(np.abs(ps.grid_determinants)), rel=1e-13)
    assert 0.0 <= theta < math.pi
    block = overlap.evaluate_gramians(*ps.sectors, [theta])
    assert abs(np.linalg.det(block)[0]) == pytest.approx(det, rel=1e-9)
    # near a zero the scan's bisection has brought its minimum onto the closing
    closings = chiral.detect_gap_closings(ps)
    if name == "interpolated-critical":
        assert len(closings) == 1
        assert abs(closings[0] - theta) < 1e-9
    else:
        assert closings == []


def test_winding_and_closings_build_the_harmonics_once(monkeypatch):
    # once, for the base grid: every later block is read from it
    calls = []
    half_turn = chiral.evaluate_half_turn

    def counted(left, right, count):
        calls.append(count)
        return half_turn(left, right, count)

    monkeypatch.setattr(chiral, "evaluate_half_turn", counted)
    monkeypatch.setattr(chiral, "evaluate_gramians", None)
    ps = chiral.parity_sort(_scan_states()["poschl-teller-6"])
    assert chiral.winding_scan(ps)[0] == 3
    assert chiral.detect_gap_closings(ps) == []
    chiral.block_determinants(ps, [0.1, 2.0])
    assert calls == [2 * ps.grid_size]


def test_flat_determinant_ripples_are_not_refined(monkeypatch):
    # pure oscillator levels: |det m| is constant, its grid minima are roundoff;
    # the grid's own scan, which a filling's phase_scan skips
    ps = chiral.parity_sort(_scan_states()["oscillator-0-11-mixed"])
    assert len(_grid_brackets(ps)) > 24
    calls = []
    block_determinants = chiral.block_determinants

    def counted(ps, thetas):
        calls.append(len(thetas))
        return block_determinants(ps, thetas)

    grids = []
    grid_determinants = chiral._grid_determinants

    def counted_grid(ps, blocks):
        grids.append(len(blocks))
        return grid_determinants(ps, blocks)

    monkeypatch.setattr(chiral, "block_determinants", counted)
    monkeypatch.setattr(chiral, "_grid_determinants", counted_grid)
    assert chiral._phase_scan(ps, ps.grid_determinants)[3] == ()
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
    # the (16385, 6, 6) stack alone is 9.0 MiB; the grid and the weights stay small
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
    # FFT grids of other sizes, and the state's own grid interpolated onto
    # them, against the sum of the harmonics angle by angle
    for grid_size in (1, 2, 3, 256, 4096):
        thetas = np.linspace(0.0, math.pi, grid_size + 1)
        want = np.linalg.det(overlap.evaluate_gramians(*ps.sectors, thetas))
        for got in (_grid(ps, grid_size), chiral.block_determinants(ps, thetas)):
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
        ps = chiral.parity_sort(SlaterState(states[name].coeffs))
        assert overlap._harmonic_rows(ps.n_odd, ps.coeffs.shape[1]) == 1
        _assert_grid_matches_per_angle(ps)


@pytest.mark.parametrize("indices", [[0, 1, 2], [0, 2], "double_well-4-3"])
def test_unequal_sectors_raise_empty_block(indices):
    # the sectors are compared first: no grid is built
    if indices == "double_well-4-3":
        state = potentials.bound_states(potentials.potential("double_well"), 7, 100).as_slater()
    else:
        state = ho_slater(indices)
    ps = chiral.parity_sort(state)
    for scan in (chiral.winding_scan, chiral.detect_gap_closings, chiral.minimum_block_gap,
                 lambda ps: ps.grid_blocks):
        with pytest.raises(chiral.EmptyBlock):
            scan(ps)
        assert "grid_blocks" not in ps.__dict__


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
        assert _scan(ps, grid_size)[1] == grid_size
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    # FFT bins and their transform coexist: about twice the (G, 6, 6) complex stack
    assert peak <= 2.2 * grid_size * 36 * 16


def test_default_grid_is_computed_once_per_state(monkeypatch):
    grids = []
    grid_determinants = chiral._grid_determinants
    monkeypatch.setattr(chiral, "_grid_determinants",
                        lambda ps, blocks: grids.append(len(blocks)) or grid_determinants(ps, blocks))
    ps = chiral.parity_sort(interpolated_state(0.3, PHI))
    chiral.winding_scan(ps)
    chiral.detect_gap_closings(ps)
    chiral.minimum_block_gap(ps)
    assert grids == [chiral.DEFAULT_GRID]
    assert not ps.grid_determinants.flags.writeable
    chiral.winding_number(ps)
    assert grids == [chiral.DEFAULT_GRID]
    # a wider basis makes a longer grid, once
    wide = chiral.parity_sort(interpolated_state(0.3, PHI, basis_size=300))
    chiral.winding_scan(wide)
    chiral.minimum_block_gap(wide)
    assert grids == [chiral.DEFAULT_GRID, 512]


def _closing_oracle_states():
    rng = np.random.default_rng(40)
    states = {f"{kind}-{n}": potentials.bound_states(potentials.potential(kind), n).as_slater()
              for kind in SYMMETRIC_WELLS for n in (6, 8)}
    states.update({f"interpolated-{t}": interpolated_state(t, PHI) for t in (0.60817, 0.6082)})
    states.update({f"critical-{phi}": interpolated_state(T_CRIT, phi) for phi in (1.0, 0.3)})
    states.update({f"random-{m}": random_symmetric_slater(rng, 3, 3, m) for m in (100, 1000)})
    states["ho-0-39"] = ho_slater(list(range(40)))
    return states


def test_winding_raises_gap_closed_exactly_at_closings_or_the_floor():
    closed = set()
    for name, state in _closing_oracle_states().items():
        ps = chiral.parity_sort(state)
        want = bool(chiral.detect_gap_closings(ps))  # zeros, and angles below the floor
        try:
            chiral.winding_scan(ps)
        except chiral.GapClosed:
            closed.add(name)
        assert (name in closed) == want, name
    assert closed == {"critical-1.0", "critical-0.3"}


def test_determinant_dips_that_are_not_zeros_are_not_closings():
    # a golden search on every strict |det m| minimum of the grid finds dips
    # below 1e-6, but the chiral gap sigma_min(m) stays open at each of them:
    # |det m| = prod sigma_i is small because the block is wide, or the
    # sigma_i are all moderately small, not because the block is singular
    states = _closing_oracle_states()
    for name, least in (("random-1000", 1), ("ho-0-39", 50)):
        ps = chiral.parity_sort(states[name])
        brackets = _grid_brackets(ps, dets=np.abs(ps.grid_determinants[:-1]))
        dips = [t for t, d in (_scalar_golden(ps, lo, hi, chiral.RESOLUTION) for lo, hi in brackets)
                if d < 1e-6]
        assert len(dips) >= least, name
        blocks = overlap.evaluate_gramians(*ps.sectors, dips)
        assert np.min(np.linalg.svd(blocks, compute_uv=False)) >= 1e-4, name
        assert chiral.detect_gap_closings(ps) == [], name


@pytest.mark.parametrize("n, nu, intervals, least, floor_svds", [
    (20, 14, 1065, (0.25281920860340223, 4.19200652070945e-27), 0),
    (30, 16, 1072, (2.7871472177889673, 2.6266188254747832e-37), 3),
])
def test_the_floor_pass_bounds_sigma_min_before_any_svd(n, nu, intervals, least, floor_svds,
                                                         monkeypatch):
    # every sigma_i of these blocks is at most about 0.24, so 2^{N - 1} |det m|
    # is below DET_FLOOR at every angle; the Frobenius bound clears every
    # base-grid angle, and of the 30 + 30 scan's midpoints only the three
    # beside its smallest |det m| (bound 0.79-0.97 DET_FLOOR) take an SVD
    ps = chiral.parity_sort(random_symmetric_slater(np.random.default_rng(5), n, n, 1024))
    dets = ps.grid_determinants
    assert np.all(np.ldexp(np.abs(dets), n - 1) < chiral.DET_FLOOR)
    decomposed = []
    svd = np.linalg.svd

    def recorded(a, *args, **kwargs):  # sigma_min of each floor block
        decomposed.extend(svd(a, compute_uv=False)[:, -1])
        return svd(a, *args, **kwargs)

    monkeypatch.setattr(np.linalg, "svd", recorded)
    scan = chiral._phase_scan(ps, dets)
    assert len(decomposed) == floor_svds
    assert all(sigma >= 1e-6 for sigma in decomposed)
    assert (scan[0], scan[1], scan[3]) == (nu, intervals, ())
    assert scan[2] == pytest.approx(least, rel=1e-9, abs=1e-12)


def _counting(monkeypatch, name):
    calls = []
    original = getattr(chiral, name)
    monkeypatch.setattr(chiral, name, lambda ps, args, *rest: calls.append(len(args))
                        or original(ps, args, *rest))
    return calls


def test_gapped_wells_and_flat_fillings_refine_nothing(well_states, monkeypatch):
    # fresh sorts, so no scan is remembered from another test
    states = {kind: chiral.parity_sort(SlaterState(ps.coeffs)) for kind, ps in well_states.items()}
    states["oscillator-0-11-mixed"] = chiral.parity_sort(_scan_states()["oscillator-0-11-mixed"])
    assert sum(len(_grid_brackets(ps, dets=np.abs(ps.grid_determinants[:-1])))
               for ps in states.values()) > 0
    calls = _counting(monkeypatch, "block_determinants")
    for name, ps in states.items():
        assert chiral.detect_gap_closings(ps) == [], name
    assert calls == []


def test_scans_agree_without_held_harmonics(well_states, monkeypatch):
    # grids built one left row at a time round within 1e-15 of grids built
    # in one block: the same windings, grids and closings
    states = {kind: SlaterState(ps.coeffs) for kind, ps in well_states.items()}
    states["random-1000"] = _closing_oracle_states()["random-1000"]
    want = {name: chiral.parity_sort(state).phase_scan for name, state in states.items()}
    monkeypatch.setattr(overlap, "HARMONIC_BYTES", 1)
    for name, state in states.items():
        ps = chiral.parity_sort(SlaterState(state.coeffs.copy()))
        assert overlap._harmonic_rows(ps.n_odd, ps.coeffs.shape[1]) == 1
        got = ps.phase_scan
        assert got[:2] == want[name][:2] and got[3] == want[name][3], name


# ------------------------------------------------- the remembered parity sort

def test_sweep_and_scans_of_one_state_build_the_harmonics_once(monkeypatch):
    # the library chain of one analysis: sweep, sort, winding, gap closings;
    # the harmonics are built once, for the base grid that all of them read
    calls = []
    for module in (chiral, entanglement):
        half_turn = module.evaluate_half_turn
        monkeypatch.setattr(module, "evaluate_half_turn",
                            lambda left, right, count, half_turn=half_turn:
                            calls.append(count) or half_turn(left, right, count))
        monkeypatch.setattr(module, "evaluate_gramians", None)
    state = mixed_well_filling(np.random.default_rng(42), "double_well", 3, 3)
    pses_sweep(state, np.linspace(0.0, 2.0 * math.pi, 256, endpoint=False))
    ps = chiral.parity_sort(state)
    assert chiral.winding_scan(ps)[0] == 3
    assert chiral.detect_gap_closings(ps) == []
    assert calls == [2 * ps.grid_size]


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
    ps.grid_determinants  # the kept grid holds no reference either
    ref = weakref.ref(state)
    del state
    gc.collect()
    assert ref() is None
    assert not chiral._sorts  # the memo dropped its sort with the state


def test_sort_and_grid_are_read_only():
    ps = chiral.parity_sort(ho_slater([0, 1, 2, 3], 8))
    for array in (ps.coeffs, ps.grid_blocks, ps.grid_determinants):
        with pytest.raises(ValueError):
            array[0] = 7.0


def test_editing_the_callers_rows_changes_neither_the_state_nor_its_winding():
    rows = ho_slater([0, 1, 2, 3], 8).coeffs.copy()
    state = SlaterState(rows)
    assert chiral.winding_number(chiral.parity_sort(state)) == 2
    rows[:] = ho_slater([0, 1, 2, 5], 8).coeffs
    assert chiral.winding_number(chiral.parity_sort(SlaterState(rows))) == 4
    # that sort replaced the memo, so this one is made afresh from the state's own rows
    assert chiral.winding_number(chiral.parity_sort(state)) == 2


def test_a_norm_defect_does_not_unbalance_the_sort():
    # SlaterState admits a 1e-8 deviation; the even and odd weights of each
    # mode both carry the defect, so it cancels in lambda
    state = SlaterState(ho_slater([0, 1, 2, 3]).coeffs * math.sqrt(1.0 + 6e-9))
    ps = chiral.parity_sort(state)
    assert (ps.n_even, ps.n_odd) == (2, 2)


# ------------------------------------------- fillings of oscillator levels: m(0) alone

@pytest.mark.parametrize("levels, basis", [(range(600), 1024), (range(68), 68),
                                           ([0, 2, 1001, 1003], 1004),
                                           ([13, 99, 197, 270, 388, 506], 507)])
def test_fillings_wind_by_their_level_sums_from_one_block(levels, basis):
    # sigma(m(theta)) is that of m(0) and det m(theta) = e^{i S theta} det m(0)
    levels = list(levels)
    rows = ho_slater(levels, basis).coeffs
    mixed = random_unitary_rows(np.random.default_rng(48), len(rows), len(rows)) @ rows
    for state in (ho_slater(levels, basis), SlaterState(mixed)):
        ps = chiral.parity_sort(state)
        assert list(ps.levels) == sorted(levels, key=lambda n: (n % 2, n))
        sigma = np.linalg.svd(chiral.level_block(ps), compute_uv=False)
        nu = sum(n if n % 2 else -n for n in levels)
        assert chiral.winding_scan(ps) == (nu, ps.grid_size, float(np.prod(sigma)))
        assert chiral.detect_gap_closings(ps) == []
        assert chiral.minimum_block_gap(ps) == (0.0, float(np.prod(sigma)))
        assert "grid_blocks" not in ps.__dict__
        if basis <= 1004:  # the block is m(0) of the grid
            block = chiral.chiral_block(ps, 0.0)
            assert np.max(np.abs(block - chiral.level_block(ps))) < 1e-15


def test_a_filling_whose_block_is_singular_to_roundoff_takes_the_scan():
    # sigma_min(m(0)) = 1.4e-14 < DET_FLOOR: the scan of the grid decides
    ps = chiral.parity_sort(ho_slater([0, 2, 4, 1019, 1021, 1023]))
    assert ps.levels is not None
    assert np.linalg.svd(chiral.level_block(ps), compute_uv=False)[-1] < chiral.DET_FLOOR
    assert ps.phase_scan == chiral._phase_scan(ps, ps.grid_determinants)


def test_the_level_test_reads_the_residual_not_the_weights():
    # an admixture a of another level moves the column weights by a^2, but
    # leaves a level residual of a times the level distance
    for size, filling in ((1e-9, False), (1e-13, False), (1e-17, True)):
        rows = ho_slater([0, 1, 2, 3], 8).coeffs.copy()
        rows[0, 6] = size
        rows /= np.linalg.norm(rows, axis=1, keepdims=True)
        ps = chiral.parity_sort(SlaterState(random_unitary_rows(np.random.default_rng(49), 4, 4)
                                            @ rows))
        assert (ps.levels is not None) == filling, size
        assert (ps.n_even, ps.n_odd) == (2, 2)
    # fractional weights: a well's levels
    assert chiral.parity_sort(mixed_well_filling(np.random.default_rng(50), "double_well", 2, 2)
                              ).levels is None


def _wrong_parity(deviation):
    """(phi_0 + phi_2)/sqrt 2 with a phi_3 part that puts its inversion
    eigenvalue ``deviation`` from 1, beside (phi_1 + phi_5)/sqrt 2."""
    a = math.sqrt(deviation / (2.0 - deviation))  # |lambda| = (1 - a^2)/(1 + a^2)
    rows = np.zeros((2, 6), dtype=complex)
    rows[0, [0, 2, 3]] = [math.sqrt(0.5), math.sqrt(0.5), a]
    rows[0] /= math.sqrt(1.0 + a * a)
    rows[1, [1, 5]] = math.sqrt(0.5)
    return SlaterState(rows)


def test_the_parity_tolerance_decides_the_sort():
    # 10 and 0.1 times PARITY_TOL = 1e-8
    with pytest.raises(chiral.NotInversionSymmetric):
        chiral.parity_sort(_wrong_parity(1e-7))
    ps = chiral.parity_sort(_wrong_parity(1e-9))
    assert (ps.n_even, ps.n_odd) == (1, 1) and ps.levels is None
