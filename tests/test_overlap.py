import math
import tracemalloc

import numpy as np
import pytest

from helpers import random_slater, random_unitary_rows
from psesk import overlap
from psesk.entanglement import entanglement_energies, schmidt_values
from psesk.states import SlaterState, ho_slater


def test_even_case_is_half_delta():
    assert overlap.ho_halfspace_overlap(0, 0) == 0.5
    assert overlap.ho_halfspace_overlap(2, 4) == 0.0
    assert overlap.ho_halfspace_overlap(3, 3) == 0.5


def test_first_odd_entries_against_closed_gaussians():
    # int_0^infty phi_0 phi_1 = 1/sqrt(2 pi); int_0^infty phi_1 phi_2 = 1/(2 sqrt(pi))
    assert overlap.ho_halfspace_overlap(0, 1) == pytest.approx(
        1.0 / math.sqrt(2.0 * math.pi), rel=1e-13
    )
    assert overlap.ho_halfspace_overlap(1, 2) == pytest.approx(
        1.0 / (2.0 * math.sqrt(math.pi)), rel=1e-13
    )
    # ratio fixing the critical interpolation parameter
    ratio = overlap.ho_halfspace_overlap(0, 1) / overlap.ho_halfspace_overlap(1, 2)
    assert ratio == pytest.approx(math.sqrt(2.0), rel=1e-13)


def test_symmetry_in_indices():
    assert overlap.ho_halfspace_overlap(4, 7) == overlap.ho_halfspace_overlap(7, 4)


def test_table_small_sizes():
    t1 = overlap.ho_overlap_table(1).entries
    assert t1 == pytest.approx(np.array([[0.5]]))
    t2 = overlap.ho_overlap_table(2).entries
    o01 = 1.0 / math.sqrt(2.0 * math.pi)
    assert t2 == pytest.approx(np.array([[0.5, o01], [o01, 0.5]]), rel=1e-12)


def test_table_diagonal_is_half():
    t = overlap.ho_overlap_table(30).entries
    assert np.allclose(np.diag(t), 0.5)
    assert np.allclose(t, t.T)


def test_table_spectrum_within_unit_interval():
    t = overlap.ho_overlap_table(100).entries
    evals = np.linalg.eigvalsh(t)
    assert evals.min() > -1e-10
    assert evals.max() < 1.0 + 1e-10


def test_table_is_held_as_its_two_boundary_vectors(monkeypatch):
    monkeypatch.setattr(overlap, "_master_table", None)  # a fresh process's empty cache
    tracemalloc.start()
    try:
        table = overlap.ho_overlap_table(1024)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    # phi(0) and phi'(0) are 16 KiB; the dense table would be 8 MiB
    assert peak < 2**20
    assert table.basis_size == 1024 and table.entries.shape == (1024, 1024)


def test_oracle_simple_values():
    assert overlap.overlap_quadrature_oracle(0, 0) == pytest.approx(0.5, abs=1e-10)
    assert overlap.overlap_quadrature_oracle(0, 1) == pytest.approx(
        1.0 / math.sqrt(2.0 * math.pi), abs=1e-9
    )
    assert overlap.overlap_quadrature_oracle(3, 3) == pytest.approx(0.5, abs=1e-9)


def test_table_beyond_old_cap_matches_oracle():
    t = overlap.ho_overlap_table(512).entries
    rng = np.random.default_rng(17)
    for _ in range(32):
        top = int(rng.integers(256, 512))
        low = int(rng.integers(0, top))
        low += (low + top + 1) % 2  # step to the odd-sum neighbour
        assert abs(t[low, top] - overlap.overlap_quadrature_oracle(low, top)) < 1e-12
    idx = np.arange(512)
    even_off = ((idx[:, None] + idx[None, :]) % 2 == 0) & (idx[:, None] != idx[None, :])
    assert np.all(t[even_off] == 0.0)
    evals = np.linalg.eigvalsh(t)
    assert evals.min() > -1e-12 and evals.max() < 1.0 + 1e-12


def test_oracle_matches_table_at_top_of_basis():
    t = overlap.ho_overlap_table(1024).entries
    assert abs(overlap.overlap_quadrature_oracle(1022, 1023) - t[1022, 1023]) < 1e-12


def test_translated_at_origin_matches_rotated_gramians_at_max_basis():
    rng = np.random.default_rng(1024)
    a = random_unitary_rows(rng, 3, 1024)
    o_t = overlap.translated_overlap(SlaterState(a), 0.0)
    o_r = overlap.evaluate_gramians(overlap.gramian_harmonics(a, a), [0.0])[0]
    assert np.max(np.abs(o_t - o_r)) < 1e-11


@pytest.mark.parametrize("m", [100, 400])
def test_rotated_gramians_match_quadrature_of_rotated_orbitals(m):
    # rotating the cut by theta is rotating the orbitals by e^{i n theta} at a fixed cut,
    # whose Gramian the position-space quadrature computes independently of the table
    rng = np.random.default_rng(m)
    a = random_unitary_rows(rng, 4, m)
    thetas = rng.uniform(0.0, 2.0 * math.pi, size=6)
    stack = overlap.evaluate_gramians(overlap.gramian_harmonics(a, a), thetas)
    assert stack.shape == (6, 4, 4)
    for theta, o in zip(thetas, stack):
        rotated = SlaterState(a * np.exp(1j * np.arange(m) * theta))
        assert np.max(np.abs(o - overlap.translated_overlap(rotated, 0.0))) < 1e-11


def _dense_gramians(left, right, thetas, side="right"):
    """conj(L) e^{-i n theta} T e^{i n theta} R^T as explicit products with the table."""
    table = overlap.ho_overlap_table(left.shape[1]).entries
    if side == "left":
        table = np.eye(len(table)) - table
    out = np.empty((len(thetas), len(left), len(right)), dtype=complex)
    for i, theta in enumerate(thetas):
        ph = np.exp(1j * theta * np.arange(len(table)))
        out[i] = (left.conj() * ph.conj()) @ table @ (right * ph).T
    return out


def _unit_rows(rng, n, m):
    rows = rng.normal(size=(n, m)) + 1j * rng.normal(size=(n, m))
    return rows / np.linalg.norm(rows, axis=1, keepdims=True)


@pytest.mark.parametrize("side", ["right", "left"])
@pytest.mark.parametrize("m", [1, 2, 3, 100, 400, 1024])
def test_boundary_current_kernel_matches_dense_product(m, side):
    rng = np.random.default_rng(m)
    for n_l, n_r in ((3, 2), (1, 4), (0, 3), (2, 0)):
        left, right = _unit_rows(rng, n_l, m), _unit_rows(rng, n_r, m)
        for k in (0, 1, 7):
            thetas = rng.uniform(-2.0 * math.pi, 2.0 * math.pi, size=k)
            got = overlap.evaluate_gramians(overlap.gramian_harmonics(left, right), thetas, side)
            assert got.shape == (k, n_l, n_r)
            want = _dense_gramians(left, right, thetas, side)
            assert np.max(np.abs(got - want), initial=0.0) < 1e-13


def test_even_odd_block_matches_dense_product_at_m_1000():
    rng = np.random.default_rng(1000)
    even = np.zeros((4, 1000), dtype=complex)
    even[:, 0::2] = _unit_rows(rng, 4, 500)
    odd = np.zeros((3, 1000), dtype=complex)
    odd[:, 1::2] = _unit_rows(rng, 3, 500)
    thetas = rng.uniform(0.0, math.pi, size=7)
    got = overlap.evaluate_gramians(overlap.gramian_harmonics(even, odd), thetas)
    assert np.max(np.abs(got - _dense_gramians(even, odd, thetas))) < 1e-13


def test_left_row_blocks_match_dense_product(monkeypatch):
    rng = np.random.default_rng(60)
    left, right = _unit_rows(rng, 5, 60), _unit_rows(rng, 3, 60)
    thetas = rng.uniform(0.0, 2.0 * math.pi, size=9)
    monkeypatch.setattr(overlap, "HARMONIC_BYTES", 1)
    assert overlap.harmonic_rows(3, 60) == 1
    h = overlap.gramian_harmonics(left, right)
    for side in ("right", "left"):
        got = overlap.evaluate_gramians(h, thetas, side)
        assert np.max(np.abs(got - _dense_gramians(left, right, thetas, side))) < 1e-13
    assert overlap.evaluate_gramians(h, []).shape == (0, 5, 3)


@pytest.mark.parametrize("m", [1, 3, 100, 1000])
def test_half_turn_gramians_match_per_angle_kernel(m):
    # K from 2 up past 2M - 1: small K folds many lags into each bin
    rng = np.random.default_rng(m + 7)
    for n_l, n_r in ((3, 2), (1, 4), (0, 3), (2, 0)):
        left, right = _unit_rows(rng, n_l, m), _unit_rows(rng, n_r, m)
        h = overlap.gramian_harmonics(left, right)
        for k in (2, 4, 16, 256, 4096):
            thetas = np.linspace(0.0, 2.0 * math.pi, k, endpoint=False)
            got = overlap.evaluate_half_turn(h, k)
            assert got.shape == (k // 2, n_l, n_r)
            want = overlap.evaluate_gramians(h, thetas[: k // 2])
            assert np.max(np.abs(got - want), initial=0.0) < 1e-13, (n_l, n_r, k)
    for count in (0, 7):
        with pytest.raises(ValueError):
            overlap.evaluate_half_turn(h, count)


def test_half_turn_left_row_blocks_match(monkeypatch):
    rng = np.random.default_rng(61)
    left, right = _unit_rows(rng, 5, 300), _unit_rows(rng, 3, 300)
    whole = overlap.evaluate_half_turn(overlap.gramian_harmonics(left, right), 64)
    monkeypatch.setattr(overlap, "HARMONIC_BYTES", 1)
    assert overlap.harmonic_rows(3, 300) == 1
    blocked = overlap.evaluate_half_turn(overlap.gramian_harmonics(left, right), 64)
    assert np.max(np.abs(blocked - whole)) < 1e-15
    thetas = np.linspace(0.0, 2.0 * math.pi, 64, endpoint=False)[:32]
    assert np.max(np.abs(blocked - _dense_gramians(left, right, thetas))) < 1e-13


def test_row_block_rebuild_is_one_pass_with_the_held_bits(monkeypatch):
    # one table lookup and one right-row transform per evaluation; one
    # constant term for all left rows, so the half turn keeps the held bits
    # and the per-angle sum differs only by the BLAS panel widths
    rng = np.random.default_rng(62)
    left, right = _unit_rows(rng, 5, 300), _unit_rows(rng, 3, 300)
    thetas = rng.uniform(0.0, 2.0 * math.pi, size=9)
    held = overlap.gramian_harmonics(left, right)
    want = [overlap.evaluate_gramians(held, thetas), overlap.evaluate_half_turn(held, 64),
            overlap.lag_norms(held)]
    monkeypatch.setattr(overlap, "HARMONIC_BYTES", 1)
    streamed = overlap.gramian_harmonics(left, right)
    assert streamed.coeffs is None
    assert streamed.half.tobytes() == held.half.tobytes()
    lookups = []
    table = overlap.ho_overlap_table
    monkeypatch.setattr(overlap, "ho_overlap_table", lambda m: lookups.append(m) or table(m))
    got = [overlap.evaluate_gramians(streamed, thetas), overlap.evaluate_half_turn(streamed, 64),
           overlap.lag_norms(streamed)]
    assert lookups == [300, 300, 300]
    assert np.max(np.abs(got[0] - want[0])) <= 1e-15
    assert got[1].tobytes() == want[1].tobytes()
    assert np.max(np.abs(got[2] - want[2])) <= 1e-15 * np.max(want[2])


def test_streamed_half_turn_memory(monkeypatch):
    # each block is binned and transformed in its slice of the output: no
    # full-width bins beside the returned stack
    rng = np.random.default_rng(63)
    left, right = _unit_rows(rng, 8, 300), _unit_rows(rng, 8, 300)
    monkeypatch.setattr(overlap, "HARMONIC_BYTES", 1)
    h = overlap.gramian_harmonics(left, right)
    assert h.coeffs is None
    overlap.ho_overlap_table(300)
    tracemalloc.start()
    try:
        out = overlap.evaluate_half_turn(h, 4096)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert out.shape == (2048, 8, 8)
    assert peak <= 1.5 * out.nbytes


@pytest.mark.parametrize("m,n", [(0, 5), (2, 9), (7, 8), (10, 11), (11, 12)])
def test_closed_form_matches_oracle(m, n):
    assert overlap.ho_halfspace_overlap(m, n) == pytest.approx(
        overlap.overlap_quadrature_oracle(m, n), abs=1e-10
    )


def test_rotated_single_even_state():
    s = ho_slater([0], basis_size=4)
    o = overlap.rotated_overlap(s, 0.0)
    assert o == pytest.approx(np.array([[0.5 + 0j]]))


@pytest.mark.parametrize("n", [0, 1, 2, 3])
def test_rotated_single_basis_state_is_angle_independent(n):
    s = ho_slater([n], basis_size=6)
    for theta in (0.3, 1.1, 4.0):
        o = overlap.rotated_overlap(s, theta)
        assert o == pytest.approx(np.array([[0.5 + 0j]]), abs=1e-12)


def test_rotation_by_pi_swaps_subsystems():
    rng = np.random.default_rng(11)
    s = random_slater(rng, 3, 12)
    o0 = overlap.rotated_overlap(s, 0.0)
    opi = overlap.rotated_overlap(s, math.pi)
    assert np.max(np.abs(opi - (np.eye(3) - o0))) < 1e-12


def test_left_cut_complement():
    rng = np.random.default_rng(12)
    s = random_slater(rng, 4, 15)
    theta = 0.83
    right = overlap.rotated_overlap(s, theta)
    left = overlap.rotated_overlap(s, theta, side="left")
    assert np.max(np.abs(right + left - np.eye(4))) < 1e-9


def test_gram_bound_random_states():
    rng = np.random.default_rng(13)
    for _ in range(25):
        n = int(rng.integers(1, 7))
        m = int(rng.integers(n, 40))
        s = random_slater(rng, n, m)
        theta = float(rng.uniform(0, 2 * math.pi))
        evals = np.linalg.eigvalsh(overlap.rotated_overlap(s, theta))
        assert evals.min() > -1e-9
        assert evals.max() < 1 + 1e-9


def test_spectrum_periodicity_with_subsystem_swap():
    rng = np.random.default_rng(14)
    s = random_slater(rng, 3, 16)
    theta = 1.234
    mu_a = schmidt_values(overlap.rotated_overlap(s, theta))
    mu_b = schmidt_values(overlap.rotated_overlap(s, theta + math.pi))
    assert np.max(np.abs(np.sort(mu_a) - np.sort(1.0 - mu_b))) < 1e-8


def test_translated_limits():
    s = ho_slater([0, 1, 2])
    far = math.sqrt(4 * s.basis_size) + 10.0
    o_full = overlap.translated_overlap(s, -far)
    assert np.max(np.abs(o_full - np.eye(3))) < 1e-8
    o_empty = overlap.translated_overlap(s, far)
    assert np.max(np.abs(o_empty)) < 1e-8


def test_translated_offsets_beyond_the_window():
    # offsets at or below -X start the window at -X: -inf is the full line
    s = random_slater(np.random.default_rng(16), 3, 20)
    far = math.sqrt(4 * s.basis_size) + 10.0
    full = overlap.translated_overlap(s, -far)
    assert np.max(np.abs(full - np.eye(3))) < 1e-10
    for offset in (-math.inf, -far - 1.0, -1e300):
        assert overlap.translated_overlap(s, offset).tobytes() == full.tobytes()
    assert not np.any(overlap.translated_overlap(s, math.inf))
    with pytest.raises(ValueError, match="offset nan"):
        overlap.translated_overlap(s, math.nan)


def test_translated_at_origin_matches_rotation_zero():
    rng = np.random.default_rng(15)
    s = random_slater(rng, 3, 10)
    o_t = overlap.translated_overlap(s, 0.0)
    o_r = overlap.rotated_overlap(s, 0.0)
    assert np.max(np.abs(o_t - o_r)) < 1e-8


def test_translated_energies_shift_monotonically():
    # pushing the cut right strictly shrinks every Schmidt value
    s = ho_slater([0, 1])
    mus = [
        np.sort(schmidt_values(overlap.translated_overlap(s, t)))
        for t in (-1.0, 0.0, 1.0)
    ]
    assert np.all(mus[0] >= mus[1]) and np.all(mus[1] >= mus[2])


def test_clamp_rejects_large_excursion():
    with pytest.raises(overlap.GramBoundError):
        overlap.clamp_unit_interval(np.array([0.2, 1.1]))
    clamped = overlap.clamp_unit_interval(np.array([-1e-12, 1.0 + 1e-12]))
    assert clamped[0] == 0.0
    assert clamped[1] == 1.0


def test_clamp_rejects_nan():
    for values in ([math.nan, 0.5], [0.5, math.nan], [math.nan]):
        with pytest.raises(overlap.GramBoundError):
            overlap.clamp_unit_interval(np.array(values))


def test_entanglement_energy_of_first_pair():
    # the {phi_0, phi_1} position-cut spectrum is +-2.1855 (from mu = 1/2 +- O_01)
    s = ho_slater([0, 1])
    mu = schmidt_values(overlap.rotated_overlap(s, 0.0))
    eps = entanglement_energies(mu)
    o01 = 1.0 / math.sqrt(2.0 * math.pi)
    want = -math.log((0.5 + o01) / (0.5 - o01))
    assert eps == pytest.approx([want, -want], rel=1e-12)
