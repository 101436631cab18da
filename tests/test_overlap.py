import math

import numpy as np
import pytest

from helpers import random_slater
from psesk import overlap
from psesk.entanglement import entanglement_energies, schmidt_values
from psesk.states import ho_slater


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


@pytest.mark.parametrize("m,n", [(0, 5), (2, 9), (7, 8), (10, 11), (11, 12)])
def test_closed_form_matches_oracle(m, n):
    assert overlap.ho_halfspace_overlap(m, n) == pytest.approx(
        overlap.overlap_quadrature_oracle(m, n), abs=1e-10
    )


def test_rotated_single_even_state():
    s = ho_slater([0], basis_size=4)
    o = overlap.rotated_overlap(s, 0.0)
    assert o.entries == pytest.approx(np.array([[0.5 + 0j]]))
    assert o.cut == "rotation"


@pytest.mark.parametrize("n", [0, 1, 2, 3])
def test_rotated_single_basis_state_is_angle_independent(n):
    s = ho_slater([n], basis_size=6)
    for theta in (0.3, 1.1, 4.0):
        o = overlap.rotated_overlap(s, theta)
        assert o.entries == pytest.approx(np.array([[0.5 + 0j]]), abs=1e-12)


def test_rotation_by_pi_swaps_subsystems():
    rng = np.random.default_rng(11)
    s = random_slater(rng, 3, 12)
    o0 = overlap.rotated_overlap(s, 0.0).entries
    opi = overlap.rotated_overlap(s, math.pi).entries
    assert np.max(np.abs(opi - (np.eye(3) - o0))) < 1e-12


def test_left_cut_complement():
    rng = np.random.default_rng(12)
    s = random_slater(rng, 4, 15)
    theta = 0.83
    right = overlap.rotated_overlap(s, theta).entries
    left = overlap.rotated_overlap(s, theta, side="left").entries
    assert np.max(np.abs(right + left - np.eye(4))) < 1e-9


def test_gram_bound_random_states():
    rng = np.random.default_rng(13)
    for _ in range(25):
        n = int(rng.integers(1, 7))
        m = int(rng.integers(n, 40))
        s = random_slater(rng, n, m)
        theta = float(rng.uniform(0, 2 * math.pi))
        evals = np.linalg.eigvalsh(overlap.rotated_overlap(s, theta).entries)
        assert evals.min() > -1e-9
        assert evals.max() < 1 + 1e-9


def test_spectrum_periodicity_with_subsystem_swap():
    rng = np.random.default_rng(14)
    s = random_slater(rng, 3, 16)
    theta = 1.234
    mu_a = schmidt_values(overlap.rotated_overlap(s, theta)).mu
    mu_b = schmidt_values(overlap.rotated_overlap(s, theta + math.pi)).mu
    assert np.max(np.abs(np.sort(mu_a) - np.sort(1.0 - mu_b))) < 1e-8


def test_translated_limits():
    s = ho_slater([0, 1, 2])
    far = math.sqrt(4 * s.basis_size) + 10.0
    o_full = overlap.translated_overlap(s, -far).entries
    assert np.max(np.abs(o_full - np.eye(3))) < 1e-8
    o_empty = overlap.translated_overlap(s, far).entries
    assert np.max(np.abs(o_empty)) < 1e-8


def test_translated_at_origin_matches_rotation_zero():
    rng = np.random.default_rng(15)
    s = random_slater(rng, 3, 10)
    o_t = overlap.translated_overlap(s, 0.0).entries
    o_r = overlap.rotated_overlap(s, 0.0).entries
    assert np.max(np.abs(o_t - o_r)) < 1e-8


def test_translated_energies_shift_monotonically():
    # pushing the cut right strictly shrinks every Schmidt value
    s = ho_slater([0, 1])
    mus = [
        np.sort(schmidt_values(overlap.translated_overlap(s, t)).mu)
        for t in (-1.0, 0.0, 1.0)
    ]
    assert np.all(mus[0] >= mus[1]) and np.all(mus[1] >= mus[2])


def test_clamp_rejects_large_excursion():
    with pytest.raises(overlap.GramBoundError):
        overlap.clamp_unit_interval(np.array([0.2, 1.1]))
    clamped = overlap.clamp_unit_interval(np.array([-1e-12, 1.0 + 1e-12]))
    assert clamped[0] == 0.0
    assert clamped[1] == 1.0


def test_entanglement_energy_of_first_pair():
    # the {phi_0, phi_1} position-cut spectrum is +-2.1855 (from mu = 1/2 +- O_01)
    s = ho_slater([0, 1])
    mu = schmidt_values(overlap.rotated_overlap(s, 0.0))
    eps = entanglement_energies(mu)
    o01 = 1.0 / math.sqrt(2.0 * math.pi)
    want = -math.log((0.5 + o01) / (0.5 - o01))
    assert eps == pytest.approx([want, -want], rel=1e-12)
