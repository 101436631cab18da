import math

import numpy as np
import pytest

from helpers import random_slater, random_symmetric_slater
from psesk import entanglement as ent
from psesk import overlap
from psesk.chiral import detect_gap_closings, parity_sort
from psesk.states import ho_slater, interpolated_state

O01 = 1.0 / math.sqrt(2.0 * math.pi)
MU_PLUS = 0.5 + O01
EPS_PAIR = -math.log(MU_PLUS / (1.0 - MU_PLUS))  # -2.185526...


def two_level_overlap(theta):
    m = O01 * np.exp(1j * theta)
    return np.array([[0.5, m], [np.conj(m), 0.5]])


def test_schmidt_scalar_and_identity():
    assert ent.schmidt_values(np.array([[0.5]])).mu == pytest.approx([0.5])
    assert ent.schmidt_values(np.eye(3)).mu == pytest.approx([1.0, 1.0, 1.0])


def test_schmidt_two_level_closed_form():
    mu = ent.schmidt_values(two_level_overlap(0.77)).mu
    assert mu == pytest.approx([0.5 + O01, 0.5 - O01], rel=1e-12)


def test_schmidt_rejects_non_hermitian():
    with pytest.raises(ent.NonHermitian):
        ent.schmidt_values(np.array([[0.5, 0.1], [0.3, 0.5]]))


def test_energies_map_and_sentinels():
    eps = ent.entanglement_energies(np.array([1.0, MU_PLUS, 0.5, 0.0]))
    assert eps[0] == -math.inf
    assert eps[1] == pytest.approx(EPS_PAIR, rel=1e-12)
    assert eps[2] == 0.0
    assert eps[3] == math.inf


def test_energies_ascend_for_descending_mu():
    mu = ent.schmidt_values(two_level_overlap(0.2))
    eps = ent.entanglement_energies(mu)
    assert eps[0] < eps[1]
    assert eps == pytest.approx([EPS_PAIR, -EPS_PAIR], rel=1e-12)


def test_hamiltonian_zero_for_half_identity():
    h = ent.entanglement_hamiltonian(0.5 * np.eye(4))
    assert np.max(np.abs(h)) < 1e-12


def test_hamiltonian_two_level_spectrum():
    h = ent.entanglement_hamiltonian(two_level_overlap(1.3))
    evals = np.linalg.eigvalsh(h)
    assert evals == pytest.approx([EPS_PAIR, -EPS_PAIR], rel=1e-10)


def test_hamiltonian_spectrum_equals_energy_multiset():
    rng = np.random.default_rng(21)
    s = random_slater(rng, 4, 14)
    o = overlap.rotated_overlap(s, 0.9)
    h_spec = np.sort(np.linalg.eigvalsh(ent.entanglement_hamiltonian(o)))
    eps = np.sort(ent.entanglement_energies(ent.schmidt_values(o)))
    assert np.max(np.abs(h_spec - eps)) < 1e-9


def test_hamiltonian_rejects_singular():
    with pytest.raises(ent.SingularOverlap):
        ent.entanglement_hamiltonian(np.diag([1.0, 0.5]))


def test_entropy_extremes_and_pair_value():
    assert ent.entanglement_entropy(np.array([0.5, 0.5])) == pytest.approx(
        2.0 * math.log(2.0), rel=1e-14
    )
    assert ent.entanglement_entropy(np.array([1.0, 0.0])) == 0.0
    # binary entropy at the (0,1)-overlap splitting, both modes
    h = -(MU_PLUS * math.log(MU_PLUS) + (1 - MU_PLUS) * math.log(1 - MU_PLUS))
    got = ent.entanglement_entropy(np.array([MU_PLUS, 1.0 - MU_PLUS]))
    assert got == pytest.approx(2.0 * h, rel=1e-12)
    assert got == pytest.approx(0.65480165, abs=1e-7)


def test_entropy_invariant_under_orbital_rotation():
    rng = np.random.default_rng(22)
    s = random_slater(rng, 3, 12)
    g = rng.normal(size=(3, 3)) + 1j * rng.normal(size=(3, 3))
    u, _ = np.linalg.qr(g)
    s_rot = s.rotate(u)
    theta = 0.7
    s_a = ent.entanglement_entropy(ent.schmidt_values(overlap.rotated_overlap(s, theta)))
    s_b = ent.entanglement_entropy(ent.schmidt_values(overlap.rotated_overlap(s_rot, theta)))
    assert s_a == pytest.approx(s_b, abs=1e-9)


def test_subsystem_swap_negates_energies():
    rng = np.random.default_rng(23)
    s = random_slater(rng, 4, 16)
    theta = 1.9
    eps_a = ent.entanglement_energies(ent.schmidt_values(overlap.rotated_overlap(s, theta)))
    eps_b = ent.entanglement_energies(
        ent.schmidt_values(overlap.rotated_overlap(s, theta, side="left"))
    )
    assert np.max(np.abs(np.sort(eps_a) + np.sort(eps_b)[::-1])) < 1e-9


def test_sweep_single_even_state_is_flat_zero():
    data = ent.pses_sweep(ho_slater([0], basis_size=4), np.linspace(0, 2 * math.pi, 32))
    assert np.max(np.abs(data.energies)) < 1e-12
    assert np.max(np.abs(data.entropy - math.log(2.0))) < 1e-12


def test_sweep_pair_gives_symmetric_flat_bands():
    thetas = np.linspace(0, 2 * math.pi, 48, endpoint=False)
    data = ent.pses_sweep(ho_slater([0, 1]), thetas)
    assert np.max(np.abs(data.energies[:, 0] - EPS_PAIR)) < 1e-10
    assert np.max(np.abs(data.energies[:, 1] + EPS_PAIR)) < 1e-10
    assert np.max(np.abs(data.gap - abs(EPS_PAIR))) < 1e-10


def test_sweep_gap_closes_at_critical_interpolation():
    t_crit = (2.0 / math.pi) * math.atan(math.sqrt(2.0))
    phi = 2.0 * math.pi / 3.0
    state = interpolated_state(t_crit, phi)
    theta_star = (math.pi + phi) / 2.0
    data = ent.pses_sweep(state, np.array([theta_star]))
    assert data.gap[0] < 1e-8
    assert data.entropy[0] == pytest.approx(2.0 * math.log(2.0), abs=1e-10)


def test_entropy_bound_from_detected_closings():
    # one crossing detected -> max entropy reaches 2 ln 2 (evaluated at the
    # refined closing angle, where the two modes split evenly)
    t_crit = (2.0 / math.pi) * math.atan(math.sqrt(2.0))
    phi = 2.0 * math.pi / 3.0
    state = interpolated_state(t_crit, phi)
    ps = parity_sort(state)
    closings = detect_gap_closings(ps)
    assert len(closings) == 1
    thetas = np.concatenate([np.linspace(0, 2 * math.pi, 64, endpoint=False), closings])
    data = ent.pses_sweep(state, thetas)
    assert np.max(data.entropy) >= 2.0 * math.log(2.0) * len(closings) - 1e-6


def test_dataset_entropy_bounds():
    rng = np.random.default_rng(24)
    s = random_symmetric_slater(rng, 2, 2, 12)
    data = ent.pses_sweep(s, np.linspace(0, 2 * math.pi, 16, endpoint=False))
    assert np.all(data.entropy >= 0.0)
    assert np.all(data.entropy <= 4 * math.log(2.0) * (1 + 1e-9))
