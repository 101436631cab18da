import functools
import math
import tracemalloc

import numpy as np
import pytest

from helpers import (mixed_well_filling, random_slater, random_symmetric_slater,
                     random_unitary_rows)
from psesk import chiral
from psesk import entanglement as ent
from psesk import overlap
from psesk.chiral import detect_gap_closings, parity_sort
from psesk.potentials import bound_states, potential
from psesk.states import SlaterState, ho_slater, interpolated_state

O01 = 1.0 / math.sqrt(2.0 * math.pi)
MU_PLUS = 0.5 + O01
EPS_PAIR = -math.log(MU_PLUS / (1.0 - MU_PLUS))  # -2.185526...


def two_level_overlap(theta):
    m = O01 * np.exp(1j * theta)
    return np.array([[0.5, m], [np.conj(m), 0.5]])


def test_schmidt_scalar_and_identity():
    assert ent.schmidt_values(np.array([[0.5]])) == pytest.approx([0.5])
    assert ent.schmidt_values(np.eye(3)) == pytest.approx([1.0, 1.0, 1.0])


def test_schmidt_two_level_closed_form():
    mu = ent.schmidt_values(two_level_overlap(0.77))
    assert mu == pytest.approx([0.5 + O01, 0.5 - O01], rel=1e-12)


def test_schmidt_rejects_non_hermitian():
    with pytest.raises(ent.NonHermitian):
        ent.schmidt_values(np.array([[0.5, 0.1], [0.3, 0.5]]))


def test_schmidt_stack_matches_slices_and_keeps_guards():
    stack = np.array([two_level_overlap(t) for t in (0.1, 0.9, 2.3)])
    mu = ent.schmidt_values(stack)
    assert mu.shape == (3, 2)
    for got, o in zip(mu, stack):
        assert np.array_equal(got, ent.schmidt_values(o))
    skewed = stack.copy()
    skewed[1, 0, 1] += 1e-6
    with pytest.raises(ent.NonHermitian):
        ent.schmidt_values(skewed)
    beyond = np.array([np.eye(2), np.diag([1.0 + 1e-6, 0.5])], dtype=complex)
    with pytest.raises(overlap.GramBoundError):
        ent.schmidt_values(beyond)


@pytest.mark.parametrize("defect, refused", [(1e-9, True), (1e-11, False)])
def test_the_hermiticity_tolerance_decides_the_check(defect, refused):
    # |O - O^H| of 10 and 0.1 times HERMITICITY_TOL = 1e-10: the first is
    # refused, the second symmetrised away
    o = two_level_overlap(0.4)
    o[0, 1] += defect
    if refused:
        with pytest.raises(ent.NonHermitian):
            ent.schmidt_values(o)
    else:
        assert ent.schmidt_values(o) == pytest.approx([MU_PLUS, 1.0 - MU_PLUS], abs=1e-10)


def test_hermitian_check_is_blocked_and_bitwise_unchanged():
    # the copy is checked and symmetrised in place: no stack-sized temporaries
    state = ho_slater([0, 1])
    thetas = np.linspace(0.0, 2.0 * math.pi, 2**16, endpoint=False)
    stack = overlap.evaluate_gramians(state.coeffs, state.coeffs, thetas)
    tracemalloc.start()
    try:
        got = ent._hermitian(stack)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1.25 * stack.nbytes
    want = 0.5 * (stack + stack.conj().swapaxes(-1, -2))
    assert got.tobytes() == want.tobytes()


def test_energies_map_and_sentinels():
    eps = ent.entanglement_energies(np.array([1.0, MU_PLUS, 0.5, 0.0]))
    assert eps[0] == -math.inf
    assert eps[1] == pytest.approx(EPS_PAIR, rel=1e-12)
    assert eps[2] == 0.0
    assert eps[3] == math.inf


def test_energies_of_nan_are_nan():
    eps = ent.entanglement_energies(np.array([math.nan, 0.5, math.nan, 1.0, 0.0]))
    assert np.isnan(eps[[0, 2]]).all()
    assert eps[1] == 0.0 and not np.signbit(eps[1])
    assert list(eps[3:]) == [-math.inf, math.inf]


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
    s_rot = SlaterState(u @ s.coeffs)
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
        ent.schmidt_values(overlap.rotated_overlap(s, theta + math.pi))  # the left cut
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


# ------------------------------------------------- uniform sweeps by half turn

def _uniform(k):
    return np.linspace(0.0, 2.0 * math.pi, k, endpoint=False)


def _per_angle(state, thetas):
    """The sweep's numbers angle by angle: the oracle of the half-turn path."""
    mu = ent.schmidt_values(overlap.evaluate_gramians(state.coeffs, state.coeffs, thetas))
    return mu, ent.entanglement_energies(mu), ent.entanglement_entropy(mu)


def _general_sweep(state, k):
    """The half-turn route of the general path, mu of the N x N Gramians and
    the subsystem swap, called directly (pses_sweep takes the chiral path
    for an inversion-symmetric state)."""
    mu = ent.schmidt_values(overlap.evaluate_half_turn(state.coeffs, state.coeffs, k))
    half = ent.entanglement_energies(mu)
    return np.concatenate((half, -half[:, ::-1])), np.tile(ent.entanglement_entropy(mu), 2)


def _symmetric(state):
    try:
        parity_sort(state)
    except chiral.NotInversionSymmetric:
        return False
    return True


# the four symmetric wells at N = 7, a random state at M = 1000, high
# oscillator levels, and the asymmetric Rosen-Morse well at N = 7
SWEEP_STATES = ("sho", "anharmonic", "double_well", "poschl_teller", "random-1000", "ho-900")


@functools.cache
def sweep_state(name):
    if name == "random-1000":
        return random_slater(np.random.default_rng(25), 8, 1000)
    if name == "ho-900":
        return ho_slater(list(range(900, 920)))
    return bound_states(potential(name), 7, basis_size=100).as_slater()


@pytest.mark.parametrize("k", [16, 256, 4096])
@pytest.mark.parametrize("name", SWEEP_STATES)
def test_uniform_sweep_matches_per_angle_oracle(name, k):
    state = sweep_state(name)
    if name == "random-1000":
        assert not _symmetric(state)
        data = ent.pses_sweep(state, _uniform(k))
        energies, swept_entropy = data.energies, data.entropy
    else:
        energies, swept_entropy = _general_sweep(state, k)
    mu, _, entropy = _per_angle(state, _uniform(k))
    with np.errstate(over="ignore"):
        mu_swept = 1.0 / (1.0 + np.exp(energies))
    assert np.max(np.abs(mu_swept - mu)) < 1e-13
    assert np.max(np.abs(swept_entropy - entropy)) < 1e-12


@pytest.mark.parametrize("name", ["double_well", "random-1000"])
def test_uniform_sweep_second_half_is_the_swap_bitwise(name):
    k = 64
    data = ent.pses_sweep(sweep_state(name), _uniform(k))
    assert np.array_equal(data.thetas, _uniform(k))
    assert np.array_equal(data.energies[k // 2 :], -data.energies[: k // 2, ::-1])
    assert np.array_equal(data.entropy[k // 2 :], data.entropy[: k // 2])
    assert np.array_equal(data.gap[k // 2 :], data.gap[: k // 2])


@pytest.mark.parametrize("grid", [
    "endpoint", "odd", "shifted", "random", "reversed-list", "one-ulp"])
def test_other_grids_take_the_per_angle_path_bitwise(grid):
    state = sweep_state("rosen_morse")
    assert not _symmetric(state)
    thetas = _other_grid(grid)
    data = ent.pses_sweep(state, thetas)
    _, energies, entropy = _per_angle(state, np.asarray(thetas))
    assert np.array_equal(data.energies, energies)
    assert np.array_equal(data.entropy, entropy)


@pytest.mark.parametrize("grid", [
    "endpoint", "odd", "shifted", "random", "reversed-list", "one-ulp"])
def test_other_grids_take_the_chiral_path_angle_by_angle_bitwise(grid, monkeypatch):
    state = sweep_state("double_well")
    ps = parity_sort(state)
    assert (ps.n_even, ps.n_odd) == (4, 3)
    thetas = _other_grid(grid)
    sigma = np.linalg.svd(overlap.evaluate_gramians(*ps.sectors, thetas), compute_uv=False)
    mu = overlap.clamp_unit_interval(np.concatenate(
        (0.5 + sigma, np.full((len(sigma), 1), 0.5), 0.5 - sigma[:, ::-1]), axis=1))
    monkeypatch.setattr(ent, "evaluate_half_turn", _refused)
    data = ent.pses_sweep(state, thetas)
    assert np.array_equal(data.energies, ent.entanglement_energies(mu))
    assert np.array_equal(data.entropy, ent.entanglement_entropy(mu))


def _refused(*args, **kwargs):
    raise AssertionError("this grid takes another route")


def _other_grid(grid):
    return {
        "endpoint": np.linspace(0.0, 2.0 * math.pi, 64),
        "odd": np.linspace(0.0, 2.0 * math.pi, 63, endpoint=False),
        "shifted": _uniform(64) + 0.1,
        "random": np.random.default_rng(26).uniform(0.0, 2.0 * math.pi, 64),
        "reversed-list": list(_uniform(64)[::-1]),
        "one-ulp": np.where(np.arange(64) == 5, np.nextafter(_uniform(64), 7.0), _uniform(64)),
    }[grid]


@pytest.mark.parametrize("thetas", [np.zeros((2, 2)), [math.nan, 0.2], [0.1, -math.inf], 0.3])
@pytest.mark.parametrize("name", ["chiral", "general"])
def test_sweep_rejects_grids_that_are_not_finite_angles(name, thetas):
    state = ho_slater([0, 1]) if name == "chiral" else sweep_state("rosen_morse")
    assert _symmetric(state) == (name == "chiral")
    with pytest.raises(ValueError, match="1-D array of finite angles"):
        ent.pses_sweep(state, thetas)


def test_uniform_sweep_left_row_blocks_match(monkeypatch):
    state = sweep_state("random-1000")
    monkeypatch.setattr(overlap, "HARMONIC_BYTES", 1)
    assert overlap._harmonic_rows(state.n_particles, state.basis_size) == 1
    blocked = ent.pses_sweep(state, _uniform(256))
    mu, _, entropy = _per_angle(state, _uniform(256))
    with np.errstate(over="ignore"):
        assert np.max(np.abs(1.0 / (1.0 + np.exp(blocked.energies)) - mu)) < 1e-13
    assert np.max(np.abs(blocked.entropy - entropy)) < 1e-12


@pytest.mark.parametrize("name", ["random-1000", "ho-900-919"])
def test_chiral_sweep_without_kept_harmonics(name, monkeypatch):
    # one left row per block of harmonics: every sweep builds them in row blocks
    state = SlaterState(_chiral_oracle_states()[name].coeffs.copy())
    monkeypatch.setattr(overlap, "HARMONIC_BYTES", 1)
    assert overlap._harmonic_rows(parity_sort(state).n_odd, state.basis_size) == 1
    for thetas in (_uniform(256), _uniform(64) + 0.1):
        data = ent.pses_sweep(state, thetas)
        mu, _, entropy = _per_angle(state, thetas)
        with np.errstate(over="ignore"):
            assert np.max(np.abs(1.0 / (1.0 + np.exp(data.energies)) - mu)) < 1e-12
        assert np.max(np.abs(data.entropy - entropy)) < 1e-12


def test_uniform_sweep_solves_half_a_turn(monkeypatch):
    # a complex span solves the first half turn, a real one its first quarter
    shapes = []
    schmidt = ent.schmidt_values

    def recorded(o):
        shapes.append(np.shape(o))
        return schmidt(o)

    monkeypatch.setattr(ent, "schmidt_values", recorded)
    monkeypatch.setattr(ent, "evaluate_gramians", _refused)
    monkeypatch.setattr(overlap, "evaluate_gramians", _refused)
    for name, angles in (("random-1000", 128), ("rosen_morse", 65)):
        state = sweep_state(name)
        assert not _symmetric(state)
        shapes.clear()
        data = ent.pses_sweep(state, _uniform(256))
        assert shapes == [(angles, state.n_particles, state.n_particles)], name
        assert data.energies.shape == (256, state.n_particles)
        with pytest.raises(AssertionError):
            ent.pses_sweep(state, _uniform(256) + 0.1)


def test_uniform_chiral_sweep_takes_one_svd_over_half_a_turn(monkeypatch):
    # a complex span's blocks over the first half turn, a real one's over its first quarter
    shapes = []
    svd = np.linalg.svd

    def recorded(a, *args, **kwargs):
        shapes.append(np.shape(a))
        return svd(a, *args, **kwargs)

    monkeypatch.setattr(ent, "schmidt_values", _refused)
    monkeypatch.setattr(ent, "evaluate_gramians", _refused)
    monkeypatch.setattr(overlap, "evaluate_gramians", _refused)
    for state, angles in ((random_symmetric_slater(np.random.default_rng(34), 4, 3, 100), 128),
                          (sweep_state("poschl_teller"), 65)):
        parity_sort(state)  # the sort's own SVDs; the sweep then reuses the remembered sort
        shapes.clear()
        with monkeypatch.context() as spy:
            spy.setattr(np.linalg, "svd", recorded)
            data = ent.pses_sweep(state, _uniform(256))
        assert shapes == [(angles, 4, 3)]
        assert data.energies.shape == (256, 7)
        with pytest.raises(AssertionError):
            ent.pses_sweep(state, _uniform(256) + 0.1)


# ------------------------------------ the quarter turn of conjugation-closed spans

def _real_rows(rng, n, m):
    return np.linalg.qr(rng.normal(size=(m, n)))[0].T


def _real_span_states():
    """States whose span is closed under conjugation, each mixed by a complex unitary."""
    rng = np.random.default_rng(35)
    return {
        "oscillator-0-5": SlaterState(random_unitary_rows(rng, 6, 6)
                                      @ ho_slater(range(6), basis_size=100).coeffs),
        "rosen_morse": sweep_state("rosen_morse"),
        "random-real": SlaterState(random_unitary_rows(rng, 5, 5) @ _real_rows(rng, 5, 100)),
    }


def _complex_span_states():
    return {"interpolated": interpolated_state(0.3, 1.0),
            "random-complex": random_slater(np.random.default_rng(36), 5, 100)}


def _solved_angles(state, thetas, monkeypatch, path=None):
    """(the sweep, the number of angles whose mu it solved); ``path``
    "general" sends a symmetric state down the general path, and "chiral"
    sends a filling of oscillator levels down the chiral path of every
    other symmetric state."""
    solved = []
    energies = ent.entanglement_energies
    with monkeypatch.context() as spy:
        spy.setattr(ent, "entanglement_energies", lambda mu: solved.append(len(mu)) or energies(mu))
        if path == "general":
            spy.setattr(ent, "parity_sort", _not_symmetric)
        if path == "chiral":  # a fresh sort, not the remembered one
            spy.setattr(chiral, "_filled_levels", lambda coeffs: None)
            spy.setattr(ent, "parity_sort", chiral._sort_by_parity)
        data = ent.pses_sweep(state, thetas)
    return data, solved[0]


def _not_symmetric(state):
    raise chiral.NotInversionSymmetric("the general path")


def _assert_matches_per_angle(data, state, thetas):
    mu, _, entropy = _per_angle(state, thetas)
    with np.errstate(over="ignore"):
        assert np.max(np.abs(1.0 / (1.0 + np.exp(data.energies)) - mu)) < 1e-12
    assert np.max(np.abs(data.entropy - entropy)) < 1e-12


def _assert_even_in_theta(data):
    k = len(data.thetas)
    assert np.array_equal(data.energies[:0:-1], data.energies[1:])  # angle K - j is angle j
    assert np.array_equal(data.entropy[:0:-1], data.entropy[1:])
    assert np.array_equal(data.energies[k // 2 :], 0.0 - data.energies[: k // 2, ::-1])


# K = 2 solves one angle, 4 two and averages pi/2, 6 mirrors one; 70 = 2 mod 4;
# 1024 does not divide 2G = 512
@pytest.mark.parametrize("k", [2, 4, 6, 16, 70, 256, 1024])
@pytest.mark.parametrize("name, path", [("oscillator-0-5", "chiral"), ("oscillator-0-5", "general"),
                                        ("rosen_morse", "general"), ("random-real", "general")])
def test_real_spans_solve_a_quarter_turn_and_mirror_it(name, path, k, monkeypatch):
    # the filling's own sweep is one row (test_fillings_sweep_one_row_...);
    # here its span takes the quarter turn of either path
    state = _real_span_states()[name]
    assert _symmetric(state) == (name == "oscillator-0-5")
    assert ent._closed_under_conjugation(state.coeffs)
    data, solved = _solved_angles(state, _uniform(k), monkeypatch, path)
    assert solved == k // 4 + 1
    _assert_matches_per_angle(data, state, _uniform(k))
    _assert_even_in_theta(data)


@pytest.mark.parametrize("k", [2, 4, 6, 16, 70, 256])
@pytest.mark.parametrize("name", ["interpolated", "random-complex"])
def test_complex_spans_solve_the_whole_half_turn(name, k, monkeypatch):
    state = _complex_span_states()[name]
    assert not ent._closed_under_conjugation(state.coeffs)
    data, solved = _solved_angles(state, _uniform(k), monkeypatch)
    assert solved == k // 2
    _assert_matches_per_angle(data, state, _uniform(k))
    # the spectrum at -theta is not the one at theta, except at multiples of
    # pi/2 (all of K <= 4), where -theta is theta or theta + pi
    if k > 4:
        assert np.max(np.abs(data.entropy[:0:-1] - data.entropy[1:])) > 1e-6


@pytest.mark.parametrize("state", [ho_slater([0, 1, 2, 3]), ho_slater([0, 1, 2])],
                         ids=["chiral", "flat-band"])
def test_an_empty_grid_sweeps_to_empty_arrays(state):
    data = ent.pses_sweep(state, [])
    assert data.energies.shape == (0, state.n_particles)
    assert data.entropy.shape == data.gap.shape == (0,)


def test_other_grids_solve_every_angle_of_a_real_span(monkeypatch):
    state = sweep_state("double_well")  # a real span on the chiral path
    assert _symmetric(state) and ent._closed_under_conjugation(state.coeffs)
    thetas = np.random.default_rng(37).uniform(0.0, 2.0 * math.pi, 40)
    data, solved = _solved_angles(state, thetas, monkeypatch)
    assert solved == 40
    _assert_matches_per_angle(data, state, thetas)


@pytest.mark.parametrize("size, angles", [(1e-9, 128), (1e-15, 65)])
def test_the_span_tolerance_sets_the_turn(size, angles, monkeypatch):
    # a complex part of 1e-9 leaves a residual far above SPAN_TOL, one of
    # 1e-15 a residual of roundoff
    rng = np.random.default_rng(38)
    rows = _real_rows(rng, 5, 100) + 1j * size * rng.normal(size=(5, 100))
    state = SlaterState(np.linalg.qr(rows.T)[0].T)
    data, solved = _solved_angles(state, _uniform(256), monkeypatch)
    assert solved == angles
    _assert_matches_per_angle(data, state, _uniform(256))


def test_the_sweep_reads_the_held_base_grid_when_k_divides_it(monkeypatch):
    # K = 256 and 16 are every 2nd and 32nd angle of the 2G = 512 grid of
    # M = 100; K = 1024 evaluates its own half turn
    state = mixed_well_filling(np.random.default_rng(39), "double_well", 3, 3)
    calls = []
    for module in (chiral, ent):
        half_turn = module.evaluate_half_turn
        monkeypatch.setattr(module, "evaluate_half_turn",
                            lambda left, right, count, half_turn=half_turn:
                            calls.append(count) or half_turn(left, right, count))
    ps = parity_sort(state)
    for k in (256, 16):
        data = ent.pses_sweep(state, _uniform(k))
        _assert_matches_per_angle(data, state, _uniform(k))
    assert chiral.winding_scan(ps)[0] == 3
    assert calls == [512]
    assert not ps.grid_blocks.flags.writeable
    ent.pses_sweep(state, _uniform(1024))
    assert calls == [512, 1024]


# ------------------------------------------ the chiral path against the general one

def _chiral_oracle_states():
    rng = np.random.default_rng(27)
    states = {f"{kind}-{n}": bound_states(potential(kind), n, basis_size=100).as_slater()
              for kind in ("sho", "anharmonic", "double_well", "poschl_teller")
              for n in (6, 7, 8)}
    for m, n_even, n_odd in ((3, 2, 1), (10, 2, 3), (100, 4, 4), (400, 6, 3), (1000, 3, 3)):
        states[f"random-{m}"] = random_symmetric_slater(rng, n_even, n_odd, m)
    states["ho-900-919"] = ho_slater(list(range(900, 920)))
    return states


def test_chiral_sweep_matches_the_general_eigensolve():
    # criterion 3 holds on the chiral path by construction; this is its oracle:
    # the N x N Gramians of evaluate_gramians and their eigenvalues, angle by angle
    rng = np.random.default_rng(28)
    grids = (_uniform(64), rng.uniform(0.0, 2.0 * math.pi, 16))
    for name, state in _chiral_oracle_states().items():
        assert _symmetric(state), name
        for thetas in grids:
            data = ent.pses_sweep(state, thetas)
            mu, energies, entropy = _per_angle(state, thetas)
            with np.errstate(over="ignore"):
                mu_swept = 1.0 / (1.0 + np.exp(data.energies))
            assert np.max(np.abs(mu_swept - mu)) < 1e-12, name
            assert np.max(np.abs(data.entropy - entropy)) < 1e-12, name
            moderate = np.abs(energies) < 10.0
            assert np.max(np.abs(data.energies - energies)[moderate]) < 1e-9, name


def _unbalanced_well_states():
    rng = np.random.default_rng(29)
    states = {f"{kind}-{n_even}-{n_odd}": (mixed_well_filling(rng, kind, n_even, n_odd),
                                           abs(n_even - n_odd))
              for kind, n_even, n_odd in (("sho", 3, 1), ("anharmonic", 1, 4),
                                          ("double_well", 6, 2), ("poschl_teller", 2, 4))}
    states["ho-0-1-2"] = (ho_slater([0, 1, 2]), 1)
    return states


@pytest.mark.parametrize("thetas", [_uniform(256), np.linspace(0.0, 2.0 * math.pi, 33)],
                         ids=["uniform", "other"])
def test_flat_bands_are_exactly_zero_at_every_angle(thetas):
    for name, (state, flat) in _unbalanced_well_states().items():
        data = ent.pses_sweep(state, thetas)
        assert np.all(np.sum(data.energies == 0.0, axis=1) == flat), name
        assert not np.any(np.signbit(data.energies[data.energies == 0.0])), name  # 0.0, not -0.0
        assert np.all(data.gap == 0.0), name


@pytest.mark.parametrize("thetas", [_uniform(256), np.linspace(0.0, 2.0 * math.pi, 33)],
                         ids=["uniform", "other"])
@pytest.mark.parametrize("indices", [[0], [0, 2, 4], [1, 3]])
def test_one_sector_states_sweep_to_zero_energies(indices, thetas):
    data = ent.pses_sweep(ho_slater(indices), thetas)  # no EmptyBlock
    assert data.energies.shape == (len(thetas), len(indices))
    assert np.all(data.energies == 0.0) and not np.any(np.signbit(data.energies))
    assert np.all(data.entropy == len(indices) * math.log(2.0))


@pytest.mark.parametrize("indices", [[0, 1], [0, 1, 2, 3]])
@pytest.mark.parametrize("grid", ["uniform", "other"])
def test_paired_schmidt_values_keep_the_gram_bound(indices, grid, monkeypatch):
    # sigma = 1/2 + 1e-6 puts mu = 1 + 1e-6 beyond the clamp's slack; each
    # level is spread with the level 2N above it, so the span is no filling
    n = len(indices) // 2
    rows = np.zeros((2 * n, 8 * n), dtype=complex)
    for row, level in enumerate(indices):
        rows[row, [level, level + 4 * n]] = math.sqrt(0.5)
    state = SlaterState(rows)
    assert parity_sort(state).levels is None

    def escaping(left, right, arg):
        angles = arg // 2 if grid == "uniform" else len(arg)
        blocks = np.zeros((angles, n, n), dtype=complex)
        blocks[:, 0, 0] = 0.5 + 1e-6
        return blocks

    if grid == "uniform":  # the sweep reads the blocks of the state's held base grid
        monkeypatch.setattr(chiral, "evaluate_half_turn", escaping)
    else:
        monkeypatch.setattr(ent, "evaluate_gramians", escaping)
    thetas = _uniform(16) if grid == "uniform" else _uniform(16) + 0.1
    with pytest.raises(overlap.GramBoundError):
        ent.pses_sweep(state, thetas)


def test_single_pair_blocks_take_no_svd(monkeypatch):
    # one row or one column: sigma is its norm
    for state in (interpolated_state(0.3, 1.0), ho_slater([0, 1, 2]), ho_slater([1, 2, 4, 6])):
        ps = parity_sort(state)  # the sort's own SVDs; the sweeps then reuse the remembered sort
        assert min(ps.n_even, ps.n_odd) == 1
        for thetas in (_uniform(64), _uniform(64) + 0.1):
            with monkeypatch.context() as spy:
                spy.setattr(np.linalg, "svd", _refused)
                data = ent.pses_sweep(state, thetas)
            mu, _, entropy = _per_angle(state, thetas)
            with np.errstate(over="ignore"):
                assert np.max(np.abs(1.0 / (1.0 + np.exp(data.energies)) - mu)) < 1e-12
            assert np.max(np.abs(data.entropy - entropy)) < 1e-12


# ------------------------------------------- fillings of oscillator levels: one row

def _filling(levels, basis_size, seed):
    """ho_slater(levels) mixed by a complex unitary."""
    rows = ho_slater(levels, basis_size).coeffs
    n = len(rows)
    return SlaterState(random_unitary_rows(np.random.default_rng(seed), n, n) @ rows)


FILLINGS = {"0-5": ([0, 1, 2, 3, 4, 5], 100), "0-1-2-4-6": ([0, 1, 2, 4, 6], 100),
            "groups": ([0, 2, 1001, 1003], 1004), "spread": ([13, 99, 197, 270, 388, 506], 507)}


def _oracle(state, thetas):
    """mu and entropy from the N x N Gramian of the mixed rows, angle by angle."""
    mu = np.array([ent.schmidt_values(overlap.rotated_overlap(state, t)) for t in thetas])
    return mu, ent.entanglement_entropy(mu)


@pytest.mark.parametrize("grid", ["16", "70", "256", "random"])
@pytest.mark.parametrize("name", FILLINGS)
def test_fillings_sweep_one_row_that_matches_the_per_angle_oracle(name, grid, monkeypatch):
    state = _filling(*FILLINGS[name], seed=40)
    assert parity_sort(state).levels is not None
    thetas = (np.random.default_rng(41).uniform(0.0, 2.0 * math.pi, 24) if grid == "random"
              else _uniform(int(grid)))
    data, solved = _solved_angles(state, thetas, monkeypatch)
    assert solved == 1
    mu, entropy = _oracle(state, thetas)
    with np.errstate(over="ignore"):
        assert np.max(np.abs(1.0 / (1.0 + np.exp(data.energies)) - mu)) < 1e-12
    assert np.max(np.abs(data.entropy - entropy)) < 1e-12
    # every row is the one row, bitwise, and odd under reversal, so the swap holds bitwise
    assert np.array_equal(data.energies, np.tile(data.energies[0], (len(thetas), 1)))
    assert np.array_equal(data.entropy, np.full(len(thetas), data.entropy[0]))
    assert np.array_equal(data.energies, 0.0 - data.energies[:, ::-1])


def test_a_filling_builds_no_harmonics_and_no_grid(monkeypatch):
    for module in (chiral, ent, overlap):
        for name in ("evaluate_half_turn", "evaluate_gramians", "_interpolate_half_turn"):
            monkeypatch.setattr(module, name, _refused, raising=False)
    state = _filling(*FILLINGS["0-5"], seed=42)
    data = ent.pses_sweep(state, _uniform(256))
    ps = parity_sort(state)
    assert chiral.winding_scan(ps) == (3, 256, chiral.minimum_block_gap(ps)[1])
    assert detect_gap_closings(ps) == []
    assert data.energies.shape == (256, 6)
    assert "grid_blocks" not in ps.__dict__


def test_a_level_admixture_takes_the_full_path(monkeypatch):
    # 1e-9 of level 10 in the orbital of level 0 moves the column weights by
    # 1e-18, below their roundoff, and leaves a level residual of about 1e-8
    rows = ho_slater(range(6), 100).coeffs.copy()
    rows[0, 10] = 1e-9
    state = SlaterState(random_unitary_rows(np.random.default_rng(43), 6, 6)
                        @ (rows / np.linalg.norm(rows, axis=1, keepdims=True)))
    assert parity_sort(state).levels is None
    thetas = _uniform(256)
    data, solved = _solved_angles(state, thetas, monkeypatch)
    assert solved == 65  # the quarter turn of a real span
    mu, entropy = _oracle(state, thetas)
    with np.errstate(over="ignore"):
        assert np.max(np.abs(1.0 / (1.0 + np.exp(data.energies)) - mu)) < 1e-12
    assert np.max(np.abs(data.entropy - entropy)) < 1e-12


@pytest.mark.parametrize("levels, flat", [([0, 1, 2, 4, 6], 3), ([1, 3, 5, 6], 2),
                                         ([0, 2, 4, 1001], 2)])
def test_unbalanced_fillings_sweep_their_flat_bands(levels, flat):
    state = _filling(levels, levels[-1] + 1, seed=44)
    ps = parity_sort(state)
    assert ps.levels is not None and chiral.flat_band_count(ps) == flat
    for thetas in (_uniform(64), _uniform(64) + 0.1):
        data = ent.pses_sweep(state, thetas)
        assert np.all(np.sum(data.energies == 0.0, axis=1) == flat)
        assert not np.any(np.signbit(data.energies[data.energies == 0.0]))
        assert np.all(data.gap == 0.0)
    assert "grid_blocks" not in ps.__dict__


def test_the_filling_row_keeps_the_gram_bound(monkeypatch):
    # sigma = 1/2 + 1e-6 puts mu = 1 + 1e-6 beyond the clamp's slack
    monkeypatch.setattr(ent, "level_block", lambda ps: np.diag([0.5 + 1e-6, 0.25]))
    with pytest.raises(overlap.GramBoundError):
        ent.pses_sweep(ho_slater([0, 1, 2, 3]), _uniform(16))


def test_an_unbalanced_sweep_builds_no_base_grid():
    # 4 + 3 sectors: no scan reads the grid, so the sweep evaluates its own
    # angles, and the state holds no grid at all
    state = SlaterState(sweep_state("double_well").coeffs)
    ps = parity_sort(state)
    assert (ps.n_even, ps.n_odd) == (4, 3) and ps.levels is None
    data = ent.pses_sweep(state, _uniform(16))
    assert "grid_blocks" not in ps.__dict__
    mu, entropy = _oracle(state, _uniform(16))
    with np.errstate(over="ignore"):
        assert np.max(np.abs(1.0 / (1.0 + np.exp(data.energies)) - mu)) < 1e-12
    assert np.max(np.abs(data.entropy - entropy)) < 1e-12
    with pytest.raises(chiral.EmptyBlock):
        ps.grid_blocks


def test_the_sweep_peak_stays_near_its_output():
    # the solved rows come first, then the output, filled in place: no
    # index arrays or intermediate copies of all K angles
    thetas = _uniform(2**18)
    for make in (lambda: interpolated_state(0.3, 1.0),
                 lambda: bound_states(potential("double_well"), 6, basis_size=100).as_slater(),
                 lambda: ho_slater([0, 1, 2, 3])):
        ent.pses_sweep(make(), thetas)  # warm-up: the overlap table and numpy's own caches
        state = make()
        tracemalloc.start()
        try:
            data = ent.pses_sweep(state, thetas)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 2.5 * (data.energies.nbytes + data.entropy.nbytes + data.gap.nbytes)
