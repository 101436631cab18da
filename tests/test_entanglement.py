import functools
import math
import tracemalloc

import numpy as np
import pytest

from helpers import mixed_well_filling, random_slater, random_symmetric_slater
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


def test_hermitian_check_is_blocked_and_bitwise_unchanged():
    # the copy is checked and symmetrised in place: no stack-sized temporaries
    state = ho_slater([0, 1])
    thetas = np.linspace(0.0, 2.0 * math.pi, 2**16, endpoint=False)
    stack = overlap.evaluate_gramians(overlap.gramian_harmonics(state.coeffs, state.coeffs), thetas)
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


# ------------------------------------------------- uniform sweeps by half turn

def _uniform(k):
    return np.linspace(0.0, 2.0 * math.pi, k, endpoint=False)


def _per_angle(state, thetas):
    """The sweep's numbers angle by angle: the oracle of the half-turn path."""
    h = overlap.gramian_harmonics(state.coeffs, state.coeffs)
    mu = ent.schmidt_values(overlap.evaluate_gramians(h, thetas))
    return mu, ent.entanglement_energies(mu), ent.entanglement_entropy(mu)


def _general_sweep(state, k):
    """The half-turn route of the general path, mu of the N x N Gramians and
    the subsystem swap, called directly (pses_sweep takes the chiral path
    for an inversion-symmetric state)."""
    h = overlap.gramian_harmonics(state.coeffs, state.coeffs)
    mu = ent.schmidt_values(overlap.evaluate_half_turn(h, k))
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
    sigma = np.linalg.svd(overlap.evaluate_gramians(ps.harmonics, thetas), compute_uv=False)
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
    assert overlap.harmonic_rows(state.n_particles, state.basis_size) == 1
    blocked = ent.pses_sweep(state, _uniform(256))
    mu, _, entropy = _per_angle(state, _uniform(256))
    with np.errstate(over="ignore"):
        assert np.max(np.abs(1.0 / (1.0 + np.exp(blocked.energies)) - mu)) < 1e-13
    assert np.max(np.abs(blocked.entropy - entropy)) < 1e-12


@pytest.mark.parametrize("name", ["random-1000", "ho-900-919"])
def test_chiral_sweep_without_kept_harmonics(name, monkeypatch):
    # blocks too wide to keep: every sweep rebuilds them in row blocks
    state = SlaterState(_chiral_oracle_states()[name].coeffs.copy())
    monkeypatch.setattr(overlap, "HARMONIC_BYTES", 1)
    assert parity_sort(state).harmonics.coeffs is None
    for thetas in (_uniform(256), _uniform(64) + 0.1):
        data = ent.pses_sweep(state, thetas)
        mu, _, entropy = _per_angle(state, thetas)
        with np.errstate(over="ignore"):
            assert np.max(np.abs(1.0 / (1.0 + np.exp(data.energies)) - mu)) < 1e-12
        assert np.max(np.abs(data.entropy - entropy)) < 1e-12


def test_uniform_sweep_solves_half_a_turn(monkeypatch):
    shapes = []
    schmidt = ent.schmidt_values

    def recorded(o):
        shapes.append(np.shape(o))
        return schmidt(o)

    monkeypatch.setattr(ent, "schmidt_values", recorded)
    monkeypatch.setattr(ent, "evaluate_gramians", _refused)
    monkeypatch.setattr(overlap, "evaluate_gramians", _refused)
    state = sweep_state("rosen_morse")
    data = ent.pses_sweep(state, _uniform(256))
    assert shapes == [(128, 7, 7)]
    assert data.energies.shape == (256, 7)
    with pytest.raises(AssertionError):
        ent.pses_sweep(state, _uniform(256) + 0.1)


def test_uniform_chiral_sweep_takes_one_svd_over_half_a_turn(monkeypatch):
    shapes = []
    svd = np.linalg.svd

    def recorded(a, *args, **kwargs):
        shapes.append(np.shape(a))
        return svd(a, *args, **kwargs)

    monkeypatch.setattr(np.linalg, "svd", recorded)
    monkeypatch.setattr(ent, "schmidt_values", _refused)
    monkeypatch.setattr(ent, "evaluate_gramians", _refused)
    monkeypatch.setattr(overlap, "evaluate_gramians", _refused)
    state = sweep_state("poschl_teller")
    data = ent.pses_sweep(state, _uniform(256))
    assert shapes == [(128, 4, 3)]
    assert data.energies.shape == (256, 7)
    with pytest.raises(AssertionError):
        ent.pses_sweep(state, _uniform(256) + 0.1)


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
    # sigma = 1/2 + 1e-6 puts mu = 1 + 1e-6 beyond the clamp's slack
    state = ho_slater(indices)
    n = len(indices) // 2

    def escaping(ps, arg):
        angles = arg // 2 if grid == "uniform" else len(arg)
        blocks = np.zeros((angles, n, n), dtype=complex)
        blocks[:, 0, 0] = 0.5 + 1e-6
        return blocks

    monkeypatch.setattr(ent, "evaluate_half_turn" if grid == "uniform" else "evaluate_gramians",
                        escaping)
    thetas = _uniform(16) if grid == "uniform" else _uniform(16) + 0.1
    with pytest.raises(overlap.GramBoundError):
        ent.pses_sweep(state, thetas)


def test_single_pair_blocks_take_no_svd(monkeypatch):
    # one row or one column: sigma is its norm
    monkeypatch.setattr(np.linalg, "svd", _refused)
    for state in (interpolated_state(0.3, 1.0), ho_slater([0, 1, 2]), ho_slater([1, 2, 4, 6])):
        ps = parity_sort(state)
        assert min(ps.n_even, ps.n_odd) == 1
        for thetas in (_uniform(64), _uniform(64) + 0.1):
            data = ent.pses_sweep(state, thetas)
            mu, _, entropy = _per_angle(state, thetas)
            with np.errstate(over="ignore"):
                assert np.max(np.abs(1.0 / (1.0 + np.exp(data.energies)) - mu)) < 1e-12
            assert np.max(np.abs(data.entropy - entropy)) < 1e-12
