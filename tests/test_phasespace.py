import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from helpers import random_unitary_rows
from psesk import phasespace as ph
from psesk.hobasis import ho_stack
from psesk.potentials import bound_states, potential
from psesk.states import ho_slater


def unit_expansion(n, size):
    c = np.zeros(size, dtype=complex)
    c[n] = 1.0
    return c


def fine_grid(half=10.0, step=0.025):
    n = int(round(2 * half / step)) + 1
    return np.linspace(-half, half, n)


# ----------------------------------------------------------------- kernel


def test_kernel_at_quarter_turn_is_fourier():
    val = ph.frft_kernel(math.pi / 2.0, 0.0, 0.0)
    assert val == pytest.approx(1.0 / math.sqrt(2.0 * math.pi), rel=1e-14)
    x, y = 0.8, -1.3
    want = np.exp(1j * x * y) / math.sqrt(2.0 * math.pi)
    assert ph.frft_kernel(math.pi / 2.0, x, y) == pytest.approx(want, rel=1e-14)


@given(
    theta=st.floats(0.05, math.pi - 0.05) | st.floats(math.pi + 0.05, 2 * math.pi - 0.05),
    x=st.floats(-3, 3),
    y=st.floats(-3, 3),
)
@settings(max_examples=60, deadline=None)
def test_kernel_modulus_depends_only_on_angle(theta, x, y):
    val = ph.frft_kernel(theta, x, y)
    want = 1.0 / (2.0 * math.pi * abs(math.sin(theta)))
    assert abs(val) ** 2 == pytest.approx(want, rel=1e-12)


def test_kernel_rejects_degenerate_angles():
    for theta in (0.0, math.pi, -math.pi, 2 * math.pi, 1e-8):
        with pytest.raises(ph.DegenerateAngle):
            ph.frft_kernel(theta, 0.1, 0.2)


def test_kernel_composition_quadrature():
    for (t1, t2, x, y) in [(0.9, 1.7, 0.5, -0.3), (0.6, 0.7, 1.1, 2.0), (2.2, 2.5, -0.8, 0.4)]:
        lhs = ph.compose_kernels_quadrature(t1, t2, x, y)
        rhs = ph.frft_kernel(t1 + t2, x, y)
        assert abs(lhs - rhs) < 1e-6


# ----------------------------------------------------------------- ho path


def test_ho_path_identity_inversion_full_turn():
    c = np.array([0.5, 0.5j, -0.5, 0.5], dtype=complex)
    assert np.array_equal(ph.frft_ho(c, 0.0), c)
    inv = ph.frft_ho(c, math.pi)
    assert inv == pytest.approx(c * np.array([1, -1, 1, -1]), abs=1e-15)
    full = ph.frft_ho(c, 2 * math.pi)
    assert full == pytest.approx(c, abs=1e-14)


@given(theta=st.floats(-10, 10), theta2=st.floats(-10, 10))
@settings(max_examples=40, deadline=None)
def test_ho_path_unitary_group_law(theta, theta2):
    rng = np.random.default_rng(5)
    c = rng.normal(size=9) + 1j * rng.normal(size=9)
    once = ph.frft_ho(ph.frft_ho(c, theta), theta2)
    direct = ph.frft_ho(c, theta + theta2)
    norm_sq = np.sum(np.abs(c) ** 2)
    assert abs(np.sum(np.abs(once) ** 2) - norm_sq) < 1e-12 * norm_sq
    assert np.max(np.abs(once - direct)) < 1e-12


# ------------------------------------------------------------- direct path


def test_direct_gaussian_is_rotation_invariant():
    x = fine_grid()
    psi = ho_stack(0, x)[0].astype(complex)
    for theta in (0.4, 1.2, 2.6):
        out = ph.frft_direct(psi, x, theta)
        assert np.max(np.abs(np.abs(out) - np.abs(psi))) < 1e-8


def test_direct_matches_ho_phase_on_eigenstate():
    x = fine_grid()
    psi = ho_stack(1, x)[1].astype(complex)
    out = ph.frft_direct(psi, x, math.pi / 3.0)
    want = np.exp(1j * math.pi / 3.0) * psi
    assert np.max(np.abs(out - want)) < 1e-6


def test_direct_quarter_turn_matches_analytic_gaussian():
    x = fine_grid()
    a = 1.1
    packet = np.exp(-((x - a) ** 2) / 2.0).astype(complex)
    out = ph.frft_direct(packet, x, math.pi / 2.0)
    want = np.exp(1j * a * x - x * x / 2.0)
    assert np.max(np.abs(out - want)) < 1e-6


def test_direct_near_degenerate_routes_to_exact_limits():
    x = fine_grid()
    psi = (ho_stack(3, x)[3] + 0.3 * ho_stack(3, x)[2]).astype(complex) / math.sqrt(1.09)
    out0 = ph.frft_direct(psi, x, 1e-9)
    assert np.array_equal(out0, psi)
    out_pi = ph.frft_direct(psi, x, math.pi + 1e-9)
    assert np.max(np.abs(out_pi - psi[::-1])) == 0.0


def test_direct_norm_preservation():
    x = fine_grid()
    rng = np.random.default_rng(6)
    c = rng.normal(size=8) + 1j * rng.normal(size=8)
    c /= np.linalg.norm(c)
    psi = c @ ho_stack(7, x)
    dx = x[1] - x[0]
    for theta in (0.5, 2.0):
        out = ph.frft_direct(psi, x, theta)
        norm = np.sum(np.abs(out) ** 2) * dx
        assert norm == pytest.approx(1.0, abs=1e-6)


def test_direct_rejects_edge_leakage():
    x = np.linspace(-3, 3, 101)
    psi = np.exp(-x * x / 2).astype(complex)  # ~1e-2 at the edges
    with pytest.raises(ph.EdgeLeakage):
        ph.frft_direct(psi, x, 0.8)


def test_direct_composition_law():
    x = fine_grid()
    rng = np.random.default_rng(9)
    c = rng.normal(size=6) + 1j * rng.normal(size=6)
    c /= np.linalg.norm(c)
    psi = c @ ho_stack(5, x)
    t1, t2 = 0.7, 1.1
    twice = ph.frft_direct(ph.frft_direct(psi, x, t1), x, t2)
    once = ph.frft_direct(psi, x, t1 + t2)
    assert np.max(np.abs(twice - once)) < 1e-5


# ----------------------------------------------------------------- wigner


def test_wigner_mn_reference_points():
    assert ph.wigner_mn(0, 0, 0.0, 0.0) == pytest.approx(2.0, rel=1e-14)
    assert ph.wigner_mn(1, 1, 0.0, 0.0) == pytest.approx(-2.0, rel=1e-14)
    val = ph.wigner_mn(0, 1, 1.0, 0.0)
    assert val == pytest.approx(2.0 * math.sqrt(2.0) * math.exp(-1.0), rel=1e-13)


def test_wigner_mn_conjugate_symmetry():
    z = ph.wigner_mn(2, 5, 0.7, -0.4)
    assert ph.wigner_mn(5, 2, 0.7, -0.4) == pytest.approx(np.conj(z), rel=1e-13)


def test_wigner_of_ground_state_is_gaussian():
    x = np.linspace(-4, 4, 41)
    f = ph.wigner_of_state(unit_expansion(0, 1), x, x)
    want = 2.0 * np.exp(-(x[:, None] ** 2 + x[None, :] ** 2))
    assert np.max(np.abs(f.values - want)) < 1e-13
    assert f.is_diagonal


def test_wigner_of_two_mode_density_has_no_cross_terms():
    x = np.linspace(-4, 4, 21)
    rho = 0.5 * np.diag([1.0, 1.0])
    f = ph.wigner_of_state(2.0 * rho, x, x)  # 1-RDM of {phi_0, phi_1}
    want = ph.wigner_mn(0, 0, x[:, None], x[None, :]) + ph.wigner_mn(
        1, 1, x[:, None], x[None, :]
    )
    assert np.max(np.abs(f.values - want)) < 1e-12


def test_wigner_against_bruteforce_oracle():
    rng = np.random.default_rng(42)
    c = rng.normal(size=15) + 1j * rng.normal(size=15)
    c /= np.linalg.norm(c)
    x = p = np.linspace(-8, 8, 161)
    closed = ph.wigner_of_state(c, x, p)
    fine = fine_grid(half=12.0)
    samples = c @ ho_stack(14, fine)
    oracle = ph.wigner_pure(samples, fine, x, p)
    assert np.max(np.abs(closed.values - oracle.values)) < 1e-4


@pytest.mark.parametrize("m,n", [(37, 80), (99, 99), (0, 299), (1023, 1023)])
def test_wigner_matches_closed_form_at_high_indices(m, n):
    rho = np.zeros((max(m, n) + 1,) * 2)
    rho[n, m] = 1.0  # |phi_n><phi_m|
    for half in (8.0, 20.0, 40.0):  # +-40 passes reach for the lower indices: W is 0 there
        x = np.linspace(-half, half, 5)
        field = ph.wigner_of_state(rho, x, x)
        assert np.all(np.isfinite(field.values))
        with np.errstate(all="ignore"):  # far out the closed form overflows
            closed = ph.wigner_mn(m, n, x[:, None], x[None, :])
        finite = np.isfinite(closed)
        assert np.max(np.abs(field.values - closed)[finite]) < 1e-12, (m, n, half)


def test_fine_rows_on_interleaved_subgrids():
    # rows finer than half a lattice step are split into interleaved subgrids
    rng = np.random.default_rng(46)
    c = rng.normal(size=30) + 1j * rng.normal(size=30)
    c /= np.linalg.norm(c)
    x = np.linspace(-0.5, 0.5, 101)
    p = np.linspace(-3.0, 3.0, 7)
    field = ph.wigner_of_state(c, x, p)
    closed = sum(c[m] * np.conj(c[n]) * ph.wigner_mn(n, m, x[:, None], p[None, :])
                 for m in range(30) for n in range(30))
    assert np.max(np.abs(field.values - closed)) < 1e-12
    # a complex cross field |c><d| on one grid: its lattice of ~340 points
    # spans six blocks, its 81 rows two
    d = rng.normal(size=30) + 1j * rng.normal(size=30)
    d /= np.linalg.norm(d)
    x = np.linspace(-4.0, 4.0, 81)
    cross = ph.wigner_of_state(np.outer(c, d.conj()), x, p)
    closed = sum(c[m] * np.conj(d[n]) * ph.wigner_mn(n, m, x[:, None], p[None, :])
                 for m in range(30) for n in range(30))
    assert not cross.is_diagonal
    assert np.max(np.abs(cross.values - closed)) < 1e-12


@pytest.mark.parametrize("make,half,points", [
    (lambda: bound_states(potential("poschl_teller"), 7).as_slater(), 12.0, 241),
    (lambda: ho_slater(range(300)), 30.0, 1201),
])
def test_wigner_workspace_is_the_field_plus_one_block(make, half, points):
    # beyond the field and its complex sum, phi and phi^T rho on the lattice,
    # the assembly holds one block of ROW_BLOCK lattice points: never the
    # whole kernel G or the whole phase matrix e^{-2ipu}
    coeffs = make().coeffs
    rho = coeffs.T @ coeffs.conj()
    axis = np.linspace(-half, half, points)
    ph.wigner_of_state(rho, axis[::40], axis[::40])  # warm-up: numpy's first-call allocations
    tracemalloc.start()
    try:
        field = ph.wigner_of_state(rho, axis, axis)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    reach = math.sqrt(2 * len(rho) + 1) + 9.0
    lattice = 4.0 * reach * (half + reach) / math.pi  # both grids step the lattice by > h / 2
    held = 3 * field.values.nbytes + 2 * 8 * len(rho) * lattice  # W, its complex sum, phi, phi^T rho
    block = 8 * ph.ROW_BLOCK * (lattice + 2 * points)  # one block's rows of K, columns of G, slab
    assert peak <= held + 2 * block


def test_density_matrix_field_on_non_square_axes():
    rng = np.random.default_rng(45)
    orbitals = random_unitary_rows(rng, 3, 12)
    rho = orbitals.T @ orbitals.conj()  # the 1-RDM of their Slater determinant
    x = np.linspace(-6.0, 6.0, 25)
    p = np.sort(rng.uniform(-7.0, 7.0, size=11))
    field = ph.wigner_of_state(rho, x, p)
    assert field.is_diagonal and field.values.shape == (25, 11)
    fine = fine_grid(half=12.0)
    oracle = sum(ph.wigner_pure(c @ ho_stack(11, fine), fine, x, p).values for c in orbitals)
    assert np.max(np.abs(field.values - oracle)) < 1e-4


def test_wigner_rejects_non_uniform_or_descending_x():
    c = np.array([1.0, 0.5]) / math.sqrt(1.25)
    p = np.linspace(-2.0, 2.0, 5)
    for x in (np.array([-1.0, 0.0, 0.5]), np.linspace(2.0, -2.0, 9), np.zeros(2), np.zeros(0)):
        with pytest.raises(ValueError):
            ph.wigner_of_state(c, x, p)
    one = ph.wigner_of_state(unit_expansion(0, 1), np.array([0.3]), p)
    assert np.max(np.abs(one.values - ph.wigner_mn(0, 0, 0.3, p))) < 1e-13


def test_wigner_rotation_covariance():
    rng = np.random.default_rng(43)
    c = rng.normal(size=10) + 1j * rng.normal(size=10)
    c /= np.linalg.norm(c)
    theta = 0.9
    pts = np.linspace(-3, 3, 13)
    rotated_field = ph.wigner_of_state(ph.frft_ho(c, theta), pts, pts)
    xg, pg = np.meshgrid(pts, pts, indexing="ij")
    # evaluate the original field at the back-rotated points
    xb = math.cos(theta) * xg + math.sin(theta) * pg
    pb = -math.sin(theta) * xg + math.cos(theta) * pg
    rho = np.outer(c, c.conj())
    back = np.zeros_like(xg, dtype=complex)
    for m in range(10):
        for n in range(10):
            w = ph.wigner_mn(m, n, xb, pb)
            back += rho[n, m] * w
    assert np.max(np.abs(rotated_field.values - back)) < 1e-4


def test_wigner_normalization():
    rng = np.random.default_rng(44)
    c = rng.normal(size=12) + 1j * rng.normal(size=12)
    c /= np.linalg.norm(c)
    x = np.linspace(-8, 8, 161)
    f = ph.wigner_of_state(c, x, x)
    total = np.trapezoid(np.trapezoid(f.values.real, f.p, axis=1), f.x) / (2 * math.pi)
    assert total == pytest.approx(1.0, abs=2e-3)


def test_coherent_matches_vacuum_at_origin():
    x = p = np.linspace(-8, 8, 161)
    f = ph.coherent_wigner(0.0, x, p)
    want = ph.wigner_of_state(unit_expansion(0, 1), x, p)
    assert np.max(np.abs(f.values - want.values)) < 1e-12


def test_coherent_peak_location():
    w = 3.0
    center = w * math.sqrt(2.0)
    f = ph.coherent_wigner(w, np.array([center]), np.array([0.0]))
    assert f.values[0, 0].real == pytest.approx(2.0, rel=1e-12)


def test_coherent_rotation_covariance():
    w = 1.5 + 0.5j
    theta = 1.1
    c = ph.coherent_expansion(w, 48)
    assert abs(np.sum(np.abs(c) ** 2) - 1.0) <= 1e-12
    x = np.linspace(-5, 5, 41)
    rotated = ph.wigner_of_state(ph.frft_ho(c, theta), x, x)
    want = ph.coherent_wigner(w * np.exp(1j * theta), x, x)
    assert np.max(np.abs(rotated.values - want.values)) < 1e-6


def test_marginals_reproduce_densities():
    p = np.linspace(-10, 10, 401)
    x = np.linspace(-5, 5, 101)
    for n in (0, 1):
        f = ph.wigner_of_state(unit_expansion(n, 2), x, p)
        marg = ph.marginal_position(f)
        want = ho_stack(n, x)[n] ** 2
        assert np.max(np.abs(marg - want)) < 1e-5


def test_cross_marginal_gives_orbital_product():
    p = np.linspace(-10, 10, 401)
    x = np.linspace(-4, 4, 81)
    bra = np.zeros(2, dtype=complex)
    bra[0] = 1.0
    ket = np.zeros(2, dtype=complex)
    ket[1] = 1.0
    rho = np.outer(ket, bra.conj())  # |phi_1><phi_0|
    f = ph.wigner_of_state(rho, x, p)
    assert not f.is_diagonal
    marg = ph.marginal_position(f)
    want = ho_stack(1, x)[0] * ho_stack(1, x)[1]
    assert np.max(np.abs(marg - want)) < 1e-5
