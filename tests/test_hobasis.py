import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from psesk import hobasis


def test_wavefunction_values_at_origin():
    assert hobasis.ho_wavefunction(0, 0.0) == pytest.approx(math.pi**-0.25, rel=1e-14)
    assert hobasis.ho_wavefunction(1, 0.0) == 0.0
    assert hobasis.ho_wavefunction(2, 0.0) == pytest.approx(
        -(math.pi**-0.25) / math.sqrt(2.0), rel=1e-14
    )


@given(n=st.integers(0, 60), x=st.floats(-5.0, 5.0))
@settings(max_examples=60, deadline=None)
def test_wavefunction_parity(n, x):
    left = hobasis.ho_wavefunction(n, -x)
    right = (-1.0) ** n * hobasis.ho_wavefunction(n, x)
    assert left == pytest.approx(right, abs=1e-14)


def test_wavefunction_no_overflow_at_large_index():
    val = hobasis.ho_wavefunction(100, 15.0)
    assert np.isfinite(val)


def test_wavefunction_is_a_row_of_the_stack():
    x = np.linspace(-50.0, 50.0, 101)
    assert np.array_equal(hobasis.ho_wavefunction(700, x), hobasis.ho_stack(700, x)[700])
    assert hobasis.ho_wavefunction(700, 40.0) == hobasis.ho_stack(700, [40.0])[700, 0]
    # far past the last turning point every phi_n is 0, not an overflow
    assert hobasis.ho_wavefunction(700, 1e12) == 0.0
    assert not np.any(hobasis.ho_stack(40, [-1e300, 1e20, 1e9]))


def test_half_line_norms_up_to_max_basis():
    # phi_n^2 is even, so each half line holds 1/2; past |x| ~ 37.7 the Gaussian
    # alone underflows, which the scaled recurrence must not inherit
    top = 1023
    x_cut = math.ceil(math.sqrt(4.0 * (top + 1)) + 10.0)
    gx, gw = np.polynomial.legendre.leggauss(64)
    nodes = (np.arange(x_cut)[:, None] + 0.5 * (gx + 1.0)).ravel()
    weights = np.tile(0.5 * gw, x_cut)
    phi = hobasis.ho_stack(top, nodes)
    assert np.all(np.isfinite(phi))
    assert np.max(np.abs(phi**2 @ weights - 0.5)) < 1e-12


def test_gauss_hermite_small_rules():
    nodes, weights = hobasis.gauss_hermite(1)
    assert nodes == pytest.approx([0.0])
    assert weights == pytest.approx([math.sqrt(math.pi)])

    nodes, weights = hobasis.gauss_hermite(2)
    assert np.sort(nodes) == pytest.approx([-1 / math.sqrt(2), 1 / math.sqrt(2)], rel=1e-14)
    assert weights == pytest.approx([math.sqrt(math.pi) / 2] * 2, rel=1e-14)

    nodes, weights = hobasis.gauss_hermite(3)
    assert np.sort(nodes) == pytest.approx(
        [-math.sqrt(1.5), 0.0, math.sqrt(1.5)], rel=1e-13, abs=1e-13
    )
    w = weights[np.argsort(nodes)]
    sp = math.sqrt(math.pi)
    assert w == pytest.approx([sp / 6, 2 * sp / 3, sp / 6], rel=1e-13)


@pytest.mark.parametrize("order", [5, 8, 20])
def test_gauss_hermite_moments(order):
    # exact Gaussian moments: int x^k e^{-x^2} dx = Gamma((k+1)/2) for even k
    nodes, weights = hobasis.gauss_hermite(order)
    for k in range(0, 9):
        got = float(np.sum(weights * nodes**k))
        want = math.gamma((k + 1) / 2.0) if k % 2 == 0 else 0.0
        assert got == pytest.approx(want, rel=1e-10, abs=1e-10)


def test_gauss_hermite_matches_numpy_hermgauss():
    for order in range(1, 151):
        got_nodes, got_weights = hobasis.gauss_hermite(order)
        nodes, weights = np.polynomial.hermite.hermgauss(order)
        assert np.max(np.abs(got_nodes - nodes)) <= 1e-13, order
        kept = weights > 1e-250
        rel = np.abs(got_weights[kept] - weights[kept]) / weights[kept]
        assert np.max(rel) <= 1e-12, order


@pytest.mark.parametrize("m", [20, 60, 120])
def test_basis_orthonormality_under_quadrature(m):
    nodes, w = hobasis.reweighted_rule(2 * m)
    phi = hobasis.ho_stack(m - 1, nodes)
    gram = (phi * w) @ phi.T
    assert np.max(np.abs(gram - np.eye(m))) < 1e-9


def test_expand_recovers_basis_state():
    coeffs, _ = hobasis.expand_function(lambda x: hobasis.ho_stack(3, x)[3], basis_size=8)
    want = np.zeros(8)
    want[3] = 1.0
    assert np.max(np.abs(coeffs - want)) < 1e-10
    assert abs(np.sum(np.abs(coeffs) ** 2) - 1.0) <= 1e-8


def test_expand_ground_state_gaussian():
    coeffs, _ = hobasis.expand_function(
        lambda x: math.pi**-0.25 * np.exp(-x * x / 2.0), basis_size=6
    )
    want = np.zeros(6)
    want[0] = 1.0
    assert np.max(np.abs(coeffs - want)) < 1e-12


def test_expand_first_moment_gaussian():
    # f(x) = x e^{-x^2/2}: only alpha_1 survives; oracle is the Gaussian
    # moment integral sqrt(2) pi^{-1/4} int x^2 e^{-x^2} dx
    coeffs, _ = hobasis.expand_function(lambda x: x * np.exp(-x * x / 2.0), basis_size=6)
    alpha_1 = math.sqrt(2.0) * math.pi**-0.25 * (math.sqrt(math.pi) / 2.0)
    assert alpha_1 == pytest.approx((math.pi / 4.0) ** 0.25, rel=1e-12)
    want = np.zeros(6)
    want[1] = alpha_1
    assert np.max(np.abs(coeffs - want)) < 1e-12


def test_expand_roundtrip_band_limited():
    rng = np.random.default_rng(7)
    coeffs = rng.normal(size=12) + 1j * rng.normal(size=12)
    coeffs /= np.linalg.norm(coeffs)
    got, tail = hobasis.expand_function(
        lambda x: coeffs @ hobasis.ho_stack(11, x), basis_size=12
    )
    assert np.max(np.abs(got - coeffs)) < 1e-8
    assert abs(tail) < 1e-10


def test_expand_reports_truncation_failure():
    # a wide Gaussian needs far more than 4 basis states
    wide = lambda x: np.exp(-((x / 6.0) ** 2) / 2.0)
    with pytest.raises(hobasis.TruncationError):
        hobasis.expand_function(wide, basis_size=4)


def test_expand_raises_on_non_finite_projection():
    # every reweighted weight is finite, also from quadrature order 766 on
    ground = lambda x: np.exp(-x * x / 2.0) * math.pi ** -0.25
    assert abs(hobasis.expand_function(ground, basis_size=400)[0][0] - 1.0) < 1e-12
    with pytest.raises(hobasis.TruncationError, match="not finite"):
        hobasis.expand_function(lambda x: np.where(x > 30.0, np.inf, ground(x)), basis_size=400)
