import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from psesk import specfun


def test_hermite_low_orders():
    assert specfun.hermite_phys(0, 0.7) == 1.0
    assert specfun.hermite_phys(1, 0.7) == pytest.approx(1.4, abs=1e-15)
    # H_2(x) = 4x^2 - 2 evaluated directly
    assert specfun.hermite_phys(2, 1.0) == pytest.approx(4.0 * 1.0 - 2.0, abs=1e-14)


@given(n=st.integers(1, 30), x=st.floats(-3.0, 3.0))
@settings(max_examples=60, deadline=None)
def test_hermite_derivative_identity(n, x):
    # d/dx H_n = 2 n H_{n-1}, probed by a central difference; the difference
    # quotient itself is conditioned on the stencil magnitude, so the scale
    # must include it (near zeros of H_{n-1} the polynomial still has size)
    h = 1e-6
    up = specfun.hermite_phys(n, x + h)
    down = specfun.hermite_phys(n, x - h)
    fd = (up - down) / (2.0 * h)
    exact = 2.0 * n * specfun.hermite_phys(n - 1, x)
    scale = max(1.0, abs(exact), abs(up), abs(down))
    assert abs(fd - exact) / scale < 1e-6


def test_laguerre_low_orders():
    assert specfun.assoc_laguerre(0, 0, 3.0) == 1.0
    assert specfun.assoc_laguerre(1, 0, 2.0) == pytest.approx(-1.0, abs=1e-15)
    # finite-sum oracle for L_2^1(1) = x^2/2 - 3x + 3 at x = 1
    assert specfun.assoc_laguerre(2, 1, 1.0) == pytest.approx(0.5, abs=1e-14)


def _laguerre_sum(n, alpha, x):
    total = Fraction(0)
    xf = Fraction(x)
    for q in range(n + 1):
        total += (-1) ** q * Fraction(math.comb(n + alpha, n - q)) * xf**q / math.factorial(q)
    return float(total)


@given(n=st.integers(0, 20), alpha=st.integers(0, 10), x=st.floats(0.0, 30.0))
@settings(max_examples=80, deadline=None)
def test_laguerre_matches_finite_sum(n, alpha, x):
    got = specfun.assoc_laguerre(n, alpha, x)
    want = _laguerre_sum(n, alpha, x)
    assert got == pytest.approx(want, rel=1e-10, abs=1e-10)


def test_laguerre_rejects_bad_family():
    with pytest.raises(ValueError):
        specfun.assoc_laguerre(1, -3, 0.5)


def test_gamma_half_integers():
    assert specfun.gamma_special(1) == pytest.approx(math.sqrt(math.pi), rel=1e-15)
    assert specfun.gamma_special(2) == 1.0
    assert specfun.gamma_special(-1) == pytest.approx(-2.0 * math.sqrt(math.pi), rel=1e-14)


@pytest.mark.parametrize("two_k", [-7, -3, -1, 1, 3, 5, 9, 2, 4, 12])
def test_gamma_recurrence(two_k):
    # Gamma(z + 1) = z Gamma(z) holds to roundoff by construction
    z = two_k / 2.0
    lhs = specfun.gamma_special(two_k + 2)
    rhs = z * specfun.gamma_special(two_k)
    assert lhs == pytest.approx(rhs, rel=1e-14)


@pytest.mark.parametrize("two_k", [0, -2, -4, -10])
def test_gamma_poles(two_k):
    with pytest.raises(ValueError):
        specfun.gamma_special(two_k)


def test_hyp2f1_examples():
    assert specfun.hyp2f1_terminating(0, 1.5, 2.0, 2.0) == 1.0
    # 1 + (-1)(3/2)/2 * 2
    assert specfun.hyp2f1_terminating(1, 1.5, 2.0, 2.0) == pytest.approx(-0.5, abs=1e-15)
    # 1 + (-2)(2)/(3)*2 + [(-2)(-1)][(2)(3)]/[(3)(4)] * 4/2 = 1 - 8/3 + 2 = 1/3
    assert specfun.hyp2f1_terminating(2, 2.0, 3.0, 2.0) == pytest.approx(1.0 / 3.0, rel=1e-15)


@given(
    b=st.floats(-5.0, 5.0, allow_nan=False),
    c=st.floats(0.5, 5.0),
    x=st.floats(-3.0, 3.0),
)
@settings(max_examples=40, deadline=None)
def test_hyp2f1_zeroth_order_is_one(b, c, x):
    assert specfun.hyp2f1_terminating(0, b, c, x) == 1.0


def test_hyp2f1_rejects_denominator_pole():
    with pytest.raises(ValueError):
        specfun.hyp2f1_terminating(3, 1.0, -1.0, 2.0)
    with pytest.raises(ValueError):
        specfun.hyp2f1_terminating(3, 1.0, 0.0, 2.0)
    # c = -m is fine: the zero never enters the first m Pochhammer factors
    specfun.hyp2f1_terminating(3, 1.0, -3.0, 2.0)


def test_hyp2f1_large_order_stays_sane():
    # huge alternating terms must cancel exactly; compare with an mpmath-free
    # rational reference assembled separately
    m, b, c, x = 60, 31.0, 62.0, 2.0
    term = Fraction(1)
    total = Fraction(1)
    for q in range(m):
        term *= Fraction(-m + q) * (Fraction(b) + q) * Fraction(x)
        term /= (Fraction(c) + q) * (q + 1)
        total += term
    assert specfun.hyp2f1_terminating(m, b, c, x) == pytest.approx(float(total), rel=1e-14)
