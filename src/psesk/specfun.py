"""Special-function kernels: Hermite and Laguerre recurrences, a
half-integer gamma and an exact terminating Gauss hypergeometric sum.

No production path uses this module, and importing ``psesk`` or
``psesk.cli`` does not load it: ``assoc_laguerre`` serves only the
closed-form Wigner oracle :func:`psesk.phasespace.wigner_mn`, which imports
it when called, and ``hermite_phys`` serves polynomial tests.
``hyp2f1_terminating`` and ``gamma_special`` have no caller outside the
tests (the overlap table comes from the boundary Wronskian); they stay only
because the perfbench span recorder (``perfbench/spans.py``) traces them by
name.
``hyp2f1_terminating`` sums in exact rational arithmetic because at
argument 2 its terms grow like 3^m while the result stays O(1), which makes
a floating-point sum useless beyond m ~ 25.
"""

from __future__ import annotations

import math
from fractions import Fraction

import numpy as np

__all__ = [
    "hermite_phys",
    "assoc_laguerre",
    "gamma_special",
    "hyp2f1_terminating",
]


def hermite_phys(n: int, x):
    """Physicists' Hermite polynomial H_n(x).

    Three-term recurrence H_{k+1} = 2x H_k - 2k H_{k-1}.  Accepts scalar or
    array ``x``.  Overflows double precision for large n at large |x|; the
    oscillator eigenfunctions are evaluated by a normalized recurrence
    elsewhere (see :func:`psesk.hobasis.ho_wavefunction`) and this function
    exists for direct polynomial work and testing.

    Parameters
    ----------
    n : int
        Degree, n >= 0.
    x : float or ndarray
        Evaluation point(s).
    """
    if n < 0:
        raise ValueError("degree must be nonnegative")
    x = np.asarray(x, dtype=float)
    h_prev = np.ones_like(x)
    if n == 0:
        return h_prev if h_prev.ndim else float(h_prev)
    h = 2.0 * x
    for k in range(1, n):
        h_prev, h = h, 2.0 * x * h - 2.0 * k * h_prev
    return h if h.ndim else float(h)


def assoc_laguerre(n: int, alpha: int, x):
    """Associated Laguerre polynomial L_n^alpha(x) by recurrence in n.

    Requires n + alpha >= 0 so the polynomial family is well defined.
    Accepts scalar or array ``x``.
    """
    if n < 0:
        raise ValueError("degree must be nonnegative")
    if n + alpha < 0:
        raise ValueError("require n + alpha >= 0")
    x = np.asarray(x, dtype=float)
    p_prev = np.ones_like(x)
    if n == 0:
        return p_prev if p_prev.ndim else float(p_prev)
    p = 1.0 + alpha - x
    for k in range(1, n):
        p_prev, p = p, ((2.0 * k + 1.0 + alpha - x) * p - (k + alpha) * p_prev) / (k + 1.0)
    return p if p.ndim else float(p)


def gamma_special(two_k: int) -> float:
    """Gamma(two_k / 2) for integer and half-integer arguments, passed
    doubled so half-integers are exact inputs; inf past Gamma(171.6), where
    a double overflows.

    Raises
    ------
    ValueError
        At the poles two_k in {0, -2, -4, ...}.
    """
    if two_k <= 0 and two_k % 2 == 0:
        raise ValueError(f"gamma pole at argument {two_k // 2}")
    try:
        return math.gamma(two_k / 2)
    except OverflowError:
        return math.inf


def hyp2f1_terminating(m: int, b: float, c: float, x: float) -> float:
    """Terminating hypergeometric 2F1(-m, b; c; x) as an exact finite sum.

    The m+1 terms are accumulated with the Pochhammer ratio update
    term_{q+1} = term_q * (-m+q)(b+q) x / ((c+q)(q+1)) carried out in exact
    rational arithmetic (every double is an exact rational), then rounded
    once.  This keeps the huge alternating terms at x = 2 from destroying
    the result.

    Raises
    ------
    ValueError
        If c is a nonpositive integer > -m (a zero would appear in a
        denominator Pochhammer factor before the series terminates).
    """
    if m < 0:
        raise ValueError("series order must be nonnegative")
    c_frac = Fraction(c)
    if c_frac.denominator == 1 and -m < c_frac <= 0:
        raise ValueError(f"invalid denominator parameter c={c}")
    b_frac = Fraction(b)
    x_frac = Fraction(x)
    total = Fraction(1)
    term = Fraction(1)
    for q in range(m):
        term *= Fraction(-m + q) * (b_frac + q) * x_frac
        term /= (c_frac + q) * (q + 1)
        total += term
    return float(total)
