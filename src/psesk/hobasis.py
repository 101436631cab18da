"""Harmonic-oscillator eigenbasis: eigenfunctions, quadrature, expansions.

Unit conventions: hbar = m = omega = 1, so the oscillator Hamiltonian is
(p^2 + x^2)/2 and the L2-normalized eigenfunctions are

    phi_n(x) = pi^{-1/4} (2^n n!)^{-1/2} H_n(x) exp(-x^2/2).

phi_n is evaluated by a normalized recurrence (the Gaussian and the
normalization ride inside the recurrence), which stays finite for n ~ 100
at |x| ~ 20 where H_n alone overflows.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np

__all__ = [
    "TruncationError",
    "HOExpansion",
    "QuadratureRule",
    "ho_wavefunction",
    "ho_stack",
    "gauss_hermite",
    "reweighted_rule",
    "expand_function",
    "basis_parity",
    "DEFAULT_BASIS_SIZE",
]

DEFAULT_BASIS_SIZE = 100


class TruncationError(Exception):
    """Raised when an expansion leaves too much weight beyond the basis."""


@dataclass(frozen=True)
class HOExpansion:
    """A single-particle state as coefficients over phi_0 .. phi_{M-1}.

    ``tail`` is the relative weight not captured by the truncation, when the
    expansion came from projecting a sampled function (None otherwise).
    """

    coeffs: np.ndarray
    tail: Optional[float] = None

    def __post_init__(self):
        c = np.asarray(self.coeffs, dtype=complex)
        object.__setattr__(self, "coeffs", c)

    @property
    def truncation(self) -> int:
        return len(self.coeffs)

    @property
    def norm_sq(self) -> float:
        return float(np.sum(np.abs(self.coeffs) ** 2))

    def is_normalized(self, tol: float = 1e-8) -> bool:
        return abs(self.norm_sq - 1.0) <= tol


@dataclass(frozen=True)
class QuadratureRule:
    """Gauss-Hermite nodes/weights for the weight exp(-x^2)."""

    nodes: np.ndarray
    weights: np.ndarray
    order: int


def ho_wavefunction(n: int, x):
    """Normalized oscillator eigenfunction phi_n(x); scalar or array x."""
    if n < 0:
        raise ValueError("index must be nonnegative")
    x = np.asarray(x, dtype=float)
    f_prev = math.pi ** -0.25 * np.exp(-x * x / 2.0)
    if n == 0:
        return f_prev if f_prev.ndim else float(f_prev)
    f = math.sqrt(2.0) * x * f_prev
    for k in range(2, n + 1):
        f_prev, f = f, math.sqrt(2.0 / k) * x * f - math.sqrt((k - 1.0) / k) * f_prev
    return f if f.ndim else float(f)


def ho_stack(n_max: int, x: np.ndarray) -> np.ndarray:
    """All of phi_0 .. phi_{n_max} at the points x, shape (n_max+1, len(x))."""
    x = np.atleast_1d(np.asarray(x, dtype=float))
    out = np.empty((n_max + 1, len(x)))
    out[0] = math.pi ** -0.25 * np.exp(-x * x / 2.0)
    if n_max >= 1:
        out[1] = math.sqrt(2.0) * x * out[0]
    for k in range(2, n_max + 1):
        out[k] = math.sqrt(2.0 / k) * x * out[k - 1] - math.sqrt((k - 1.0) / k) * out[k - 2]
    return out


def _hermite_nodes(order: int) -> np.ndarray:
    """Eigenvalues of the Golub-Welsch Jacobi matrix, ascending.

    The Jacobi matrix (zero diagonal, off-diagonal sqrt(k/2)) couples only
    even to odd indices, so its eigenvalues are +- the singular values of the
    lower-bidiagonal even-odd block B[j, j] = sqrt(j + 1/2),
    B[j + 1, j] = sqrt(j + 1), plus one zero when the order is odd.
    """
    n_even, n_odd = (order + 1) // 2, order // 2
    block = np.zeros((n_even, n_odd))
    j = np.arange(n_odd)
    block[j, j] = np.sqrt(j + 0.5)
    j = j[j + 1 < n_even]
    block[j + 1, j] = np.sqrt(j + 1.0)
    s = np.linalg.svd(block, compute_uv=False) if n_odd else np.zeros(0)  # descending
    return np.concatenate([-s, np.zeros(order % 2), s[::-1]])


def _christoffel_sums(order: int) -> tuple[np.ndarray, np.ndarray]:
    """Nodes x_q and sum_{n<order} phi_n(x_q)^2 (zero where phi underflows)."""
    if order < 1:
        raise ValueError("order must be positive")
    nodes = _hermite_nodes(order)
    phi = ho_stack(order - 1, nodes)
    return nodes, np.sum(phi * phi, axis=0)


def gauss_hermite(order: int) -> QuadratureRule:
    """Gauss-Hermite rule via the Golub-Welsch Jacobi-matrix eigenproblem.

    Nodes are the Jacobi-matrix eigenvalues (see _hermite_nodes); weights
    follow from the Christoffel identity w_q = exp(-x_q^2) / sum_n phi_n(x_q)^2
    and read 0 where both factors underflow (|x| > ~38.6).  Integrates
    exp(-x^2) * p(x) exactly for polynomials p up to degree 2*order - 1.
    """
    nodes, sums = _christoffel_sums(order)
    weights = np.divide(np.exp(-nodes * nodes), sums, out=np.zeros(order), where=sums > 0.0)
    return QuadratureRule(nodes, weights, order)


def reweighted_rule(order: int) -> tuple[np.ndarray, np.ndarray]:
    """Gauss-Hermite nodes with the exp(+x^2) reweighting folded in.

    Returns (nodes, w) such that sum w_q f(x_q) ~ integral f dx for f with
    Gaussian-type decay.  The naive product weight * exp(node^2) underflows
    at the outer nodes for order ~ 200 even though the product is O(1); the
    Christoffel identity  w_q e^{x_q^2} = 1 / sum_{n<order} phi_n(x_q)^2
    is stable wherever phi_0 does not underflow.  Past |x| ~ 38.6 (reached
    from order 766 on) every phi_n underflows to 0 and w is +inf; callers
    check.
    """
    nodes, sums = _christoffel_sums(order)
    return nodes, np.divide(1.0, sums, out=np.full(order, np.inf), where=sums > 0.0)


def expand_function(
    f: Callable[[np.ndarray], np.ndarray],
    basis_size: int,
    order: Optional[int] = None,
    tail_tol: float = 1e-6,
) -> HOExpansion:
    """Project a sampled function onto the truncated oscillator basis.

    alpha_n = integral phi_n(x) f(x) dx, by Gauss-Hermite quadrature with the
    exp(+x^2) reweighting.  The tail mass 1 - sum |alpha_n|^2 (relative to
    the function's quadrature norm) is reported on the result and must stay
    below ``tail_tol``.

    Parameters
    ----------
    f : callable
        Vectorized sampler returning complex values.
    basis_size : int
        Number of retained coefficients M.
    order : int, optional
        Quadrature order; defaults to 2 * basis_size + 32 and must be at
        least 2 * basis_size for the projection to be consistent.
    """
    if order is None:
        order = 2 * basis_size + 32
    if order < 2 * basis_size:
        raise ValueError("quadrature order must be >= 2 * basis_size")
    nodes, w = reweighted_rule(order)
    fv = np.asarray(f(nodes), dtype=complex)
    phi = ho_stack(basis_size - 1, nodes)
    with np.errstate(invalid="ignore"):  # a non-finite projection raises below
        coeffs = phi @ (w * fv)
        total = float(np.sum(w * np.abs(fv) ** 2))
    captured = float(np.sum(np.abs(coeffs) ** 2))
    if not math.isfinite(total + captured):
        raise TruncationError(
            f"projection is not finite at basis size {basis_size} (quadrature order {order})"
        )
    tail = (total - captured) / total if total > 0 else 0.0
    if tail > tail_tol:
        raise TruncationError(
            f"tail mass {tail:.3e} exceeds {tail_tol:.1e} at basis size {basis_size}"
        )
    return HOExpansion(coeffs=coeffs, tail=tail)


def basis_parity(n: int) -> int:
    """Inversion eigenvalue of phi_n: (-1)^n."""
    return -1 if n % 2 else 1
