"""Harmonic-oscillator eigenbasis: eigenfunctions, quadrature, projection.

Unit conventions: hbar = m = omega = 1, so the oscillator Hamiltonian is
(p^2 + x^2)/2 and the L2-normalized eigenfunctions are

    phi_n(x) = pi^{-1/4} (2^n n!)^{-1/2} H_n(x) exp(-x^2/2).

phi_n is evaluated by one scaled recurrence (ho_stack) that neither
overflows where H_n does nor underflows where exp(-x^2/2) does (|x| > 37.7),
so every phi_n up to the CLI's basis limit of 1024 is accurate at every x.
A single-particle state is its complex coefficient vector over phi_0 ..
phi_{M-1}; quadrature rules are (nodes, weights) pairs of arrays.
"""

from __future__ import annotations

import math
from typing import Callable

import numpy as np

__all__ = [
    "TruncationError",
    "ho_wavefunction",
    "ho_stack",
    "gauss_hermite",
    "reweighted_rule",
    "expand_function",
    "quadrature_order",
    "DEFAULT_BASIS_SIZE",
]

DEFAULT_BASIS_SIZE = 100
TAIL_TOL = 1e-6  # largest tail mass expand_function accepts
RESCALE = 1e150  # ho_stack divides its recurrence by this where it passes it
FAR_MARGIN = 90.0  # past sqrt(2 n + 1) + FAR_MARGIN, phi_n(x) is below any double


class TruncationError(Exception):
    """Raised when an expansion leaves too much weight beyond the basis."""


def ho_wavefunction(n: int, x):
    """Normalized oscillator eigenfunction phi_n(x); scalar or array x."""
    if n < 0:
        raise ValueError("index must be nonnegative")
    row = ho_stack(n, x)[n]
    return row if np.ndim(x) else float(row[0])


def ho_stack(n_max: int, x) -> np.ndarray:
    """All of phi_0 .. phi_{n_max} at the points x, shape (n_max+1, *x.shape).

    The recurrence runs on phi_k exp(x^2/2) from pi^{-1/4}.  Every 16 steps,
    points past RESCALE are divided by it and their log scale raised; each
    finished block of rows is then multiplied by exp(log scale - x^2/2).
    """
    x = np.atleast_1d(np.asarray(x, dtype=float))
    far = np.abs(x) > math.sqrt(2.0 * n_max + 1.0) + FAR_MARGIN
    x = np.where(far, 0.0, x)
    out = np.empty((n_max + 1, *x.shape))
    log_scale = -0.5 * x * x  # out[start:] holds phi_k * exp(-log_scale)
    start = 0
    out[0] = math.pi ** -0.25
    if n_max >= 1:
        out[1] = math.sqrt(2.0) * x * out[0]
    for k in range(2, n_max + 1):
        out[k] = math.sqrt(2.0 / k) * x * out[k - 1] - math.sqrt((k - 1.0) / k) * out[k - 2]
        if k % 16 == 0:
            big = np.maximum(np.abs(out[k - 1]), np.abs(out[k])) > RESCALE
            if np.any(big):
                out[start : k - 1] *= np.exp(log_scale)
                out[k - 1 : k + 1, big] /= RESCALE
                log_scale[big] += math.log(RESCALE)
                start = k - 1
    out[start:] *= np.exp(log_scale)
    out[:, far] = 0.0
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


def gauss_hermite(order: int) -> tuple[np.ndarray, np.ndarray]:
    """Gauss-Hermite (nodes, weights) for the weight exp(-x^2), via Golub-Welsch.

    Nodes are the Jacobi-matrix eigenvalues (see _hermite_nodes); weights
    follow from the Christoffel identity w_q = exp(-x_q^2) / sum_n phi_n(x_q)^2
    and read 0 where exp(-x_q^2) underflows (|x| > ~27.3).  Integrates
    exp(-x^2) * p(x) exactly for polynomials p up to degree 2*order - 1.
    """
    nodes, w = reweighted_rule(order)
    return nodes, np.exp(-nodes * nodes) * w


def reweighted_rule(order: int) -> tuple[np.ndarray, np.ndarray]:
    """Gauss-Hermite nodes with the exp(+x^2) reweighting folded in.

    Returns (nodes, w) such that sum w_q f(x_q) ~ integral f dx for f with
    Gaussian-type decay.  The naive product weight * exp(node^2) underflows
    at the outer nodes for order ~ 200 even though the product is O(1); the
    Christoffel identity  w_q e^{x_q^2} = 1 / sum_{n<order} phi_n(x_q)^2
    gives it directly, finite at every node because ho_stack carries the
    Gaussian inside its scaled recurrence.
    """
    if order < 1:
        raise ValueError("order must be positive")
    nodes = _hermite_nodes(order)
    phi = ho_stack(order - 1, nodes)
    return nodes, 1.0 / np.sum(phi * phi, axis=0)


def quadrature_order(basis_size: int) -> int:
    """Gauss-Hermite order for projecting onto M basis functions: 2 M + 32.

    Products phi_m phi_n of the basis need at least 2 M; the 32 spare
    points resolve the sampled function beyond them.
    """
    return 2 * basis_size + 32


def expand_function(
    f: Callable[[np.ndarray], np.ndarray], basis_size: int
) -> tuple[np.ndarray, float]:
    """Project a sampled function onto the truncated oscillator basis.

    Returns (coeffs, tail): alpha_n = integral phi_n(x) f(x) dx, by
    Gauss-Hermite quadrature of quadrature_order(basis_size) with the
    exp(+x^2) reweighting, and the tail mass 1 - sum |alpha_n|^2 relative to
    the function's quadrature norm, which must stay below TAIL_TOL.

    Parameters
    ----------
    f : callable
        Vectorized sampler returning complex values.
    basis_size : int
        Number of retained coefficients M.
    """
    order = quadrature_order(basis_size)
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
    if tail > TAIL_TOL:
        raise TruncationError(
            f"tail mass {tail:.3e} exceeds {TAIL_TOL:.1e} at basis size {basis_size}"
        )
    return coeffs, tail
