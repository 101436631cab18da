"""Half-line overlap matrices.

The Gramian of the occupied orbitals restricted to the half line x >= 0 is
the object everything else derives from.  For oscillator eigenfunctions the
entries T_mn = <phi_m | phi_n>_{x>=0} follow from Green's identity.  With
H = (p^2 + x^2)/2 and H phi_n = (n + 1/2) phi_n,

    (n - m) phi_m phi_n = phi_m H phi_n - phi_n H phi_m
                        = -1/2 d/dx [phi_m phi_n' - phi_m' phi_n],

and integrating over [0, inf), where the eigenfunctions decay, leaves the
boundary Wronskian at the origin:

    T_mn = [phi_m(0) phi_n'(0) - phi_m'(0) phi_n(0)] / (2 (n - m))   (m != n)
    T_mm = 1/2                              (phi_m^2 is even and normalized).

The values phi_n(0) come from the oscillator recurrence at x = 0 and the
slopes from the ladder relation phi_n' = sqrt(n/2) phi_{n-1}
- sqrt((n+1)/2) phi_{n+1}.  phi_n(0) vanishes for odd n and phi_n'(0) for
even n, so an entry with m + n even is exactly 0 and one with m + n odd is a
single product: nothing cancels, at any index.

Rotating the cut by a phase-space angle theta multiplies basis state n by
e^{i n theta}, so for a Slater state with coefficient rows A the cut Gramian
is  O(theta)_{ab} = sum_{mn} conj(A_am) A_bn e^{i(n-m) theta} T_mn  with T
the table above.  A cut translated to x >= t has no closed form and is done
by panelled Gauss-Legendre quadrature in the reconstructed position
representation.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .hobasis import ho_stack
from .states import SlaterState

__all__ = [
    "GramBoundError",
    "HOOverlapTable",
    "OverlapMatrix",
    "ho_halfspace_overlap",
    "ho_overlap_table",
    "overlap_quadrature_oracle",
    "rotated_overlap",
    "translated_overlap",
    "clamp_unit_interval",
]

GRAM_CLAMP_TOL = 1e-9


class GramBoundError(Exception):
    """An overlap eigenvalue escaped [0, 1] by more than the clamping slack."""


@dataclass(frozen=True)
class HOOverlapTable:
    """Symmetric M x M table of half-line overlaps of phi_m and phi_n."""

    entries: np.ndarray

    @property
    def basis_size(self) -> int:
        return self.entries.shape[0]


@dataclass(frozen=True)
class OverlapMatrix:
    """Cut Gramian of a Slater state: Hermitian, spectrum in [0, 1].

    ``cut`` is "rotation" or "translation"; ``parameter`` the angle/offset.
    """

    entries: np.ndarray
    cut: str
    parameter: float


_master_table: np.ndarray | None = None


def _boundary_values(top: int) -> tuple[np.ndarray, np.ndarray]:
    """phi_n(0) and phi_n'(0) for n = 0 .. top."""
    phi = ho_stack(top + 1, 0.0)[:, 0]
    n = np.arange(top + 1)
    below = np.concatenate(([0.0], phi[:top]))
    dphi = np.sqrt(n / 2.0) * below - np.sqrt((n + 1) / 2.0) * phi[1:]
    return phi[: top + 1], dphi


def _wronskian_overlap(phi: np.ndarray, dphi: np.ndarray, m, n):
    """T_mn from the boundary values; integer or broadcast index arrays m, n."""
    with np.errstate(divide="ignore", invalid="ignore"):
        off = (phi[m] * dphi[n] - dphi[m] * phi[n]) / (2.0 * (n - m))
    return np.where(m == n, 0.5, off)


def ho_halfspace_overlap(m: int, n: int) -> float:
    """<phi_m|phi_n> restricted to x >= 0 (the boundary-Wronskian formula)."""
    if m < 0 or n < 0:
        raise ValueError("indices must be nonnegative")
    return float(_wronskian_overlap(*_boundary_values(max(m, n)), m, n))


def ho_overlap_table(basis_size: int) -> HOOverlapTable:
    """The M x M half-line overlap table (a view into a growing cache).

    Smaller tables are leading submatrices of larger ones, so one master
    table is kept and grown on demand.
    """
    global _master_table
    if _master_table is None or _master_table.shape[0] < basis_size:
        idx = np.arange(basis_size)
        t = _wronskian_overlap(*_boundary_values(basis_size - 1), idx[:, None], idx[None, :])
        t.flags.writeable = False
        _master_table = t
    return HOOverlapTable(entries=_master_table[:basis_size, :basis_size])


def _panelled_legendre(lo: float, hi: float, points_per_panel: int):
    """Gauss-Legendre nodes/weights on [lo, hi] split into unit-width panels."""
    n_panels = max(1, int(math.ceil(hi - lo)))
    gx, gw = np.polynomial.legendre.leggauss(points_per_panel)
    edges = np.linspace(lo, hi, n_panels + 1)
    half = 0.5 * np.diff(edges)
    mid = 0.5 * (edges[:-1] + edges[1:])
    nodes = (mid[:, None] + half[:, None] * gx[None, :]).ravel()
    weights = (half[:, None] * gw[None, :]).ravel()
    return nodes, weights


def overlap_quadrature_oracle(m: int, n: int, order: int | None = None) -> float:
    """Brute-force half-line overlap by panelled Gauss-Legendre quadrature.

    Independent of the closed form; integrates phi_m phi_n over [0, X] with
    X = sqrt(4 M) + 10, M = max(m, n) + 1, in unit panels.  ``order`` is the
    total point budget spread over the panels (at least 24 per panel so the
    fastest oscillation, wavelength ~ 2 pi / sqrt(2 max(m,n)), is resolved).
    """
    top = max(m, n)
    x_cut = math.sqrt(4.0 * (top + 1)) + 10.0
    n_panels = int(math.ceil(x_cut))
    if order is None:
        order = 2 * (m + n)
    per_panel = max(24, -(-order // n_panels))
    nodes, weights = _panelled_legendre(0.0, x_cut, per_panel)
    phi = ho_stack(top, nodes)
    return float(np.sum(weights * phi[m] * phi[n]))


def _phase_conjugated_table(table: np.ndarray, theta: float) -> np.ndarray:
    m = table.shape[0]
    ph = np.exp(1j * np.arange(m) * theta)
    return ph.conj()[:, None] * table * ph[None, :]


def rotated_overlap(state: SlaterState, theta: float, side: str = "right") -> OverlapMatrix:
    """Cut Gramian after rotating the cut by the phase-space angle theta.

    ``side`` = "right" uses the half line x >= 0; "left" uses x <= 0, whose
    table is 1 - T by completeness of the full-line inner product.
    """
    table = ho_overlap_table(state.basis_size).entries
    if side == "left":
        table = np.eye(state.basis_size) - table
    elif side != "right":
        raise ValueError("side must be 'right' or 'left'")
    a = state.coeffs
    o = a.conj() @ _phase_conjugated_table(table, theta) @ a.T
    o = 0.5 * (o + o.conj().T)
    return OverlapMatrix(entries=o, cut="rotation", parameter=float(theta))


def translated_overlap(state: SlaterState, offset: float) -> OverlapMatrix:
    """Cut Gramian for the translated position cut x >= offset.

    Quadrature in the position representation reconstructed from the
    oscillator coefficients; the integration window ends at
    X = sqrt(4 M) + 10 where every basis function is negligible.
    """
    m = state.basis_size
    x_cut = math.sqrt(4.0 * m) + 10.0
    if offset >= x_cut:
        entries = np.zeros((state.n_particles, state.n_particles), dtype=complex)
        return OverlapMatrix(entries=entries, cut="translation", parameter=float(offset))
    nodes, weights = _panelled_legendre(offset, x_cut, 24)
    psi = state.coeffs @ ho_stack(m - 1, nodes).astype(complex)
    o = (psi.conj() * weights) @ psi.T
    o = 0.5 * (o + o.conj().T)
    return OverlapMatrix(entries=o, cut="translation", parameter=float(offset))


def clamp_unit_interval(values: np.ndarray, tol: float = GRAM_CLAMP_TOL) -> np.ndarray:
    """Clamp Gramian eigenvalues to [0, 1]; excursions beyond tol are bugs."""
    values = np.asarray(values, dtype=float)
    low, high = values.min(initial=0.0), values.max(initial=1.0)
    if low < -tol or high > 1.0 + tol:
        raise GramBoundError(
            f"overlap spectrum [{low:.3e}, {high:.3e}] escapes [0,1] beyond {tol:.0e}"
        )
    return np.clip(values, 0.0, 1.0)
