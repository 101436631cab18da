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
single product: nothing cancels, at any index.  The table is therefore held
as its two boundary vectors (``HOOverlapTable.phi0``, ``dphi0``); the dense
M x M array is formed only on request (``entries``), for tests and oracles.

Rotating the cut by a phase-space angle theta multiplies basis state n by
e^{i n theta}, so for coefficient rows L and R the cut Gramian is

    O(theta)_{ab} = sum_{mn} conj(L_am) R_bn e^{i(n-m) theta} T_mn.

The table has displacement rank 2: (n - m) T_mn = [a_m b_n - b_m a_n] / 2
with a = phi(0) and b = phi'(0).  The diagonal T_mm = 1/2 gives a constant
term, and since a vanishes at odd and b at even indices, every other term
has an odd lag k = n - m.  Grouping by lag,

    O(theta) = 1/2 conj(L) R^T + sum_{k odd, |k| < M} C_k e^{i k theta},
    C_k = [(conj(L) a * R b)_k - (conj(L) b * R a)_k] / (2 k),

where (u * y)_k = sum_m u_m y_{m+k} is the cross-correlation of the
boundary-weighted rows.  Differentiating shows what C_k are:
dO/dtheta = (i/2)[conj(F_L) G_R^T - conj(G_L) F_R^T], with F(theta) =
sum_n R_n a_n e^{i n theta} (likewise for L) and G(theta) the same with b,
the values and slopes of the rotated orbitals on the cut line.  The Gramian changes only
by a rank-2 current through the cut's boundary, and the C_k are its Fourier
coefficients divided by i k.  The left cut x <= 0 has table 1 - T, so its
Gramian is conj(L) R^T - O(theta).

Every caller builds the harmonics of its row sets once
(``gramian_harmonics``) and evaluates them.  The build takes the constant
term 1/2 conj(L) R^T as one product over all left rows and every C_k at
once: FFTs of length P >= 2M - 1 of the four boundary-weighted row sets, a
product per (a, b) pair and one inverse FFT per pair,
O((N_L + N_R) P log P + N_L N_R P log P).
``evaluate_gramians`` sums the series, O(N_L N_R M) per angle, where the
dense product conj(L) e^{-i n theta} T e^{i n theta} R^T costs O(N_L M^2).
On the uniform grid theta_j = 2 pi j / K (K even) the series is a DFT, and
``evaluate_half_turn`` sums the first half turn, j < K/2: with k = 2q + 1,
e^{ik theta_j} = e^{2 pi i j / K} e^{2 pi i j q / (K/2)}, so each C_k is added
to bin (k mod K) // 2 (lags beyond K fold onto the same bins), one inverse
FFT of length K/2 per entry sums the bins, and angle j is multiplied by
the twiddle e^{2 pi i j / K}: O(N_L N_R K log K) instead of O(N_L N_R M K).
The second half turn needs no Gramian of its own: O(theta + pi) =
conj(L) R^T - O(theta), the left cut.

A ``GramianHarmonics`` holds its coefficients when one build fits
HARMONIC_BYTES; otherwise ``coeffs`` is None.  Both evaluations, and
``lag_norms`` (||C_k||_F per lag), run one loop over blocks of left rows'
C_k: the held coefficients are one block; otherwise each call rebuilds them
harmonic_rows left rows at a time, with one table lookup and one transform
of the right rows.  A left row's C_k come from that row alone and the
constant term is added once at the end, so the half turn has the same bits
either way.  ``evaluate_gramians`` takes angles in blocks of ANGLE_BLOCK,
so memory stays bounded on long grids and wide states.  Each of its angles'
values is its own vector-matrix product, so it does not depend on which
other angles share a call.

A cut translated to x >= t has no closed form and is done by panelled
Gauss-Legendre quadrature in the reconstructed position representation.
``rotated_overlap`` and ``translated_overlap`` return the N x N Gramian of a
state as a plain array.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .hobasis import ho_stack
from .states import SlaterState

__all__ = [
    "GramBoundError",
    "GramianHarmonics",
    "HOOverlapTable",
    "ho_halfspace_overlap",
    "ho_overlap_table",
    "overlap_quadrature_oracle",
    "rotated_overlap",
    "translated_overlap",
    "clamp_unit_interval",
    "evaluate_gramians",
    "evaluate_half_turn",
    "gramian_harmonics",
    "harmonic_rows",
    "lag_norms",
]

GRAM_CLAMP_TOL = 1e-9
HARMONIC_BYTES = 1 << 26
ANGLE_BLOCK = 64
COLUMN_BYTES = 1 << 19


class GramBoundError(Exception):
    """An overlap eigenvalue escaped [0, 1] by more than the clamping slack."""


@dataclass(frozen=True)
class HOOverlapTable:
    """The half-line overlap table of phi_0 .. phi_{M-1}, held as the two
    boundary vectors phi_n(0) and phi_n'(0) it is built from."""

    phi0: np.ndarray
    dphi0: np.ndarray

    @property
    def basis_size(self) -> int:
        return len(self.phi0)

    @property
    def entries(self) -> np.ndarray:
        """The dense symmetric M x M table T_mn, formed on request."""
        idx = np.arange(self.basis_size)
        return _wronskian_overlap(self.phi0, self.dphi0, idx[:, None], idx[None, :])


@dataclass(frozen=True)
class GramianHarmonics:
    """O(theta) = half + sum_k coeffs[k] e^{i orders[k] theta} for the rows (left, right).

    ``orders`` are the odd lags -top .. top ascending (top the largest odd
    number below M), ``half`` is 1/2 conj(L) R^T and ``coeffs`` the matching
    C_k, one flattened N_L * N_R row per lag, or None when not held.
    """

    left: np.ndarray
    right: np.ndarray
    orders: np.ndarray
    half: np.ndarray
    coeffs: np.ndarray | None


_master_table: HOOverlapTable | None = None


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
    """The M x M half-line overlap table (views into a growing cache).

    Smaller tables are leading parts of larger ones, so one master table is
    kept and replaced by a larger one on demand.
    """
    global _master_table
    if _master_table is None or _master_table.basis_size < basis_size:
        phi, dphi = _boundary_values(basis_size - 1)
        for array in (phi, dphi):
            array.flags.writeable = False
        _master_table = HOOverlapTable(phi0=phi, dphi0=dphi)
    return HOOverlapTable(phi0=_master_table.phi0[:basis_size],
                          dphi0=_master_table.dphi0[:basis_size])


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


def overlap_quadrature_oracle(m: int, n: int) -> float:
    """Brute-force half-line overlap by panelled Gauss-Legendre quadrature.

    Independent of the closed form; integrates phi_m phi_n over [0, X] with
    X = sqrt(4 M) + 10, M = max(m, n) + 1, in unit panels.  A budget of
    2 (m + n) points is spread over the panels, at least 24 per panel so the
    fastest oscillation, wavelength ~ 2 pi / sqrt(2 max(m,n)), is resolved.
    """
    top = max(m, n)
    x_cut = math.sqrt(4.0 * (top + 1)) + 10.0
    n_panels = int(math.ceil(x_cut))
    per_panel = max(24, -(-2 * (m + n) // n_panels))
    nodes, weights = _panelled_legendre(0.0, x_cut, per_panel)
    phi = ho_stack(top, nodes)
    return float(np.sum(weights * phi[m] * phi[n]))


def _fft_length(basis_size: int) -> int:
    """Power of two P >= 2M - 1, so lags -(M - 1) .. M - 1 do not alias mod P."""
    return 1 << max(0, 2 * basis_size - 2).bit_length()


def harmonic_rows(n_right: int, basis_size: int) -> int:
    """Left rows per harmonics build whose workspace fits HARMONIC_BYTES.

    Per left row the build holds three N_R x P complex arrays (the product
    spectrum, its inverse FFT and the gathered lags); at least one row.
    """
    return max(1, HARMONIC_BYTES // (48 * max(1, n_right) * _fft_length(basis_size)))


def _coefficient_blocks(left: np.ndarray, right: np.ndarray, orders: np.ndarray, rows: int):
    """(columns, C_k) for each block of ``rows`` left rows (an empty left set
    is one empty block), from one table lookup and one transform of R.

    C_k = [(conj(L) a * R b)_k - (conj(L) b * R a)_k] / (2 k) for odd k, the
    correlations taken for all lags by FFTs of length P >= 2M - 1.  A block's
    C_k fill ``columns`` of the flattened N_L * N_R entries, one row per lag;
    each left row's come from that row alone, whatever ``rows`` is.
    """
    m = left.shape[1]
    table = ho_overlap_table(m)
    a, b = table.phi0, table.dphi0
    p = _fft_length(m)
    ra, rb = (np.fft.fft(right * g, p)[None, :, :] for g in (a, b))
    for k in range(0, max(1, len(left)), rows):
        block = left[k : k + rows]
        la, lb = (np.fft.fft(block * g, p).conj()[:, None, :] for g in (a, b))
        lags = np.fft.ifft(la * rb - lb * ra)[:, :, orders % p] / (2.0 * orders)
        coeffs = np.moveaxis(lags, 2, 0).reshape(len(orders), len(block) * len(right))
        yield slice(k * len(right), (k + len(block)) * len(right)), np.ascontiguousarray(coeffs)


def gramian_harmonics(left: np.ndarray, right: np.ndarray) -> GramianHarmonics:
    """The Fourier series over theta of the right-cut Gramian of rows (L, R).

    The constant term is always held.  The coefficients are built and held
    when one build fits HARMONIC_BYTES; otherwise nothing more is built
    here, and each evaluation rebuilds them.
    """
    m = left.shape[1]
    orders = np.arange(1 - m + m % 2, m, 2)  # the odd lags below M
    coeffs = None
    if harmonic_rows(len(right), m) >= len(left):
        ((_, coeffs),) = _coefficient_blocks(left, right, orders, max(1, len(left)))
    return GramianHarmonics(left, right, orders, 0.5 * (left.conj() @ right.T), coeffs)


def _blocks(h: GramianHarmonics):
    """(columns, C_k) per block of left rows: the held coefficients as one
    block, or a rebuild in blocks of harmonic_rows rows."""
    if h.coeffs is not None:
        return [(slice(None), h.coeffs)]
    return _coefficient_blocks(h.left, h.right, h.orders,
                               harmonic_rows(len(h.right), h.left.shape[1]))


def lag_norms(h: GramianHarmonics) -> np.ndarray:
    """||C_k||_F for each lag of ``orders``: from the held coefficients, or
    summed over one rebuild pass."""
    squares = np.zeros(len(h.orders))
    for _, coeffs in _blocks(h):
        squares += np.add.reduce((coeffs.conj() * coeffs).real, axis=1)
    return np.sqrt(squares)


def _odd_phases(thetas: np.ndarray, count: int) -> np.ndarray:
    """(K, count) table of e^{i(2j+1)theta}, j < count, from about 2 sqrt(count) exps.

    With j = q s + r it is e^{i(2r+1)theta} e^{2iqs theta}: each entry is one
    product of two exps, within a few ulps, computed from its own angle only.
    """
    s = max(1, math.isqrt(count))
    q = -(-count // s)
    fine = np.exp(np.multiply.outer(thetas, 1j * (2 * np.arange(s) + 1)))
    coarse = np.exp(np.multiply.outer(thetas, 2j * s * np.arange(q)))
    return (coarse[:, :, None] * fine[:, None, :]).reshape(len(thetas), q * s)[:, :count]


def evaluate_gramians(h: GramianHarmonics, thetas, side: str = "right") -> np.ndarray:
    """(K, N_L, N_R) stack of the Gramians O(theta) summed from their harmonics.

    ``side`` = "right" uses the half line x >= 0; "left" uses x <= 0, whose
    Gramian is conj(L) R^T - O(theta).
    """
    if side not in ("right", "left"):
        raise ValueError("side must be 'right' or 'left'")
    thetas = np.asarray(thetas, dtype=float)
    out = np.empty((len(thetas), len(h.left), len(h.right)), dtype=complex)
    flat = out.reshape(len(thetas), 1, h.half.size)  # a view: each angle's entries are contiguous
    cols = max(1, COLUMN_BYTES // (16 * max(1, len(h.orders))))
    for columns, coeffs in _blocks(h):
        part = flat[:, :, columns]
        for k in range(0, len(thetas), ANGLE_BLOCK):
            pos = _odd_phases(thetas[k : k + ANGLE_BLOCK], len(h.orders) // 2)
            e = np.concatenate((pos[:, ::-1].conj(), pos), axis=1)[:, None, :]  # lags -top .. top
            # one vector-matrix product per angle (a single gemm over the block
            # would make an angle's bits depend on its neighbours), on column
            # blocks of the harmonics that stay in cache across the block's angles
            for j in range(0, coeffs.shape[1], cols):
                np.matmul(e, coeffs[:, j : j + cols], out=part[k : k + ANGLE_BLOCK, :, j : j + cols])
    if side == "right":
        out += h.half
    else:
        np.subtract(h.half, out, out=out)
    return out


def evaluate_half_turn(h: GramianHarmonics, count: int) -> np.ndarray:
    """(K/2, N_L, N_R) right-cut Gramians O(2 pi j / K), j < K/2, K = count even,
    summed from their harmonics.

    C_k goes to bin (k mod K) // 2, one inverse FFT of length K/2 per entry
    sums the bins, and angle j is multiplied by the twiddle e^{2 pi i j / K}
    (module docstring).  Each block of left rows is binned and transformed
    in its columns of the output, so the peak is the stack plus one block's
    transform: about twice the stack when the coefficients are held.
    """
    if count < 2 or count % 2:
        raise ValueError("count must be a positive even number")
    half_k = count // 2
    out = np.zeros((half_k, h.half.size), dtype=complex)
    slots = (h.orders % count) // 2
    for columns, coeffs in _blocks(h):
        bins = out[:, columns]
        for s in range(0, len(slots), half_k):  # K/2 consecutive odd lags fill distinct bins
            bins[slots[s : s + half_k]] += coeffs[s : s + half_k]
        bins[...] = np.fft.ifft(bins, axis=0, norm="forward")
    out *= np.exp(2j * math.pi / count * np.arange(half_k))[:, None]
    out = out.reshape(half_k, *h.half.shape)
    out += h.half
    return out


def rotated_overlap(state: SlaterState, theta: float, side: str = "right") -> np.ndarray:
    """N x N cut Gramian after rotating the cut by theta (``side`` as in evaluate_gramians)."""
    return evaluate_gramians(gramian_harmonics(state.coeffs, state.coeffs), [theta], side)[0]


def translated_overlap(state: SlaterState, offset: float) -> np.ndarray:
    """N x N cut Gramian for the translated position cut x >= offset.

    Quadrature in the position representation reconstructed from the
    oscillator coefficients; the integration window ends at X = sqrt(4 M) + 10,
    where every basis function is negligible, and takes about 4 M points over
    [0, X] with at least 24 per unit panel (the oracle's rule).  Offsets at or
    beyond X give zeros, and offsets at or below -X start the window at -X:
    -inf gives the full-line Gramian.  A NaN offset raises ValueError.
    """
    if math.isnan(offset):
        raise ValueError(f"offset {offset!r} is not a number")
    m = state.basis_size
    x_cut = math.sqrt(4.0 * m) + 10.0
    if offset >= x_cut:
        return np.zeros((state.n_particles, state.n_particles), dtype=complex)
    nodes, weights = _panelled_legendre(max(offset, -x_cut), x_cut,
                                        max(24, -(-4 * m // math.ceil(x_cut))))
    psi = state.coeffs @ ho_stack(m - 1, nodes).astype(complex)
    o = (psi.conj() * weights) @ psi.T
    return 0.5 * (o + o.conj().T)


def clamp_unit_interval(values: np.ndarray) -> np.ndarray:
    """Clamp Gramian eigenvalues to [0, 1]; excursions beyond GRAM_CLAMP_TOL,
    and NaN, are bugs."""
    values = np.asarray(values, dtype=float)
    low, high = values.min(initial=0.0), values.max(initial=1.0)
    if not (low >= -GRAM_CLAMP_TOL and high <= 1.0 + GRAM_CLAMP_TOL):
        raise GramBoundError(f"overlap spectrum [{low:.3e}, {high:.3e}] escapes [0,1] "
                             f"beyond {GRAM_CLAMP_TOL:.0e}")
    return np.clip(values, 0.0, 1.0)
