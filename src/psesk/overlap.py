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
coefficients divided by i k.  Every lag is odd, so

    O(theta + pi) = conj(L) R^T - O(theta),

the Gramian of the left cut x <= 0 (table 1 - T) at theta: a cut through
the origin turned by pi swaps the two subsystems, and the right cut is the
only one computed.

Both evaluations build the harmonics of their row sets as they go and
hold none of them.  The constant term 1/2 conj(L) R^T is one product over
all left rows; the C_k come at once from FFTs of length P >= 2M - 1 of the
four boundary-weighted row sets (only two for parity-sorted sectors,
whose other two are 0), a product per (a, b) pair and one inverse FFT per
pair, O((N_L + N_R) P log P + N_L N_R P log P), built ``_harmonic_rows``
left rows at a time so that one block's workspace fits HARMONIC_BYTES,
with one table lookup and one transform of the right rows.  A left row's
C_k come from that row alone and the constant term is added once at the
end.  ``evaluate_gramians`` sums the series, O(N_L N_R M) per angle, where
the dense product conj(L) e^{-i n theta} T e^{i n theta} R^T costs
O(N_L M^2); it takes angles in blocks of ANGLE_BLOCK, so memory stays
bounded on long grids and wide states, and each angle's values are its
own vector-matrix product, so they do not depend on which other angles
share a call.  On the uniform grid theta_j = 2 pi j / K (K even) the
series is a DFT, and ``evaluate_half_turn`` sums the first half turn,
j < K/2: with k = 2q + 1, e^{ik theta_j} = e^{2 pi i j / K}
e^{2 pi i j q / (K/2)}, so each C_k is added to bin (k mod K) // 2 (lags
beyond K fold onto the same bins), one inverse FFT of length K/2 per entry
sums the bins, and angle j is multiplied by the twiddle e^{2 pi i j / K}:
O(N_L N_R K log K) instead of O(N_L N_R M K).  The second half turn needs
no Gramian of its own: it is the left cut of the first.

A Gramian with no constant term, such as the even-odd block of
parity-sorted sectors (conj(L) R^T = 0 for rows of opposite parity), is
fixed at every angle by G >= M of its values m_j = m(pi j / G), j < G,
the first half turn of the DFT grid of 2G angles: its lags are odd and
below G, so

    m(theta) = (1/G) sum_j m_j sin(G d_j) / sin(d_j),   d_j = theta - pi j / G,

exactly, since sin(G d) / sin(d) = sum_{p odd, |p| < G} e^{i p d} for G
even (trigonometric interpolation; Berrut and Trefethen, SIAM Rev. 46
(2004) 501).  ``_interpolate_half_turn`` sums it, O(G N_L N_R) per angle:
an angle that ``np.linspace(0, pi, G + 1)`` spells gathers its block (pi
gives -m_0), and every other angle is its own vector-matrix product, with
weights that keep their relative accuracy however close it is to a grid
angle.

``rotated_overlap`` returns the N x N Gramian of a state as a plain array.
The oracles here are independent of the closed form and no production path
calls them: ``overlap_quadrature_oracle`` integrates one table entry by
panelled Gauss-Legendre quadrature, and ``translated_overlap`` takes a cut
translated to x >= t, which has no closed form, by the same quadrature in
the reconstructed position representation.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .hobasis import ho_stack
from .states import NumericError, SlaterState

__all__ = [
    "GramBoundError",
    "HOOverlapTable",
    "ho_overlap_table",
    "overlap_quadrature_oracle",
    "rotated_overlap",
    "translated_overlap",
    "clamp_unit_interval",
    "evaluate_gramians",
    "evaluate_half_turn",
]

GRAM_CLAMP_TOL = 1e-9
HARMONIC_BYTES = 1 << 26
ANGLE_BLOCK = 64
COLUMN_BYTES = 1 << 19


class GramBoundError(NumericError):
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


def _harmonic_rows(n_right: int, basis_size: int) -> int:
    """Left rows per block of harmonics whose workspace fits HARMONIC_BYTES.

    Per left row a block holds three N_R x P complex arrays (the product
    spectrum, its inverse FFT and the gathered lags); at least one row.
    """
    return max(1, HARMONIC_BYTES // (48 * max(1, n_right) * _fft_length(basis_size)))


def _spectrum(rows: np.ndarray, weights: np.ndarray, p: int) -> np.ndarray | None:
    """FFT of length p of the boundary-weighted rows, or None when they are all 0."""
    weighted = rows * weights
    return np.fft.fft(weighted, p) if weighted.any() else None


def _coefficient_blocks(left: np.ndarray, right: np.ndarray):
    """(columns, C_k) for each block of _harmonic_rows left rows (an empty
    left set is one empty block), from one table lookup and one transform of R.

    C_k = [(conj(L) a * R b)_k - (conj(L) b * R a)_k] / (2 k) for the odd
    lags k = -top .. top, top the largest odd number below M, the
    correlations taken for all lags by FFTs of length P >= 2M - 1.  A row
    set whose boundary weights are all 0 is not transformed and its term is
    dropped: for parity-sorted sectors (even L, odd R) conj(L) b and R a
    vanish, so one product of two transforms is the whole spectrum.  A
    block's C_k fill ``columns`` of the flattened N_L * N_R entries, one row
    per lag; each left row's come from that row alone, whatever the block
    size is, up to the sign of an exact 0.
    """
    m = left.shape[1]
    table = ho_overlap_table(m)
    a, b = table.phi0, table.dphi0
    p, orders = _fft_length(m), np.arange(1 - m + m % 2, m, 2)
    rows = _harmonic_rows(len(right), m)
    ra, rb = (_spectrum(right, g, p) for g in (a, b))
    for k in range(0, max(1, len(left)), rows):
        block = left[k : k + rows]
        la, lb = (_spectrum(block, g, p) for g in (a, b))
        if la is None or rb is None:
            spectrum = np.zeros((len(block), len(right), p), dtype=complex)
        else:
            spectrum = la.conj()[:, None, :] * rb
        if lb is not None and ra is not None:
            spectrum -= lb.conj()[:, None, :] * ra
        lags = np.fft.ifft(spectrum)[:, :, orders % p] / (2.0 * orders)
        coeffs = np.moveaxis(lags, 2, 0).reshape(len(orders), len(block) * len(right))
        yield slice(k * len(right), (k + len(block)) * len(right)), np.ascontiguousarray(coeffs)


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


def _per_angle_sums(weights: np.ndarray, values: np.ndarray, out: np.ndarray) -> None:
    """out[a] = weights[a] @ values for each angle a: one vector-matrix product
    per angle (a single gemm would make an angle's bits depend on its
    neighbours), on column blocks of ``values`` that stay in cache across
    the angles."""
    cols = max(1, COLUMN_BYTES // (values.itemsize * max(1, len(values))))
    for j in range(0, values.shape[1], cols):
        np.matmul(weights[:, None, :], values[:, j : j + cols], out=out[:, None, j : j + cols])


def evaluate_gramians(left: np.ndarray, right: np.ndarray, thetas) -> np.ndarray:
    """(K, N_L, N_R) stack of the right-cut Gramians O(theta) of the rows
    (L, R), summed from their harmonics (the left cut at theta is the right
    cut at theta + pi)."""
    thetas = np.asarray(thetas, dtype=float)
    out = np.empty((len(thetas), len(left), len(right)), dtype=complex)
    flat = out.reshape(len(thetas), len(left) * len(right))  # a view: one row per angle
    for columns, coeffs in _coefficient_blocks(left, right):
        for k in range(0, len(thetas), ANGLE_BLOCK):
            pos = _odd_phases(thetas[k : k + ANGLE_BLOCK], len(coeffs) // 2)
            e = np.concatenate((pos[:, ::-1].conj(), pos), axis=1)  # lags -top .. top
            _per_angle_sums(e, coeffs, flat[k : k + ANGLE_BLOCK, columns])
    out += 0.5 * (left.conj() @ right.T)
    return out


def evaluate_half_turn(left: np.ndarray, right: np.ndarray, count: int) -> np.ndarray:
    """(K/2, N_L, N_R) right-cut Gramians O(2 pi j / K), j < K/2, K = count even,
    of the rows (L, R), summed from their harmonics.

    C_k goes to bin (k mod K) // 2, one inverse FFT of length K/2 per entry
    sums the bins, and angle j is multiplied by the twiddle e^{2 pi i j / K}
    (module docstring).  Each block of left rows is binned into its columns
    of the output and transformed there in place, so the peak stays near
    the stack itself.
    """
    if count < 2 or count % 2:
        raise ValueError("count must be a positive even number")
    half_k = count // 2
    out = np.zeros((half_k, len(left) * len(right)), dtype=complex)
    for columns, coeffs in _coefficient_blocks(left, right):
        bins = out[:, columns]
        slots = (np.arange(1 - len(coeffs), len(coeffs), 2) % count) // 2  # lags -top .. top
        for s in range(0, len(slots), half_k):  # K/2 consecutive odd lags fill distinct bins
            bins[slots[s : s + half_k]] += coeffs[s : s + half_k]
        np.fft.ifft(bins, axis=0, norm="forward", out=bins)
    out *= np.exp(2j * math.pi / count * np.arange(half_k))[:, None]
    out = out.reshape(half_k, len(left), len(right))
    out += 0.5 * (left.conj() @ right.T)
    return out


def _interpolate_half_turn(blocks: np.ndarray, thetas) -> np.ndarray:
    """(K, N_L, N_R) stack of m(theta) from its G values ``blocks``,
    m(pi j / G) for j < G, by trigonometric interpolation (module docstring).

    Exact for a Gramian with no constant term and odd lags below G, G a
    power of two.  An angle that np.linspace(0, pi, G + 1) spells gathers
    its block, pi giving -m(0).  Every other angle sums the blocks with the
    weights sin(G d_j) / (G sin d_j) = (-1)^{j + k_j} sin(G theta) / (G sin d_j'),
    d_j = theta - pi j / G = d_j' + k_j pi with k_j whole half turns and
    |d_j'| <= pi / 2: G theta is exact, and d_j' is taken against pi itself,
    not a rounded grid angle, so each weight keeps its relative accuracy
    however close theta is to a grid angle or its image a half turn away.
    The sum is one real vector-matrix product per angle over the blocks'
    real and imaginary parts (_per_angle_sums), in blocks of ANGLE_BLOCK
    angles, so its bits do not depend on which other angles share the call.
    """
    thetas, blocks = np.asarray(thetas, dtype=float), np.ascontiguousarray(blocks, dtype=complex)
    size, width = len(blocks), 2 * blocks[0].size
    grid = np.linspace(0.0, math.pi, size + 1)
    out = np.empty((len(thetas), *blocks.shape[1:]), dtype=complex)
    index = np.minimum(np.searchsorted(grid, thetas), size)
    on = grid[index] == thetas
    np.take(blocks, np.where(on, index % size, 0), axis=0, out=out, mode="clip")  # no temporary
    out[on & (index == size)] *= -1.0
    values = blocks.view(float).reshape(size, width)
    indices = np.arange(size)
    off = np.flatnonzero(~on)
    for k in range(0, len(off), ANGLE_BLOCK):
        angles = thetas[off[k : k + ANGLE_BLOCK], None]
        turns = np.round(angles / math.pi - indices / size)  # k_j, so |d_j'| <= pi / 2
        # d_j' = theta - pi n, with pi in three parts, the first two of 26 and
        # 27 bits: n times either is exact, so d_j' is rounded only at the end
        n = turns + indices / size
        d = angles - n * 3.1415926218032837 - n * 3.1786509424591713e-08
        d -= n * 1.2246467991473532e-16
        part = np.empty((len(angles), width))
        _per_angle_sums(np.where((turns + indices) % 2, -1.0, 1.0) * np.sin(size * angles) / size
                        / np.sin(d), values, part)
        out.view(float).reshape(len(thetas), width)[off[k : k + ANGLE_BLOCK]] = part
    return out


def rotated_overlap(state: SlaterState, theta: float) -> np.ndarray:
    """N x N right-cut Gramian after rotating the cut by theta; the left cut
    at theta is ``rotated_overlap(state, theta + pi)``."""
    return evaluate_gramians(state.coeffs, state.coeffs, [theta])[0]


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
