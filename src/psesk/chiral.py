"""Inversion-symmetry analysis of the rotated entanglement cut.

For an inversion-symmetric Slater state the orbitals can be rotated into
parity eigenstates; the cut Gramian then takes the form
O(theta) = (1 + M(theta))/2 with M strictly off-diagonal in the parity
grading, so the single-particle entanglement spectrum is symmetric about
zero (a chiral symmetry).  With equal even/odd counts the off-diagonal
block m(theta) is square and generically invertible, and the integer

    nu = (1/pi) * [phase of det m accumulated over theta in [0, pi]]

classifies the gapped spectra; unequal counts force |N_e - N_o| exact
zero-energy flat bands instead.  The Schmidt values themselves are
mu = 1/2 +- sigma_i(m(theta)), one pair per singular value of m, plus
the flat bands at exactly 1/2; entanglement.pses_sweep takes them from
one batched SVD of the blocks, ParitySortedState.half_turn_blocks on its
uniform grid and evaluate_gramians of the harmonics elsewhere.  They are
the values of the parity-sorted state, whose sectors are right singular
vectors of the coefficients' even and odd basis columns: a state
orthonormal only to within delta (SlaterState admits 1e-8), or with a
wrong-parity part of amplitude a (|lambda| = 1 - 2 a^2 for its inversion
eigenvalue, so PARITY_TOL admits a up to 7e-5), moves by up to that
much; and 1/2 - sigma near 0 loses relative accuracy like any small
eigenvalue, an energy |epsilon| carrying a relative error of about
eps * e^|epsilon|.

Rotating the cut by alpha multiplies oscillator level n by e^{i n alpha},
so a span of oscillator levels, a filling however its orbitals are mixed,
is invariant under the rotation: O(theta) is unitarily similar to O(0),
and in the levels' own rows m(theta) = D_e(theta)^* m(0) D_o(theta) with
diagonal phases e^{i n theta}.  Its sigma_i do not depend on theta, and
det m(theta) = e^{i S theta} det m(0), S the sum of the odd levels less
that of the even ones, so nu = S exactly.  parity_sort recognises such a
span on the raw rows C by its level residual C N - (C N C^H) C, N the
level operator, within LEVEL_TOL (M - 1), after the column weights
sum_a |c_an|^2, each 0 or 1 for a filling, have turned most other states
away; its sorted rows are the levels' unit rows, found without an SVD, and
ParitySortedState.levels names them (None for every other state).  The
sweep and the scan of a filling then read only m(0) = T[even levels, odd
levels] (level_block), from the table's boundary vectors: no harmonics and
no grid.

parity_sort remembers its last result in a weak dictionary keyed by the
state object, so the sweep and the scans of one state share one sort, its
harmonics and its grid.  The state's rows, the sort's, the harmonics and
the grid are read-only, so what the memo shares cannot change under it.

The scans start from det m on the uniform grid theta_j = pi j / G, the
first half of the DFT grid of 2G angles: its blocks come from one inverse
FFT per block entry (overlap.evaluate_half_turn), and the endpoint from
m(pi) = -m(0).  Each parity-sorted state with N_e = N_o holds these
blocks (ParitySortedState.grid_blocks) once they are made, so the
determinants, the scan's gap SVDs at grid angles, and every sweep whose
K angles divide 2G read one stack (half_turn_blocks); a state with
unequal sectors holds none, as no scan of it has a det m.  The blocks
live as long as the state is remembered.  G = max(DEFAULT_GRID,
2^ceil(log2 M)) for basis size M: the entries of m have odd lags
|k| < M, so no harmonic of m turns by more than pi per interval.  The
scan winds the demodulated determinant d(theta) = det m(theta)
e^{-i S theta}, S the rounded difference of the odd and the even
sectors' summed mean levels sum_a sum_n n |c_an|^2, and reports
nu(det m) = nu(d) + S: e^{-i S theta} winds by exactly -S over
[0, pi], so any integer S keeps nu exact, and for an oscillator filling,
det m proportional to e^{i (sum odd - sum even) theta}, d is constant.
A filling is scanned only when its gap sigma_min(m(0)) is below DET_FLOOR;
otherwise its scan is (S, G, (0, prod sigma), ()) with no grid at all.
States whose orbitals spread over many levels rely on the grid alone.

The winding and the gap closings come from one phase scan of that grid:
det m can wind only through a zero, where the chiral gap sigma_min(m)
closes.  The scan bisects every interval whose phase step of d is >= pi/2
(or undefined, at an exact zero) and evaluates only the midpoints, through
block_determinants; a bad interval narrower than RESOLUTION holds a zero
and is bisected no further, and an angle whose gap is below DET_FLOOR is a
closing too; its SVD takes the held block at a grid angle and evaluates
only a midpoint.  Each parity-sorted state keeps its grid's determinants
and one scan of them, which the winding, the closings and the minimum gap
(the smallest |det m| the scan evaluated) share.
"""

from __future__ import annotations

import math
import weakref
from dataclasses import dataclass
from functools import cached_property
from typing import Sequence

import numpy as np

from .overlap import (GramianHarmonics, _wronskian_overlap, evaluate_gramians, evaluate_half_turn,
                      gramian_harmonics, ho_overlap_table)
from .states import SlaterState

__all__ = [
    "NotInversionSymmetric",
    "GapClosed",
    "GridTooCoarse",
    "EmptyBlock",
    "ParitySortedState",
    "inversion_matrix",
    "parity_sort",
    "chiral_block",
    "level_block",
    "winding_number",
    "winding_scan",
    "flat_band_count",
    "detect_gap_closings",
    "minimum_block_gap",
    "block_determinants",
]

PARITY_TOL = 1e-8
DET_FLOOR = 1e-10
DEFAULT_GRID = 256  # the fewest base-grid intervals of any state
GRID_CAP = 16384
RESOLUTION = 1e-10  # a bad phase step this narrow holds a zero
# N has entries up to M - 1, so the level residual's roundoff grows like
# eps (M - 1) (at most 4e-16 (M - 1) on fillings up to N = 600 mixed by
# random unitaries); an admixture a of another level leaves a residual >= a
# and moves mu by O(a)
LEVEL_TOL = 1e-14


class NotInversionSymmetric(Exception):
    """The orbital span is not closed under inversion."""


class GapClosed(Exception):
    """The chiral gap closed on the winding grid, at the angles ``closings``;
    ``min_abs_det`` is the smallest |det m| the scan saw."""

    def __init__(self, closings: Sequence[float], min_abs_det: float):
        super().__init__(closings, min_abs_det)
        self.closings = closings
        self.min_abs_det = min_abs_det

    def __str__(self) -> str:
        return f"det m vanishes near theta = {self.closings[0]:.6f}; winding undefined"


class GridTooCoarse(Exception):
    """Phase steps stayed >= pi/2 after GRID_CAP bisection midpoints."""


class EmptyBlock(Exception):
    """No even-odd block exists (one parity sector is empty), or det m is
    asked of one that is not square (N_e != N_o)."""


@dataclass(frozen=True, eq=False)
class ParitySortedState:
    """Orthonormal parity-eigenstate rows, even-parity rows first.

    ``levels`` holds, for a filling of oscillator levels, the occupied level
    of each row (the rows are then those levels' unit rows), and is None
    for every other state.
    """

    coeffs: np.ndarray
    n_even: int
    n_odd: int
    levels: np.ndarray | None = None

    @cached_property
    def harmonics(self) -> GramianHarmonics:
        """Harmonics of the even-odd block m(theta), made on first use.

        Their coefficients are held or rebuilt per evaluation by the overlap
        module's rule (overlap.gramian_harmonics).  Raises EmptyBlock when a
        parity sector is empty.
        """
        if self.n_even == 0 or self.n_odd == 0:
            raise EmptyBlock("both parity sectors must be occupied")
        return gramian_harmonics(self.coeffs[: self.n_even], self.coeffs[self.n_even :])

    @property
    def grid_size(self) -> int:
        """G = max(DEFAULT_GRID, 2^ceil(log2 M)): the base grid's intervals over [0, pi]."""
        return max(DEFAULT_GRID, 1 << (self.coeffs.shape[1] - 1).bit_length())

    @cached_property
    def grid_blocks(self) -> np.ndarray:
        """m(pi j / G), j < G, the base grid's blocks, made on first use and kept read-only.

        The first half turn of the DFT grid of 2G angles, from one inverse
        FFT per block entry (overlap.evaluate_half_turn).  Raises EmptyBlock
        unless N_e = N_o, before it builds anything: only a state that a
        scan reads holds a grid.
        """
        if self.n_even != self.n_odd:
            raise EmptyBlock("det m needs equally many even and odd orbitals")
        blocks = evaluate_half_turn(self.harmonics, 2 * self.grid_size)
        blocks.flags.writeable = False
        return blocks

    def half_turn_blocks(self, count: int) -> np.ndarray:
        """m(2 pi j / K), j < K/2, the first half turn of the uniform grid of
        K = ``count`` angles, K even.

        When N_e = N_o and K divides 2G these are every 2G/K-th block of the
        base grid (grid_blocks), so a sweep and the scans of the state read
        one stack; otherwise they come from one inverse FFT per block entry
        (overlap.evaluate_half_turn).  Raises EmptyBlock when a parity
        sector is empty.
        """
        if self.n_even == self.n_odd and 2 * self.grid_size % count == 0:
            return self.grid_blocks[:: 2 * self.grid_size // count]
        return evaluate_half_turn(self.harmonics, count)

    @cached_property
    def grid_determinants(self) -> np.ndarray:
        """det m(pi j / G), j = 0 .. G, of grid_blocks (_grid_determinants), made on first use.

        The base grid that every scan starts from, kept read-only.
        """
        dets = _grid_determinants(self, self.grid_blocks)
        dets.flags.writeable = False
        return dets

    @cached_property
    def phase_scan(self) -> tuple[int | None, int, tuple[float, float], tuple[float, ...]]:
        """The phase scan of grid_determinants (_phase_scan), run on first use.

        A balanced filling whose gap sigma_min(m(0)) is at least DET_FLOOR
        needs no grid: its singular values do not depend on theta and
        det m(theta) = e^{i S theta} det m(0), so the scan is
        (S, G, (0.0, prod sigma), ()) from level_block alone.  Raises
        EmptyBlock unless N_e = N_o, from grid_blocks before it builds
        anything.
        """
        if self.levels is not None and self.n_even == self.n_odd:
            sigma = np.linalg.svd(level_block(self), compute_uv=False)
            if sigma[-1] >= DET_FLOOR:
                return _level_offset(self), self.grid_size, (0.0, float(np.prod(sigma))), ()
        return _phase_scan(self, self.grid_determinants, self.grid_blocks)


def inversion_matrix(state: SlaterState) -> np.ndarray:
    """Matrix elements of the inversion operator between occupied orbitals.

    Inversion acts diagonally on the oscillator basis with signs (-1)^n, so
    entry (a, b) is sum_n (-1)^n conj(A_an) A_bn.
    """
    signs = np.where(np.arange(state.basis_size) % 2, -1.0, 1.0)
    mat = (state.coeffs.conj() * signs) @ state.coeffs.T
    return 0.5 * (mat + mat.conj().T)


_sorts: weakref.WeakKeyDictionary[SlaterState, ParitySortedState] = weakref.WeakKeyDictionary()


def parity_sort(state: SlaterState) -> ParitySortedState:
    """Rotate the orbitals into inversion eigenstates and sort even first.

    The squared singular values of the even basis columns C[:, 0::2] pair
    with those of the odd columns C[:, 1::2], the largest even weight w_e
    with the smallest odd weight w_o: w_e + w_o = 1 for orthonormal rows,
    and lambda = (w_e - w_o) / (w_e + w_o) is the mode's inversion
    eigenvalue, in which a defect in the rows' norms cancels.  Raises
    NotInversionSymmetric when any lambda is farther than PARITY_TOL from
    +-1 (the span mixes parities, e.g. bound states of an asymmetric well);
    callers then skip the chiral analysis.  The even sector is the top N_e
    right singular vectors of C[:, 0::2], the odd sector the top N_o of
    C[:, 1::2]: orthonormal rows, exactly zero on the other parity.

    The last result is remembered for its state object: pses_sweep sorts
    the state, and a chiral scan of the same object then gets the same
    ParitySortedState, with the harmonics and det m grid it has built.  The
    state is held weakly; an equal state that is another object is sorted
    afresh.
    """
    ps = _sorts.get(state)
    if ps is None:
        ps = _sort_by_parity(state)
        _sorts.clear()
        _sorts[state] = ps
    return ps


def _filled_levels(coeffs: np.ndarray) -> np.ndarray | None:
    """The occupied levels, ascending, when the span of the orthonormal rows
    C is a filling of oscillator levels; None otherwise.

    The span is one iff the level operator N = diag(0 .. M - 1) maps it
    into itself (N has distinct eigenvalues), that is iff the residual
    C N - (C N C^H) C, C N less its projection on the span, vanishes; it
    is taken as vanishing within LEVEL_TOL (M - 1).  The column weights
    w_n = sum_a |c_an|^2, each 0 or 1 for a filling and fractional for a
    well's levels, reject first, at O(NM) against the residual's O(N^2 M);
    they cannot decide alone, as an admixture a moves them only by a^2.
    """
    tol = LEVEL_TOL * (coeffs.shape[1] - 1)
    weights = np.sum(np.abs(coeffs) ** 2, axis=0)
    if not np.max(np.minimum(weights, np.abs(1.0 - weights))) <= tol:
        return None
    scaled = coeffs * np.arange(coeffs.shape[1])
    residual = scaled - (scaled @ coeffs.conj().T) @ coeffs
    if not np.max(np.abs(residual)) <= tol:
        return None
    return np.flatnonzero(weights > 0.5)


def _sort_by_parity(state: SlaterState) -> ParitySortedState:
    levels = _filled_levels(state.coeffs)
    if levels is not None:  # the levels' unit rows, even levels first
        levels = np.concatenate((levels[levels % 2 == 0], levels[levels % 2 == 1]))
        coeffs = np.zeros_like(state.coeffs)
        coeffs[np.arange(len(levels)), levels] = 1.0
        for array in (coeffs, levels):
            array.flags.writeable = False
        n_even = int(np.count_nonzero(levels % 2 == 0))
        return ParitySortedState(coeffs=coeffs, n_even=n_even, n_odd=len(levels) - n_even,
                                 levels=levels)
    _, s_even, even = np.linalg.svd(state.coeffs[:, 0::2], full_matrices=False)
    _, s_odd, odd = np.linalg.svd(state.coeffs[:, 1::2], full_matrices=False)
    w_even, w_odd = np.zeros((2, state.n_particles))  # 0 past a block's rank
    w_even[: len(s_even)] = s_even**2
    w_odd[len(w_odd) - len(s_odd) :] = s_odd[::-1] ** 2
    lam = (w_even - w_odd) / (w_even + w_odd)
    if np.max(np.abs(np.abs(lam) - 1.0)) > PARITY_TOL:
        raise NotInversionSymmetric(
            f"inversion eigenvalues {np.sort(lam).round(8).tolist()} "
            f"are not within {PARITY_TOL:.0e} of +-1"
        )
    n_even = int(np.count_nonzero(lam > 0.0))
    n_odd = len(lam) - n_even
    coeffs = np.zeros_like(state.coeffs)
    coeffs[:n_even, 0::2] = even[:n_even]
    coeffs[n_even:, 1::2] = odd[:n_odd]
    coeffs.flags.writeable = False
    return ParitySortedState(coeffs=coeffs, n_even=n_even, n_odd=n_odd)


def chiral_block(ps: ParitySortedState, theta: float) -> np.ndarray:
    """The N_e x N_o even-odd block m(theta) of the rotated cut Gramian."""
    return evaluate_gramians(ps.harmonics, [theta])[0]


def level_block(ps: ParitySortedState) -> np.ndarray:
    """m(0) of a filling (``ps.levels`` set): the real N_e x N_o table part
    T[even levels, odd levels], from the table's boundary vectors.

    The rows are the levels' unit rows, so m(0) is that part of the table;
    no harmonics are built.
    """
    table = ho_overlap_table(ps.coeffs.shape[1])
    even, odd = ps.levels[: ps.n_even], ps.levels[ps.n_even :]
    return _wronskian_overlap(table.phi0, table.dphi0, even[:, None], odd[None, :])


def block_determinants(ps: ParitySortedState, thetas: Sequence[float]) -> np.ndarray:
    """det m(theta) on a grid: one det over the stacked N_e x N_o blocks."""
    return np.linalg.det(evaluate_gramians(ps.harmonics, thetas))


def _grid_determinants(ps: ParitySortedState, blocks: np.ndarray) -> np.ndarray:
    """det m(pi j / G) for j = 0 .. G from the G blocks m(pi j / G), j < G.

    The endpoint needs no block: m(pi) = -m(0), so
    det m(pi) = (-1)^{N_e} det m(0).
    """
    dets = np.linalg.det(blocks)
    return np.append(dets, (-1) ** ps.n_even * dets[0])


def _level_offset(ps: ParitySortedState) -> int:
    """S = round(sum over odd rows - sum over even rows of sum_n n |c_an|^2),
    the odd minus the even sectors' summed mean levels; for a filling, the
    sum of the odd levels less the sum of the even ones."""
    levels = np.abs(ps.coeffs) ** 2 @ np.arange(ps.coeffs.shape[1])
    return round(float(levels[ps.n_even :].sum() - levels[: ps.n_even].sum()))


def _phase_scan(
    ps: ParitySortedState, dets: np.ndarray, blocks: np.ndarray
) -> tuple[int | None, int, tuple[float, float], tuple[float, ...]]:
    """(winding or None, intervals in the final grid, (theta*, min |det m|), closings).

    Phase-unwraps d(theta) = det m(theta) e^{-i S theta} from ``dets``,
    det m on the uniform grid of G = len(dets) - 1 intervals over [0, pi]
    (_grid_determinants of ``blocks``, m(pi j / G) for j < G), and
    S = _level_offset(ps); the factor goes on the step ratios, so ``dets``
    stay raw.  Every bad interval, whose wrapped step is >= pi/2 or NaN (a
    det that is exactly 0), is bisected and only its midpoint evaluated by
    block_determinants, until each bad interval left is narrower than
    RESOLUTION, or the midpoints would exceed GRID_CAP.  The winding is None
    while any bad interval is left; otherwise it is S plus the total step
    of d, an exact multiple of pi since d(pi) = (-1)^{N_e} e^{-i S pi} d(0),
    rounded, safe once every step is small.  theta* (mod pi) is the
    evaluated angle of the smallest |det m|.  The closings (mod pi, merged
    circularly within 1e-6, a zero keeping its angle) are the zeros of
    det m, the bad intervals narrower than RESOLUTION, and the evaluated
    angles where the chiral gap sigma_min(m) < DET_FLOOR; m takes an SVD
    only where the bound sigma_min >= 2^{N_e - 1} |det m| (every
    sigma_i <= 1/2) is below it, from ``blocks`` at a base-grid angle
    (m(pi) = -m(0) has the singular values of m(0)) and from
    evaluate_gramians at a midpoint.
    """
    grid_size = len(dets) - 1
    thetas = np.linspace(0.0, math.pi, grid_size + 1)
    base = np.arange(grid_size + 1)  # each angle's base-grid index, -1 at a midpoint
    offset = _level_offset(ps)
    while True:
        widths = np.diff(thetas)
        with np.errstate(divide="ignore", invalid="ignore"):
            steps = np.angle(dets[1:] / dets[:-1] * np.exp(-1j * offset * widths))
        bad = ~(np.abs(steps) < math.pi / 2.0)
        zeros = bad & (widths < RESOLUTION)
        split = np.flatnonzero(bad & ~zeros)
        if not len(split) or len(steps) + len(split) > grid_size + GRID_CAP:
            break
        mids = 0.5 * (thetas[split] + thetas[split + 1])
        thetas = np.insert(thetas, split + 1, mids)
        base = np.insert(base, split + 1, -1)
        dets = np.insert(dets, split + 1, block_determinants(ps, mids))
    nu = None if bad.any() else offset + int(round(float(np.sum(steps)) / math.pi))
    size = np.abs(dets)
    z = np.flatnonzero(zeros)
    found = [0.5 * (thetas[z] + thetas[z + 1])]  # the zeros first, so a cluster keeps their angle
    low = np.flatnonzero(np.ldexp(size, ps.n_even - 1) < DET_FLOOR)
    if len(low):
        index = base[low]
        mid = index < 0
        low_blocks = blocks[index % grid_size]
        if mid.any():
            low_blocks[mid] = evaluate_gramians(ps.harmonics, thetas[low[mid]])
        sigma_min = np.linalg.svd(low_blocks, compute_uv=False)[:, -1]
        found.append(thetas[low[sigma_min < DET_FLOOR]])
    closings: list[float] = []
    for c in np.concatenate(found) % math.pi:
        if all(abs((c - k + math.pi / 2.0) % math.pi - math.pi / 2.0) > 1e-6 for k in closings):
            closings.append(float(c))
    least = int(np.argmin(size))
    minimum = (float(thetas[least] % math.pi), float(size[least]))
    return nu, len(steps), minimum, tuple(sorted(closings))


def winding_scan(ps: ParitySortedState) -> tuple[int, int, float]:
    """(winding, intervals in the final grid, min |det m| seen) over theta in [0, pi].

    From the state's phase_scan.  Raises GapClosed, carrying the scan's
    closings and min |det m|, exactly when the scan found one, and
    GridTooCoarse when it stopped at GRID_CAP with a bad step left.
    """
    nu, intervals, (_, min_det), closings = ps.phase_scan
    if closings:
        raise GapClosed(closings, min_det)
    if nu is None:
        raise GridTooCoarse(f"phase steps still >= pi/2 at {intervals} intervals")
    return nu, intervals, min_det


def winding_number(ps: ParitySortedState) -> int:
    """Winding of det m(theta) over theta in [0, pi] (see winding_scan)."""
    return winding_scan(ps)[0]


def flat_band_count(ps: ParitySortedState) -> int:
    """Number of inversion-protected zero-energy flat bands: |N_e - N_o|."""
    return abs(ps.n_even - ps.n_odd)


def minimum_block_gap(ps: ParitySortedState) -> tuple[float, float]:
    """(theta*, min |det m|) over the fundamental domain [0, pi).

    The smallest |det m| that the state's phase scan evaluated (phase_scan:
    its grid angles and bisection midpoints) and its angle, mod pi.  Near a
    closing the bisection brings theta* within RESOLUTION of the zero;
    elsewhere it is as fine as the grid, pi / G.
    """
    return ps.phase_scan[2]


def detect_gap_closings(ps: ParitySortedState) -> list[float]:
    """Angles in [0, pi) where det m vanishes: the closings of the state's
    phase scan of its grid (phase_scan).

    A closing is a bad phase step resolved to an interval narrower than
    RESOLUTION.  Returns an empty list for gapped states; the list may be
    incomplete for a state whose scan stopped at GRID_CAP.
    """
    return list(ps.phase_scan[3])
