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
one batched SVD of the blocks, which it evaluates from the state's
harmonics (overlap.evaluate_half_turn on its uniform grid,
evaluate_gramians elsewhere).  They are the values of the parity-sorted
state: each sector is re-orthonormalized on its own basis parity, so a
state orthonormal only to within delta (SlaterState admits 1e-8), or
with a wrong-parity part of amplitude a (|lambda| = 1 - 2 a^2 for its
inversion eigenvalue, so PARITY_TOL admits a up to 7e-5), moves by up to
that much; and 1/2 - sigma near 0 loses relative accuracy like any small
eigenvalue, an energy |epsilon| carrying a relative error of about
eps * e^|epsilon|.

parity_sort remembers its last result for its state object, so the sweep
and the scans of one state share one sort, its harmonics and its grid.

The scans (winding, gap closings, minimum gap) start from det m on the
uniform grid theta_j = pi j / G, the first half of the DFT grid of 2G
angles: its blocks come from one inverse FFT per block entry
(overlap.evaluate_half_turn), and the endpoint from m(pi) = -m(0); each
parity-sorted state keeps the DEFAULT_GRID determinants, so the three scans
share one grid.  The points they refine (bisection midpoints,
golden-section probes) go through block_determinants, one angle at a time
or stacked, with the same bits either way.

A gap-closing scan refines a grid minimum only if a Weyl bound lets it
dip: with m(theta) = half + sum_k C_k e^{ik theta}, L = sum_k |k| ||C_k||_F
bounds ||m'||_2, so within h = pi / DEFAULT_GRID of a grid point every
singular value of m stays within L h of its value there and
|det m| >= prod_i max(0, sigma_i - L h).  Gapped wells, whose minima sit
orders of magnitude above DIP_THRESHOLD, are certified without a single
refinement; near-critical states, states with a large L h (many
harmonics, a wide basis) and states whose |det m| is small everywhere keep
every bracket.
"""

from __future__ import annotations

import math
import weakref
from dataclasses import dataclass
from functools import cached_property
from typing import Sequence

import numpy as np

from .overlap import GramianHarmonics, evaluate_gramians, evaluate_half_turn, gramian_harmonics
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
    "winding_number",
    "winding_scan",
    "flat_band_count",
    "detect_gap_closings",
    "minimum_block_gap",
    "block_determinants",
]

PARITY_TOL = 1e-8
DET_FLOOR = 1e-10
DIP_THRESHOLD = 1e-6
# roundoff ripple of a constant |det m|, per block row, in units of eps * max|det m|
RIPPLE_ULPS = 8
DEFAULT_GRID = 256
GRID_CAP = 16384
# golden-section brackets of |det m| minima are refined to this width
RESOLUTION = 1e-10


class NotInversionSymmetric(Exception):
    """The orbital span is not closed under inversion."""


class GapClosed(Exception):
    """det m vanished somewhere on the winding grid."""


class GridTooCoarse(Exception):
    """Phase steps stayed >= pi/2 with the grid at its interval cap."""


class EmptyBlock(Exception):
    """No even-odd block exists (one parity sector is empty)."""


@dataclass(frozen=True)
class ParitySortedState:
    """Orthonormal parity-eigenstate rows, even-parity rows first."""

    coeffs: np.ndarray
    parity: np.ndarray
    n_even: int
    n_odd: int

    def as_state(self) -> SlaterState:
        return SlaterState(self.coeffs)

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

    @cached_property
    def grid_determinants(self) -> np.ndarray:
        """det m(pi j / DEFAULT_GRID), j = 0 .. DEFAULT_GRID, computed on first use.

        The base grid that every scan starts from, kept read-only; its
        blocks are not kept.
        """
        dets = _grid_determinants(self, DEFAULT_GRID)
        dets.flags.writeable = False
        return dets


def inversion_matrix(state: SlaterState) -> np.ndarray:
    """Matrix elements of the inversion operator between occupied orbitals.

    Inversion acts diagonally on the oscillator basis with signs (-1)^n, so
    entry (a, b) is sum_n (-1)^n conj(A_an) A_bn.
    """
    signs = np.where(np.arange(state.basis_size) % 2, -1.0, 1.0)
    mat = (state.coeffs.conj() * signs) @ state.coeffs.T
    return 0.5 * (mat + mat.conj().T)


def _orthonormal_rows(block: np.ndarray) -> np.ndarray:
    """Deterministic orthonormal basis of the row space of ``block``.

    Householder QR of block^H with the R diagonal made real positive, so
    degenerate parity eigenspaces come out reproducibly phased.
    """
    q, r = np.linalg.qr(block.conj().T)
    d = np.diag(r).copy()
    d[d == 0] = 1.0
    q = q * (np.abs(d) / d).conj()
    return q.conj().T


_last_sort: tuple[weakref.ref, ParitySortedState] | None = None


def _forget_sort(ref: weakref.ref) -> None:
    """Drop the remembered sort once its state has been collected.

    Threads that race on the memo can only lose it, which costs a re-sort.
    """
    global _last_sort
    if _last_sort is not None and _last_sort[0] is ref:
        _last_sort = None


def parity_sort(state: SlaterState) -> ParitySortedState:
    """Rotate the orbitals into inversion eigenstates and sort even first.

    Raises NotInversionSymmetric when any eigenvalue of the inversion matrix
    is farther than PARITY_TOL from +-1 (the span mixes parities, e.g. bound
    states of an asymmetric well); callers then skip the chiral analysis.
    Each sector is re-orthonormalized on its own basis parity only, so its
    coefficients on the other parity are exactly zero.

    The last result is remembered for its state object, matched by
    identity: pses_sweep sorts the state, and a chiral scan of the same
    object then gets the same ParitySortedState, with the harmonics and the
    det m grid it has built.  Only a weak reference to the state is held,
    and the result is dropped when the state is collected; an equal state
    that is another object is sorted afresh.  The state's coefficients are
    taken to be unchanged between the calls.
    """
    global _last_sort
    last = _last_sort
    if last is not None and last[0]() is state:
        return last[1]
    ps = _sort_by_parity(state)
    _last_sort = (weakref.ref(state, _forget_sort), ps)
    return ps


def _sort_by_parity(state: SlaterState) -> ParitySortedState:
    inv = inversion_matrix(state)
    lam, vecs = np.linalg.eigh(inv)
    if np.max(np.abs(np.abs(lam) - 1.0)) > PARITY_TOL:
        raise NotInversionSymmetric(
            f"inversion eigenvalues {np.sort(lam).round(8).tolist()} "
            f"are not within {PARITY_TOL:.0e} of +-1"
        )
    # eigh sorts lam ascending, so the odd rows (lam near -1) come first
    n_odd = int(np.count_nonzero(lam < 0.0))
    n_even = len(lam) - n_odd
    rotated = vecs.conj().T @ state.coeffs
    coeffs = np.zeros_like(rotated)
    if n_even:
        coeffs[:n_even, 0::2] = _orthonormal_rows(rotated[n_odd:, 0::2])
    if n_odd:
        coeffs[n_even:, 1::2] = _orthonormal_rows(rotated[:n_odd, 1::2])
    return ParitySortedState(coeffs=coeffs, parity=np.repeat([1, -1], [n_even, n_odd]),
                             n_even=n_even, n_odd=n_odd)


def chiral_block(ps: ParitySortedState, theta: float) -> np.ndarray:
    """The N_e x N_o even-odd block m(theta) of the rotated cut Gramian."""
    return evaluate_gramians(ps.harmonics, [theta])[0]


def block_determinants(ps: ParitySortedState, thetas: Sequence[float]) -> np.ndarray:
    """det m(theta) on a grid: one det over the stacked N_e x N_o blocks."""
    return np.linalg.det(evaluate_gramians(ps.harmonics, thetas))


def _grid_determinants(ps: ParitySortedState, grid_size: int) -> np.ndarray:
    """det m(pi j / G) for j = 0 .. G, G = grid_size, from one inverse FFT per entry.

    The angles pi j / G, j < G, are the first half of the DFT grid of
    K = 2G angles, so their blocks come from the half-turn FFT of the
    state's harmonics.  The endpoint needs no block: m(pi) = -m(0), so
    det m(pi) = (-1)^{N_e} det m(0).
    """
    if ps.n_even != ps.n_odd:
        raise EmptyBlock("det m needs equally many even and odd orbitals")
    dets = np.linalg.det(evaluate_half_turn(ps.harmonics, 2 * grid_size))
    return np.append(dets, (-1) ** ps.n_even * dets[0])


def winding_scan(ps: ParitySortedState, grid_size: int = DEFAULT_GRID) -> tuple[int, int, float]:
    """(winding, intervals in the final grid, min |det m| seen) over theta in [0, pi].

    Phase-unwraps det m from a uniform grid of ``grid_size`` intervals, taken
    from the half-turn FFT (_grid_determinants; at DEFAULT_GRID the state's
    kept grid_determinants); every interval whose wrapped
    step is >= pi/2 is bisected and only its midpoint evaluated by
    block_determinants, until no such step is left or the grid would exceed
    GRID_CAP intervals.  The grid's endpoint is det m(pi) = (-1)^{N_e}
    det m(0), from m(pi) = -m(0), so the total is an exact multiple of pi
    and rounding to an integer is safe once the steps are small.  The base
    grid peaks at about twice its (grid_size, N_e, N_e) complex stack (the
    FFT bins and their transform), at most 2.2 times.
    """
    thetas = np.linspace(0.0, math.pi, grid_size + 1)
    dets = ps.grid_determinants if grid_size == DEFAULT_GRID else _grid_determinants(ps, grid_size)
    while True:
        min_det = float(np.min(np.abs(dets)))
        if min_det < DET_FLOOR:
            raise GapClosed(
                f"|det m| < {DET_FLOOR:.0e} on the grid; winding undefined"
            )
        steps = np.angle(dets[1:] / dets[:-1])
        bad = np.flatnonzero(np.abs(steps) >= math.pi / 2.0)
        if not len(bad):
            return int(round(float(np.sum(steps)) / math.pi)), len(steps), min_det
        if len(steps) + len(bad) > GRID_CAP:
            # a zero between grid points masquerades as an unresolvable step
            j = int(np.argmax(np.abs(steps)))
            (theta_star,), (det_star,) = _golden_minima(ps, [(thetas[j], thetas[j + 1])], 1e-12)
            if det_star < DET_FLOOR:
                raise GapClosed(
                    f"|det m| < {DET_FLOOR:.0e} near theta = {theta_star:.6f}"
                )
            raise GridTooCoarse(f"phase steps still >= pi/2 at {len(steps)} intervals")
        mids = 0.5 * (thetas[bad] + thetas[bad + 1])
        thetas = np.insert(thetas, bad + 1, mids)
        dets = np.insert(dets, bad + 1, block_determinants(ps, mids))


def winding_number(ps: ParitySortedState, grid_size: int = DEFAULT_GRID) -> int:
    """Winding of det m(theta) over theta in [0, pi] (see winding_scan)."""
    return winding_scan(ps, grid_size)[0]


def flat_band_count(ps: ParitySortedState) -> int:
    """Number of inversion-protected zero-energy flat bands: |N_e - N_o|."""
    return abs(ps.n_even - ps.n_odd)


def _golden_minima(
    ps: ParitySortedState, brackets: Sequence[tuple[float, float]], resolution: float
) -> tuple[list[float], np.ndarray]:
    """Golden-section minima of |det m| in every (lo, hi) bracket, in lockstep.

    Each pass probes the one new interior point of every bracket still wider
    than ``resolution`` with a single block_determinants call; a bracket that
    is narrow enough freezes, so each follows exactly the iterates of a
    scalar golden-section search.  Returns (theta*, |det m(theta*)|) per
    bracket, theta* being the final midpoint.
    """
    if not brackets:
        return [], np.zeros(0)
    g = (math.sqrt(5.0) - 1.0) / 2.0
    # per bracket: [a, b, c, d, f(c), f(d)] with a < c < d < b
    search = [[lo, hi, hi - g * (hi - lo), lo + g * (hi - lo)] for lo, hi in brackets]
    f = np.abs(block_determinants(ps, [t for s in search for t in s[2:]]))
    for k, s in enumerate(search):
        s += [f[2 * k], f[2 * k + 1]]
    active = [s for s in search if s[1] - s[0] > resolution]
    while active:
        slots = []
        for s in active:
            a, b, c, d, fc, fd = s
            if fc < fd:
                s[:] = a, d, d - g * (d - a), c, None, fc
                slots.append(2)
            else:
                s[:] = c, b, d, c + g * (b - c), fd, None
                slots.append(3)
        f = np.abs(block_determinants(ps, [s[k] for s, k in zip(active, slots)]))
        for s, k, value in zip(active, slots, f):
            s[k + 2] = value
        active = [s for s in active if s[1] - s[0] > resolution]
    thetas = [0.5 * (s[0] + s[1]) for s in search]
    return thetas, np.abs(block_determinants(ps, thetas))


def minimum_block_gap(ps: ParitySortedState) -> tuple[float, float]:
    """(theta*, min |det m|) over the fundamental domain [0, pi).

    Scan of the DEFAULT_GRID angles pi j / DEFAULT_GRID, j < DEFAULT_GRID,
    from the half-turn FFT (_grid_determinants), followed by golden-section
    refinement around the best point.
    """
    thetas = np.linspace(0.0, math.pi, DEFAULT_GRID, endpoint=False)
    dets = np.abs(ps.grid_determinants[:-1])
    i = int(np.argmin(dets))
    step = math.pi / DEFAULT_GRID
    (theta_star,), (det_star,) = _golden_minima(
        ps, [(thetas[i] - step, thetas[i] + step)], RESOLUTION
    )
    return theta_star % math.pi, float(det_star)


def _grid_minima(ps: ParitySortedState) -> np.ndarray:
    """Indices j < DEFAULT_GRID of the |det m| grid minima worth refining.

    The strict local minima of the circular grid, less the ripples of a flat
    |det m|: a minimum above DIP_THRESHOLD that lies within RIPPLE_ULPS * N_e
    ulps of max |det m| of both neighbours.
    """
    dets = np.abs(ps.grid_determinants[:-1])
    left, right = np.roll(dets, 1), np.roll(dets, -1)
    minima = (dets <= left) & (dets <= right) & ((dets < left) | (dets < right))
    ripple = RIPPLE_ULPS * ps.n_even * np.finfo(float).eps * np.max(dets, initial=0.0)
    minima &= (dets < DIP_THRESHOLD) | (left - dets > ripple) | (right - dets > ripple)
    return np.flatnonzero(minima)


def _det_lower_bounds(ps: ParitySortedState, centres: np.ndarray) -> np.ndarray:
    """Lower bounds on |det m(theta)| for |theta - centre| <= pi / DEFAULT_GRID.

    m'(theta) = sum_k i k C_k e^{ik theta}, so L = sum_k |k| ||C_k||_F bounds
    ||m'||_2, and by Weyl's inequality no singular value of m moves by more
    than L h within a distance h of the centre.  The bound is
    prod_i max(0, sigma_i - L h), the sigma_i those of m at the centre.  It
    is 0 everywhere when the coefficients are not held: L would cost a
    rebuild of them.
    """
    harm = ps.harmonics
    if harm.coeffs is None:
        return np.zeros(len(centres))
    lipschitz = np.abs(harm.orders) @ np.linalg.norm(harm.coeffs, axis=1)
    sigma = np.linalg.svd(evaluate_gramians(harm, centres), compute_uv=False)
    return np.prod(np.maximum(sigma - lipschitz * math.pi / DEFAULT_GRID, 0.0), axis=1)


def detect_gap_closings(ps: ParitySortedState) -> list[float]:
    """Angles in [0, pi) where |det m| dips below DIP_THRESHOLD.

    |det m| is pi-periodic (m picks up a global sign under a half turn), so
    a grid of DEFAULT_GRID angles over [0, pi), from the half-turn FFT
    (_grid_determinants), is treated circularly; every
    strict local minimum is refined to RESOLUTION by golden section and kept
    if the refined value is below the threshold.  A zero never lands on a
    grid point, which is why the grid values alone cannot be compared
    against the threshold.  A minimum above it that lies within roundoff of
    both neighbours (RIPPLE_ULPS * N_e ulps of max |det m|) is a ripple of a
    flat |det m| and is not refined, nor is one whose Weyl lower bound on
    |det m| over its bracket (_det_lower_bounds) exceeds 2 * DIP_THRESHOLD,
    the factor 2 a margin for roundoff: refinement could only have found a
    value above the bound, so the result is the same as refining every
    minimum.  When the state's harmonics do not hold their coefficients no
    bound is known and every minimum is refined.  Returns an empty list for
    gapped states.
    """
    thetas = np.linspace(0.0, math.pi, DEFAULT_GRID, endpoint=False)
    minima = _grid_minima(ps)
    minima = minima[_det_lower_bounds(ps, thetas[minima]) <= 2.0 * DIP_THRESHOLD]
    n = len(thetas)
    brackets = [
        (thetas[i - 1] if i > 0 else thetas[0] - (thetas[1] - thetas[0]),
         thetas[i + 1] if i + 1 < n else thetas[-1] + (thetas[-1] - thetas[-2]))
        for i in minima
    ]
    refined, dets = _golden_minima(ps, brackets, RESOLUTION)
    closings = sorted(t % math.pi for t, det in zip(refined, dets) if det < DIP_THRESHOLD)
    merged: list[float] = []
    for c in closings:
        if not merged or (c - merged[-1]) > 1e-6:
            merged.append(c)
    if len(merged) > 1 and (merged[0] + math.pi - merged[-1]) <= 1e-6:
        merged.pop()
    return merged
