"""From a cut Gramian to Schmidt values, single-particle entanglement
energies, the entanglement Hamiltonian, and entanglement entropy.

Every mode of the Slater state splits across the cut with probabilities
(mu_a, 1 - mu_a) given by the Gramian eigenvalues, so the reduced density
matrix is a tensor product of 2x2 blocks and everything reduces to the
mu_a.  Energies are epsilon_a = -ln(mu_a / (1 - mu_a)), reported relative
(the additive constant tr ln(1 - O) is dropped); modes fully inside or
outside the cut map to -inf / +inf sentinels rather than exceptions.
The functions take and return plain arrays: a Gramian (N x N, or for
``schmidt_values`` a (K, N, N) stack of one per angle) or Schmidt values mu
along the last axis.

Rotating the cut by pi maps x to -x and swaps the two subsystems, so
mu(theta + pi) = 1 - mu(theta) and epsilon(theta + pi) = -epsilon(theta).
``pses_sweep`` uses this on the uniform grid theta_j = 2 pi j / K, K even:
it solves only the first half turn, whose Gramians come from one inverse
FFT per entry (overlap.evaluate_half_turn), and mirrors the second; any
other grid goes to overlap.evaluate_gramians.

Complex conjugation reverses p, so it maps the cut at theta to the cut at
-theta: a state whose orbital span is closed under conjugation (any filling
of oscillator levels or of a real well's bound states, however the
orbitals are mixed) has the same spectrum at -theta as at theta.  When
conj(C) - conj(C C^T) C is within SPAN_TOL, ``pses_sweep`` solves only the
first quarter turn of the uniform grid and mirrors the rest, so angle
K - j equals angle j bitwise.

For an inversion-symmetric state ``pses_sweep`` needs no N x N eigensolve.
In parity-sorted orbitals (chiral.parity_sort) the Gramian is
O(theta) = 1/2 + [[0, m], [m^H, 0]] with m the N_e x N_o even-odd block,
so mu = 1/2 +- sigma_i(m(theta)), plus |N_e - N_o| values at exactly 1/2,
the zero-energy flat bands.  The values are those of the parity-sorted
state, whose sectors are singular vectors of its even and odd basis
columns: a state orthonormal only to within delta moves by up to delta.
Near mu = 0 the values 1/2 - sigma carry the same absolute roundoff as an
eigenvalue, so an energy loses relative accuracy as eps * e^|epsilon|, as
on the general path.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .chiral import NotInversionSymmetric, ParitySortedState, parity_sort
# rotated_overlap stays bound: the benchmark patches psesk.entanglement.rotated_overlap
from .overlap import (clamp_unit_interval, evaluate_gramians, evaluate_half_turn,  # noqa
                      gramian_harmonics, rotated_overlap)
from .states import SlaterState

__all__ = [
    "NonHermitian",
    "SingularOverlap",
    "PSESDataset",
    "schmidt_values",
    "entanglement_energies",
    "entanglement_hamiltonian",
    "entanglement_entropy",
    "pses_sweep",
]

HERMITICITY_TOL = 1e-10
SINGULAR_DELTA = 1e-12
HERMITIAN_BLOCK = 2**14  # matrix entries _hermitian checks per step
# a conjugation residual r moves the mirrored mu by O(r); the chiral and the
# general paths already differ by 2e-12
SPAN_TOL = 1e-12


class NonHermitian(Exception):
    """Input matrix is not Hermitian within tolerance."""


class SingularOverlap(Exception):
    """A Schmidt value sits at 0 or 1; the log-form Hamiltonian is undefined."""


@dataclass(frozen=True)
class PSESDataset:
    """Entanglement data over a grid of rotation angles.

    energies has shape (n_theta, N), each row sorted ascending with +-inf
    sentinels allowed; gap is min_a |epsilon_a| per angle.
    """

    thetas: np.ndarray
    energies: np.ndarray
    entropy: np.ndarray
    gap: np.ndarray


def _hermitian(o) -> np.ndarray:
    """A copy of the matrix (or stack) o, checked Hermitian, then symmetrised.

    The copy is checked and symmetrised in place a block of matrices at a
    time, so the temporaries stay near HERMITIAN_BLOCK entries however long
    the stack is.
    """
    mat = np.array(o, dtype=complex, order="C")
    stack = mat.reshape(-1, *mat.shape[-2:])  # a view: mat is a fresh C-order copy
    step = max(1, HERMITIAN_BLOCK // max(stack.shape[1] * stack.shape[2], 1))
    for k in range(0, len(stack), step):
        block = stack[k : k + step]
        herm = block.conj().swapaxes(-1, -2)
        if np.max(np.abs(block - herm), initial=0.0) > HERMITICITY_TOL:
            raise NonHermitian("overlap matrix is not Hermitian")
        block += herm
        block *= 0.5
    return mat


def schmidt_values(o) -> np.ndarray:
    """Eigenvalues mu of the cut Gramian (each of a (K, N, N) stack), in [0, 1], descending."""
    return clamp_unit_interval(np.linalg.eigvalsh(_hermitian(o)))[..., ::-1]


def entanglement_energies(mu) -> np.ndarray:
    """epsilon_a = -ln(mu_a / (1 - mu_a)); mu = 1 -> -inf, mu = 0 -> +inf, NaN -> NaN.

    Descending mu yields ascending energies.
    """
    m = np.asarray(mu, dtype=float)
    out = np.full_like(m, np.nan)  # NaN in, NaN out
    with np.errstate(divide="ignore"):
        interior = (m > 0.0) & (m < 1.0)
        # 0 - ln rather than -ln: mu = 1/2 (a flat band) gives +0.0, not -0.0
        out[interior] = 0.0 - np.log(m[interior] / (1.0 - m[interior]))
    out[m >= 1.0] = -np.inf
    out[m <= 0.0] = np.inf
    return out


def entanglement_hamiltonian(o) -> np.ndarray:
    """ln(O^{-1} - 1) via the eigendecomposition of the Gramian O."""
    mu, vecs = np.linalg.eigh(_hermitian(o))
    mu = clamp_unit_interval(mu)
    if np.any(mu < SINGULAR_DELTA) or np.any(mu > 1.0 - SINGULAR_DELTA):
        raise SingularOverlap("Schmidt value at 0 or 1; use the sentinel-valued spectrum")
    eps = -np.log(mu / (1.0 - mu))
    return (vecs * eps) @ vecs.conj().T


def _xlogx(p: np.ndarray) -> np.ndarray:
    """p ln p, with 0 ln 0 = 0."""
    return p * np.log(np.where(p == 0.0, 1.0, p))


def entanglement_entropy(mu):
    """Binary-entropy sum over the mode splitting probabilities (per row of a stack)."""
    m = np.asarray(mu, dtype=float)
    return -np.sum(_xlogx(m) + _xlogx(1.0 - m), axis=-1)


def _singular_values(blocks: np.ndarray) -> np.ndarray:
    """Singular values of each block of a (K, r, c) stack, descending.

    A block with one row or one column has a single singular value, the
    norm of that row or column, which needs no SVD.
    """
    if min(blocks.shape[1:]) == 1:
        return np.linalg.norm(blocks, axis=(1, 2))[:, None]
    return np.linalg.svd(blocks, compute_uv=False)


def _paired_schmidt_values(ps: ParitySortedState, blocks, angles: int) -> np.ndarray:
    """Schmidt values of a parity-sorted state from the singular values of m.

    The Gramian is 1/2 + [[0, m], [m^H, 0]], so mu = 1/2 +- sigma_i(m), with
    |N_e - N_o| more at exactly 1/2.  ``blocks(ps)`` gives the blocks of
    ``angles`` angles; it is called only when both sectors are occupied.
    """
    if ps.n_even and ps.n_odd:
        sigma = _singular_values(blocks(ps))
    else:
        sigma = np.zeros((angles, 0))
    flat = np.full((angles, abs(ps.n_even - ps.n_odd)), 0.5)
    return clamp_unit_interval(np.concatenate((0.5 + sigma, flat, 0.5 - sigma[:, ::-1]), axis=1))


def _closed_under_conjugation(coeffs: np.ndarray) -> bool:
    """Whether the span of the orthonormal rows C holds conj(C): its residual
    conj(C) - conj(C C^T) C, conj(C) less its projection on the span, is
    within SPAN_TOL."""
    residual = coeffs.conj() - (coeffs @ coeffs.T).conj() @ coeffs
    return bool(np.max(np.abs(residual), initial=0.0) <= SPAN_TOL)


def pses_sweep(state: SlaterState, thetas: Sequence[float]) -> PSESDataset:
    """Entanglement spectrum, entropy, and gap over a grid of cut angles.

    An inversion-symmetric state (one that parity_sort accepts) takes the
    chiral path: in its parity-sorted orbitals the cut Gramian is
    O(theta) = 1/2 + [[0, m(theta)], [m(theta)^H, 0]], so its Schmidt values
    are mu = 1/2 +- sigma_i(m(theta)), one pair per singular value of the
    N_e x N_o even-odd block, plus |N_e - N_o| flat bands at exactly 1/2
    (energy 0).  One batched SVD of the blocks replaces the N x N
    eigensolve, and the parity sort is the one the chiral scans of the same
    state object reuse.  Its numbers are those of the parity-sorted state,
    whose sectors are singular vectors on their own basis parity: a state
    whose rows are orthonormal only to within delta (SlaterState admits
    1e-8), or whose inversion eigenvalues lie delta_P from +-1 (PARITY_TOL
    admits 1e-8), gets the spectrum of a state that differs by up to about
    delta, or sqrt(delta_P / 2) in each orbital.  The tail loss of
    1/2 - sigma near 0 is that of mu near 0 on the general path: an energy
    |epsilon| carries a relative error of about eps * e^|epsilon|.
    Any other state takes the general path, the eigenvalues of the N x N
    Gramian.

    On the uniform grid theta_j = 2 pi j / K with K even (exactly
    ``np.linspace(0, 2 pi, K, endpoint=False)``) only the first half turn is
    solved.  Its Gramians or blocks come from one inverse FFT per entry
    (evaluate_half_turn); the chiral path reads its blocks from the
    parity-sorted state's held base grid (ParitySortedState.grid_blocks,
    every 2G/K-th block) whenever K divides 2G.  The second half comes from
    the subsystem swap: rotating the cut by pi exchanges x >= 0 and
    x <= 0, so mu(theta + pi) = 1 - mu(theta), and angle j + K/2 gets the
    energies -energies[j, ::-1] and the entropy of angle j, bitwise.  The
    swap assumes conj(L) L^T = I; a state whose rows are orthonormal only to
    within delta can see mu(theta + pi) differ from a direct evaluation by
    up to delta.

    A state whose span is closed under complex conjugation (every filling
    of oscillator levels or of a real well's bound states, however mixed)
    solves only the first quarter turn, j = 0 .. floor(K/4).  Conjugation
    reverses p, so it maps the cut at theta to the cut at -theta and the
    spectrum at -theta is that at theta: angle K/2 - j gets the energies
    -energies[j, ::-1] and the entropy of angle j, the swap of angle
    K - j = -j.  The self-mirrored angle pi/2 (K divisible by 4) keeps the
    mean of its energies and their mirror, (energies - energies[::-1]) / 2.
    So angle K - j equals angle j bitwise, and the swap still holds bitwise
    at every angle.  The span is taken as closed when
    conj(C) - conj(C C^T) C is within SPAN_TOL; a residual r moves the
    mirrored mu by O(r).  Every other grid is evaluated angle by angle
    (evaluate_gramians).  Raises ValueError unless ``thetas`` is a 1-D
    array of finite angles.
    """
    thetas = np.asarray(thetas, dtype=float)
    if thetas.ndim != 1 or not np.all(np.isfinite(thetas)):
        raise ValueError(f"thetas must be a 1-D array of finite angles, not {thetas!r}")
    count = len(thetas)
    half_turn = bool(count % 2 == 0 and count and np.array_equal(
        thetas, np.linspace(0.0, 2.0 * np.pi, count, endpoint=False)))
    mirror = half_turn and _closed_under_conjugation(state.coeffs)
    solved = count // 4 + 1 if mirror else count // 2 if half_turn else count

    def evaluate(h):
        if half_turn:
            return evaluate_half_turn(h, count)[:solved]
        return evaluate_gramians(h, thetas)

    def blocks(ps):
        if half_turn and 2 * ps.grid_size % count == 0:  # the sweep's angles are base-grid angles
            return ps.grid_blocks[:: 2 * ps.grid_size // count][:solved]
        return evaluate(ps.harmonics)

    try:
        ps = parity_sort(state)
    except NotInversionSymmetric:
        mu = schmidt_values(evaluate(gramian_harmonics(state.coeffs, state.coeffs)))
    else:
        mu = _paired_schmidt_values(ps, blocks, solved)
    energies = entanglement_energies(mu)
    entropy = entanglement_entropy(mu)
    if half_turn:
        mirrored = count // 2 - solved  # angles K/2 - j from angles j = mirrored .. 1
        if mirror and count % 4 == 0:
            energies[-1] = 0.5 * (energies[-1] - energies[-1, ::-1])
        energies = np.concatenate((energies, 0.0 - energies[mirrored:0:-1, ::-1]))
        entropy = np.concatenate((entropy, entropy[mirrored:0:-1]))
        energies = np.concatenate((energies, 0.0 - energies[:, ::-1]))
        entropy = np.tile(entropy, 2)
    gap = np.min(np.abs(energies), axis=-1)
    return PSESDataset(thetas=thetas, energies=energies, entropy=entropy, gap=gap)
