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

Three symmetries of the rotated cut decide which angles ``pses_sweep``
solves.  Rotating the cut by pi maps x to -x and swaps the two
subsystems, so mu(theta + pi) = 1 - mu(theta): the swap of a row of
energies is 0.0 - the row reversed, with the same entropy.  Complex
conjugation reverses p, so it maps the cut at theta to the cut at -theta:
a span closed under conjugation (any filling of oscillator levels or of a
real well's bound states, however mixed; conj(C) - conj(C C^T) C within
SPAN_TOL) has the same spectrum at -theta as at theta.  Rotating the cut
by alpha multiplies oscillator level n by e^{i n alpha}, so a span of
oscillator levels, a filling that chiral.parity_sort recognises by its
level residual C N - (C N C^H) C within chiral.LEVEL_TOL (M - 1), has the
same spectrum at every angle.  The rule: a filling solves one angle, from
the block m(0) (chiral.level_block); a conjugation-closed span on the
uniform grid theta_j = 2 pi j / K, K even, solves j = 0 .. floor(K/4);
any other uniform grid solves j < K/2, its Gramians from one inverse FFT
per entry (overlap.evaluate_half_turn); any other grid solves every angle
(overlap.evaluate_gramians).  Every other angle is a copy or a swap of a
solved one: angle j + K/2 the swap of angle j, angle K/2 - j too for a
closed span, and every angle of a filling its one row.  The one solved
row that is its own swap (the filling's, or pi/2 when 4 divides K) keeps
the mean of its energies and their swap, so every copy and swap holds
bitwise.

For an inversion-symmetric state ``pses_sweep`` needs no N x N eigensolve.
In parity-sorted orbitals (chiral.parity_sort) the Gramian is
O(theta) = 1/2 + [[0, m], [m^H, 0]] with m the N_e x N_o even-odd block,
so mu = 1/2 +- sigma_i(m(theta)), plus |N_e - N_o| values at exactly 1/2,
the zero-energy flat bands; on the uniform grid the blocks come from
ParitySortedState.half_turn_blocks.  The values are those of the
parity-sorted state, whose sectors are singular vectors of its even and odd basis
columns: a state orthonormal only to within delta moves by up to delta.
Near mu = 0 the values 1/2 - sigma carry the same absolute roundoff as an
eigenvalue, so an energy loses relative accuracy as eps * e^|epsilon|, as
on the general path.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .chiral import NotInversionSymmetric, ParitySortedState, level_block, parity_sort
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


def _paired_schmidt_values(ps: ParitySortedState, sigma: np.ndarray) -> np.ndarray:
    """Schmidt values of a parity-sorted state from the singular values of m,
    a (K, min(N_e, N_o)) stack.

    The Gramian is 1/2 + [[0, m], [m^H, 0]], so mu = 1/2 +- sigma_i(m), with
    |N_e - N_o| more at exactly 1/2.
    """
    flat = np.full((len(sigma), abs(ps.n_even - ps.n_odd)), 0.5)
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

    Each angle is solved once, by the module's rule.  A filling of
    oscillator levels (ParitySortedState.levels set) solves one angle, from
    the block m(0) (chiral.level_block), and builds no harmonics and no
    grid.  On the uniform grid theta_j = 2 pi j / K with K even (exactly
    ``np.linspace(0, 2 pi, K, endpoint=False)``) a span closed under
    complex conjugation (conj(C) - conj(C C^T) C within SPAN_TOL) solves
    j = 0 .. floor(K/4), and any other span j < K/2; their Gramians come
    from one inverse FFT per entry (evaluate_half_turn), their blocks from
    ParitySortedState.half_turn_blocks.  Any other grid solves every angle
    (evaluate_gramians).  Every other angle is then a copy or a swap of a
    solved one, written in place: angle j + K/2 is the swap of angle j
    (rotating the cut by pi exchanges x >= 0 and x <= 0, so
    mu(theta + pi) = 1 - mu(theta)), with the energies 0.0 -
    energies[j, ::-1] and the entropy and gap of angle j; for a closed span
    angle K/2 - j is the swap of angle j too, since conjugation maps the
    cut at theta_j to the cut at -theta_j, angle K - j; every angle of a
    filling is its one row.  The one solved row that is its own swap, the filling's or
    pi/2 when 4 divides K, keeps the mean of its energies and their mirror,
    (energies - energies[::-1]) / 2.  So the swap holds bitwise at every
    angle, angle K - j equals angle j bitwise for a closed span, and every
    row of a filling is the same.  The swap assumes conj(L) L^T = I: a
    state whose rows are orthonormal only to within delta can see
    mu(theta + pi) differ from a direct evaluation by up to delta, and a
    conjugation residual r moves the mirrored mu by O(r).  Raises
    ValueError unless ``thetas`` is a 1-D array of finite angles.
    """
    thetas = np.asarray(thetas, dtype=float)
    if thetas.ndim != 1 or not np.all(np.isfinite(thetas)):
        raise ValueError(f"thetas must be a 1-D array of finite angles, not {thetas!r}")
    count = len(thetas)
    try:
        ps = parity_sort(state)
    except NotInversionSymmetric:
        ps = None
    filling = ps is not None and ps.levels is not None
    uniform = bool(not filling and count % 2 == 0 and count and np.array_equal(
        thetas, np.linspace(0.0, 2.0 * np.pi, count, endpoint=False)))
    half = count // 2 if uniform else 0
    closed = uniform and _closed_under_conjugation(state.coeffs)
    solved = 1 if filling else count // 4 + 1 if closed else half if uniform else count

    if ps is None:
        h = gramian_harmonics(state.coeffs, state.coeffs)
        mu = schmidt_values(evaluate_half_turn(h, count)[:solved] if uniform
                            else evaluate_gramians(h, thetas))
    elif ps.n_even and ps.n_odd:
        mu = _paired_schmidt_values(ps, _singular_values(
            level_block(ps)[None] if filling
            else ps.half_turn_blocks(count)[:solved] if uniform
            else evaluate_gramians(ps.harmonics, thetas)))
    else:
        mu = _paired_schmidt_values(ps, np.zeros((solved, 0)))
    rows = entanglement_energies(mu)
    if filling or closed and count % 4 == 0:  # the solved row that is its own swap
        rows[-1] = 0.5 * (rows[-1] - rows[-1, ::-1])
    # the solved angles' energies, entropy and gap, then every angle's
    per_row = (rows, entanglement_entropy(mu), np.min(np.abs(rows), axis=-1))
    energies, entropy, gap = (np.empty((count, *values.shape[1:])) for values in per_row)
    for out, values in zip((energies, entropy, gap), per_row):
        out[:solved] = values
        if filling:  # every angle is the one row
            out[1:] = values[0]
        if closed:  # angle half - j is the swap of angle j
            _swap(values[half - solved : 0 : -1], out[solved:half])
        _swap(out[:half], out[half : 2 * half])  # angle j + half is the swap of angle j
    return PSESDataset(thetas=thetas, energies=energies, entropy=entropy, gap=gap)


def _swap(source: np.ndarray, out: np.ndarray) -> None:
    """Write the subsystem swap of ``source`` into ``out``: the energies of
    a row (2-D) become 0.0 - their reverse, and an angle's entropy and gap
    (1-D) are unchanged."""
    if source.ndim == 2:
        np.subtract(0.0, source[:, ::-1], out=out)
    else:
        out[:] = source
