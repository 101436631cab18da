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
FFT per entry, and mirrors the second.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

# rotated_overlap stays bound: the benchmark patches psesk.entanglement.rotated_overlap
from .overlap import (clamp_unit_interval, half_turn_gramians, rotated_gramians,  # noqa
                      rotated_overlap)
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
    """epsilon_a = -ln(mu_a / (1 - mu_a)); mu = 1 -> -inf, mu = 0 -> +inf.

    Descending mu yields ascending energies.
    """
    m = np.asarray(mu, dtype=float)
    out = np.empty_like(m)
    with np.errstate(divide="ignore"):
        interior = (m > 0.0) & (m < 1.0)
        out[interior] = -np.log(m[interior] / (1.0 - m[interior]))
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


def pses_sweep(state: SlaterState, thetas: Sequence[float]) -> PSESDataset:
    """Entanglement spectrum, entropy, and gap over a grid of cut angles.

    On the uniform grid theta_j = 2 pi j / K with K even (exactly
    ``np.linspace(0, 2 pi, K, endpoint=False)``) the Gramians of the first
    half turn come from half_turn_gramians, and the second half from the
    subsystem swap: rotating the cut by pi exchanges x >= 0 and x <= 0, so
    mu(theta + pi) = 1 - mu(theta), and angle j + K/2 gets the energies
    -energies[j, ::-1] and the entropy of angle j, bitwise.  The swap
    assumes conj(L) L^T = I; a state whose rows are orthonormal only to
    within delta (SlaterState admits 1e-8) can see mu(theta + pi) differ from
    a direct evaluation by up to delta.  Every other grid is evaluated angle
    by angle.
    """
    thetas = np.asarray(thetas, dtype=float)
    count = thetas.size
    if count % 2 == 0 and count and np.array_equal(
            thetas, np.linspace(0.0, 2.0 * np.pi, count, endpoint=False)):
        mu = schmidt_values(half_turn_gramians(state.coeffs, state.coeffs, count))
        half = entanglement_energies(mu)
        energies = np.concatenate((half, -half[:, ::-1]))
        entropy = np.tile(entanglement_entropy(mu), 2)
    else:
        mu = schmidt_values(rotated_gramians(state.coeffs, state.coeffs, thetas))
        energies = entanglement_energies(mu)
        entropy = entanglement_entropy(mu)
    gap = np.min(np.abs(energies), axis=-1)
    return PSESDataset(thetas=thetas, energies=energies, entropy=entropy, gap=gap)
