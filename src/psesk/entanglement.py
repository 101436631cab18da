"""From a cut Gramian to Schmidt values, single-particle entanglement
energies, the entanglement Hamiltonian, and entanglement entropy.

Every mode of the Slater state splits across the cut with probabilities
(mu_a, 1 - mu_a) given by the Gramian eigenvalues, so the reduced density
matrix is a tensor product of 2x2 blocks and everything reduces to the
mu_a.  Energies are epsilon_a = -ln(mu_a / (1 - mu_a)), reported relative
(the additive constant tr ln(1 - O) is dropped); modes fully inside or
outside the cut map to -inf / +inf sentinels rather than exceptions.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np
from scipy.special import xlogy

from .overlap import OverlapMatrix, clamp_unit_interval, rotated_overlap
from .states import SlaterState

__all__ = [
    "NonHermitian",
    "SingularOverlap",
    "SchmidtValues",
    "PSESDataset",
    "schmidt_values",
    "entanglement_energies",
    "entanglement_hamiltonian",
    "entanglement_entropy",
    "pses_sweep",
]

HERMITICITY_TOL = 1e-10
SINGULAR_DELTA = 1e-12


class NonHermitian(Exception):
    """Input matrix is not Hermitian within tolerance."""


class SingularOverlap(Exception):
    """A Schmidt value sits at 0 or 1; the log-form Hamiltonian is undefined."""


@dataclass(frozen=True)
class SchmidtValues:
    """Gramian eigenvalues in [0, 1], sorted descending."""

    mu: np.ndarray

    def __len__(self) -> int:
        return len(self.mu)


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


def _as_matrix(o) -> np.ndarray:
    return o.entries if isinstance(o, OverlapMatrix) else np.asarray(o, dtype=complex)


def schmidt_values(o) -> SchmidtValues:
    """Eigenvalues of the cut Gramian, clamped to [0, 1], descending."""
    mat = _as_matrix(o)
    if np.max(np.abs(mat - mat.conj().T)) > HERMITICITY_TOL:
        raise NonHermitian("overlap matrix is not Hermitian")
    mu = clamp_unit_interval(np.linalg.eigvalsh(mat))
    return SchmidtValues(mu=mu[::-1])


def entanglement_energies(mu) -> np.ndarray:
    """epsilon_a = -ln(mu_a / (1 - mu_a)); mu = 1 -> -inf, mu = 0 -> +inf.

    Descending mu yields ascending energies.
    """
    m = mu.mu if isinstance(mu, SchmidtValues) else np.asarray(mu, dtype=float)
    out = np.empty_like(m)
    with np.errstate(divide="ignore"):
        interior = (m > 0.0) & (m < 1.0)
        out[interior] = -np.log(m[interior] / (1.0 - m[interior]))
    out[m >= 1.0] = -np.inf
    out[m <= 0.0] = np.inf
    return out


def entanglement_hamiltonian(o) -> np.ndarray:
    """ln(O^{-1} - 1) via the eigendecomposition of the Gramian O."""
    mat = _as_matrix(o)
    if np.max(np.abs(mat - mat.conj().T)) > HERMITICITY_TOL:
        raise NonHermitian("overlap matrix is not Hermitian")
    mu, vecs = np.linalg.eigh(mat)
    mu = clamp_unit_interval(mu)
    if np.any(mu < SINGULAR_DELTA) or np.any(mu > 1.0 - SINGULAR_DELTA):
        raise SingularOverlap("Schmidt value at 0 or 1; use the sentinel-valued spectrum")
    eps = -np.log(mu / (1.0 - mu))
    return (vecs * eps) @ vecs.conj().T


def entanglement_entropy(mu) -> float:
    """Binary-entropy sum over the mode splitting probabilities."""
    m = mu.mu if isinstance(mu, SchmidtValues) else np.asarray(mu, dtype=float)
    return float(-np.sum(xlogy(m, m) + xlogy(1.0 - m, 1.0 - m)))


def pses_sweep(state: SlaterState, thetas: Sequence[float]) -> PSESDataset:
    """Entanglement spectrum, entropy, and gap over a grid of cut angles."""
    thetas = np.asarray(thetas, dtype=float)
    rows = []
    for theta in thetas:
        mu = schmidt_values(rotated_overlap(state, theta))
        rows.append((entanglement_energies(mu), entanglement_entropy(mu)))

    energies = np.array([r[0] for r in rows])
    entropy = np.array([r[1] for r in rows])
    with np.errstate(invalid="ignore"):
        gap = np.min(np.abs(energies), axis=1)
    return PSESDataset(thetas=thetas, energies=energies, entropy=entropy, gap=gap)
