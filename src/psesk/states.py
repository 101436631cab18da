"""Slater-determinant states as orthonormal coefficient rows over the
oscillator basis, plus the named state families used throughout.

A state holds a read-only copy of the rows it is given, and states compare
by identity (``==`` is ``is``), so a state can key a dictionary."""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

__all__ = ["SlaterState", "ho_slater", "interpolated_state"]

ORTHONORMALITY_TOL = 1e-8


@dataclass(frozen=True, eq=False)
class SlaterState:
    """N orthonormal single-particle states, rows of an N x M matrix."""

    coeffs: np.ndarray

    def __post_init__(self):
        c = np.array(self.coeffs, dtype=complex, ndmin=2)  # always a copy
        c.flags.writeable = False
        gram = c @ c.conj().T
        dev = np.max(np.abs(gram - np.eye(c.shape[0])))
        if not dev <= ORTHONORMALITY_TOL:  # a NaN deviation fails too
            raise ValueError(f"rows are not orthonormal (deviation {dev:.2e})")
        object.__setattr__(self, "coeffs", c)

    @property
    def n_particles(self) -> int:
        return self.coeffs.shape[0]

    @property
    def basis_size(self) -> int:
        return self.coeffs.shape[1]


def ho_slater(indices: Sequence[int], basis_size: int | None = None) -> SlaterState:
    """Slater determinant of oscillator eigenstates with the given indices.

    Indices must be strictly ascending (a set of occupied levels).
    """
    idx = list(indices)
    if any(b <= a for a, b in zip(idx, idx[1:])) or (idx and idx[0] < 0):
        raise ValueError("occupation indices must be strictly ascending and nonnegative")
    if not idx:
        raise ValueError("at least one occupied index required")
    m = basis_size if basis_size is not None else idx[-1] + 1
    if m < idx[-1] + 1:
        raise ValueError("basis size too small for the occupied indices")
    coeffs = np.zeros((len(idx), m), dtype=complex)
    for row, n in enumerate(idx):
        coeffs[row, n] = 1.0
    return SlaterState(coeffs)


def interpolated_state(t: float, phase: float, basis_size: int = 3) -> SlaterState:
    """Two-fermion interpolation between the oscillator ground state
    (levels {0,1}) and the first excited determinant (levels {1,2}).

    The shared odd orbital is phi_1; the even orbital sweeps from phi_0 to
    phi_2 as t goes 0 -> 1, picking up the relative phase.  The off-diagonal
    overlap block of this family is
    O_01 cos(pi t/2) e^{i theta} + O_21 sin(pi t/2) e^{i(phase - theta)},
    whose gap closes at t = (2/pi) arctan(O_01/O_21) and theta = (pi+phase)/2.
    The family has period 4 in t, which is reduced exactly (math.fmod)
    before pi t / 2 is taken, so a huge |t| neither overflows nor loses
    its place in the period.
    """
    if basis_size < 3:
        raise ValueError("basis size must be at least 3")
    t = math.fmod(t, 4.0)
    even = np.zeros(basis_size, dtype=complex)
    even[0] = np.cos(np.pi * t / 2.0)
    even[2] = np.exp(-1j * phase) * np.sin(np.pi * t / 2.0)
    odd = np.zeros(basis_size, dtype=complex)
    odd[1] = 1.0
    return SlaterState(np.vstack([even, odd]))
