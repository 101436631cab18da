"""Metamorphic relations from the phase-space symmetries of the cut.

Rotating a state by alpha (c_n -> c_n e^{-i n alpha}) rotates its cut
Gramian, O'(theta) = O(theta - alpha); inversion (c_n -> (-1)^n c_n) swaps
the two half planes, mu -> 1 - mu, so the energies become 0 - the row
reversed; mixing the orbitals by a unitary and padding the basis with zero
columns change nothing.  Each
relation is checked on seeded random general and inversion-symmetric
states, real and complex, from M = 3 to 400, on uniform grids of an even
number K of angles against off-grid angles: the grid side takes the
half-turn FFT (or the quarter turn and its mirror for a real span) and the
swap, the off-grid side sums the harmonics angle by angle, so the two share
no evaluation code.  Schmidt values agree to 1e-12, energies below
|epsilon| = 10 to 1e-9, and the winding of a balanced symmetric state is
the same integer (or the same refusal) for the state and all its images.
"""

import math
from unittest import mock

import numpy as np
from hypothesis import example, given, settings
from hypothesis import strategies as st

from psesk import chiral, overlap
from psesk.entanglement import pses_sweep
from psesk.states import NumericError, SlaterState


def _rows(rng, count: int, dim: int, real: bool) -> np.ndarray:
    """``count`` random orthonormal rows of length ``dim``, real or complex."""
    g = rng.normal(size=(dim, count))
    if not real:
        g = g + 1j * rng.normal(size=(dim, count))
    return np.linalg.qr(g)[0].T


def _state(seed: int, m: int, symmetric: bool, real: bool, n_even: int, n_odd: int):
    """A seeded random state of M = m columns and at least one row.  A
    symmetric one has n_even rows on the even and n_odd on the odd basis
    columns (at most as many as there are); a general one has n_even + n_odd
    rows over all columns.  A real state's span is closed under complex
    conjugation."""
    rng = np.random.default_rng(seed)
    if not symmetric:
        return SlaterState(_rows(rng, min(max(1, n_even + n_odd), m), m, real))
    n_even, n_odd = min(max(n_even, int(n_odd == 0)), (m + 1) // 2), min(n_odd, m // 2)
    coeffs = np.zeros((n_even + n_odd, m), dtype=complex)
    coeffs[:n_even, 0::2] = _rows(rng, n_even, (m + 1) // 2, real)
    coeffs[n_even:, 1::2] = _rows(rng, n_odd, m // 2, real)
    return SlaterState(coeffs)


def _mu(energies: np.ndarray) -> np.ndarray:
    with np.errstate(over="ignore"):
        return 1.0 / (1.0 + np.exp(energies))


def _assert_same_spectrum(a: np.ndarray, b: np.ndarray) -> None:
    """Schmidt values within 1e-12; energies within 1e-9 where |epsilon| < 10."""
    assert a.shape == b.shape
    assert np.max(np.abs(_mu(a) - _mu(b)), initial=0.0) <= 1e-12
    inner = (np.abs(a) < 10.0) & (np.abs(b) < 10.0)
    assert np.max(np.abs(a - b)[inner], initial=0.0) <= 1e-9


def _winding(state: SlaterState):
    """The winding of a balanced symmetric state, or the refusal's class name."""
    try:
        return chiral.winding_number(chiral.parity_sort(state))
    except NumericError as exc:
        return type(exc).__name__


@settings(max_examples=200, deadline=None, derandomize=True)
@given(seed=st.integers(0, 2**32 - 1), m=st.integers(3, 400), symmetric=st.booleans(),
       real=st.booleans(), n_even=st.integers(0, 4), n_odd=st.integers(0, 4),
       balanced=st.booleans(), half_k=st.integers(1, 96),
       alpha=st.floats(1e-3, 2.0 * math.pi - 1e-3), pad=st.integers(1, 40),
       row_blocks=st.booleans())
@example(seed=5, m=400, symmetric=True, real=True, n_even=4, n_odd=4, balanced=True,
         half_k=64, alpha=1.0, pad=24, row_blocks=True)
@example(seed=5, m=40, symmetric=False, real=False, n_even=2, n_odd=1, balanced=False,
         half_k=8, alpha=0.5, pad=7, row_blocks=True)
def test_rotation_inversion_mixing_and_padding_keep_the_spectrum(
        seed, m, symmetric, real, n_even, n_odd, balanced, half_k, alpha, pad, row_blocks):
    state = _state(seed, m, symmetric, real, n_even, n_even if balanced else n_odd)
    n = np.arange(m)
    rotated = SlaterState(state.coeffs * np.exp(-1j * n * alpha))
    inverted = SlaterState(state.coeffs * np.where(n % 2, -1.0, 1.0))
    padded = SlaterState(np.pad(state.coeffs, ((0, 0), (0, pad))))
    size = len(state.coeffs)
    mixed = SlaterState(_rows(np.random.default_rng(seed + 1), size, size, False) @ state.coeffs)
    grid = np.linspace(0.0, 2.0 * math.pi, 2 * half_k, endpoint=False)
    # one left row per harmonics block, so every row-block boundary is crossed
    with mock.patch.object(overlap, "HARMONIC_BYTES", 1 if row_blocks else overlap.HARMONIC_BYTES):
        base = pses_sweep(state, grid)
        # the rotated state at theta + alpha is the state at theta
        turned = pses_sweep(rotated, grid + alpha)
        _assert_same_spectrum(turned.energies, base.energies)
        assert np.max(np.abs(turned.entropy - base.entropy)) <= 1e-12
        # inversion swaps the half planes: mu -> 1 - mu
        _assert_same_spectrum(pses_sweep(inverted, grid).energies, 0.0 - base.energies[:, ::-1])
        _assert_same_spectrum(pses_sweep(padded, grid).energies, base.energies)
        _assert_same_spectrum(pses_sweep(mixed, grid).energies, base.energies)
        ps = chiral.parity_sort(state) if symmetric else None
        if ps is not None and ps.n_even == ps.n_odd:
            windings = {_winding(s) for s in (state, rotated, inverted, padded, mixed)}
            assert len(windings) == 1, windings

