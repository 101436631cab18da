"""Shared generators for random Slater states, and the row-wise table
formatter the CLI's column-block writer must reproduce byte for byte."""

import json
import math

import numpy as np

from psesk.states import SlaterState


def random_unitary_rows(rng, n_rows: int, dim: int) -> np.ndarray:
    """First n_rows of a Haar-ish unitary on C^dim (QR of a Gaussian)."""
    g = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
    q, r = np.linalg.qr(g)
    q = q * (np.diag(r) / np.abs(np.diag(r))).conj()
    return q[:, :n_rows].T.conj()


def random_slater(rng, n: int, m: int) -> SlaterState:
    return SlaterState(random_unitary_rows(rng, n, m))


def negation_asymmetry(eps) -> float:
    """L-infinity optimal-matching distance between {eps} and {-eps}.

    Infinite entries pair off by sign count; the finite part of a
    negation-symmetric multiset satisfies sorted[i] = -sorted[N-1-i].
    """
    eps = np.asarray(eps, dtype=float)
    if np.sum(np.isposinf(eps)) != np.sum(np.isneginf(eps)):
        return np.inf
    finite = np.sort(eps[np.isfinite(eps)])
    if finite.size == 0:
        return 0.0
    return float(np.max(np.abs(finite + finite[::-1])))


def random_symmetric_slater(rng, n_even: int, n_odd: int, m: int) -> SlaterState:
    """Inversion-symmetric state: rows supported on one basis parity each."""
    even_idx = np.arange(0, m, 2)
    odd_idx = np.arange(1, m, 2)
    if n_even > len(even_idx) or n_odd > len(odd_idx):
        raise ValueError("basis too small for the requested sector sizes")
    rows = np.zeros((n_even + n_odd, m), dtype=complex)
    if n_even:
        rows[:n_even][:, even_idx] = random_unitary_rows(rng, n_even, len(even_idx))
    if n_odd:
        rows[n_even:][:, odd_idx] = random_unitary_rows(rng, n_odd, len(odd_idx))
    return SlaterState(rows)


def mixed_well_filling(rng, kind: str, n_even: int, n_odd: int) -> SlaterState:
    """The n_even lowest even and n_odd lowest odd bound levels of a well at
    M = 100, mixed by a random unitary (the benchmark's sweep states)."""
    from psesk.potentials import bound_states, potential

    levels = bound_states(potential(kind), 2 * max(n_even, n_odd), basis_size=100).states
    rows = np.vstack([levels[0::2][:n_even], levels[1::2][:n_odd]]).astype(complex)
    return SlaterState(random_unitary_rows(rng, n_even + n_odd, n_even + n_odd) @ rows)


def fmt_float(v) -> str:
    """A float cell as the CLI writes it: shortest round trip, +inf / -inf."""
    v = float(v)
    if math.isinf(v):
        return "+inf" if v > 0 else "-inf"
    return repr(v)


def _cell(cell) -> str:
    return cell if isinstance(cell, str) else fmt_float(cell)


def _json_value(v):
    if isinstance(v, float) and math.isinf(v):
        return "+inf" if v > 0 else "-inf"
    return v


def table_text(fmt: str, header, rows) -> str:
    """A table's file text, made one row tuple and one cell at a time."""
    if fmt == "json":
        items = (json.dumps({key: _json_value(cell) for key, cell in zip(header, row)},
                            sort_keys=True) for row in rows)
        return "[" + ", ".join(items) + "]\n"
    return "".join(",".join(map(_cell, row)) + "\n" for row in [header, *rows])


def matrix_text(rows) -> str:
    """A gnuplot matrix's file text: space-joined CSV cells per row."""
    return "".join(" ".join(map(_cell, row)) + "\n" for row in rows)
