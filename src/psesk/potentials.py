"""Spectral (Galerkin) bound-state solver for 1D wells in the oscillator basis.

A potential is its sampler: a vectorized V(x) on float arrays, either a
built-in well (BUILTIN_KINDS) or compiled from an expression over + - * /
^ sech tanh exp x and numeric literals.  The expression is tokenized over
that alphabet (at most MAX_EXPRESSION_TOKENS tokens), parsed by Python's
``ast`` with ^ read as **, and compiled from a whitelist of node types.

H = p^2/2 + V(x) with hbar = m = 1.  The kinetic part is pentadiagonal and
assembled from ladder operators (exact); the potential matrix uses
Gauss-Hermite quadrature with the exp(+x^2) reweighting, exact for
polynomial potentials up to the rule's degree and spectrally accurate for
sech^2 / tanh wells.  Eigenvectors feed straight into SlaterState.
"""

from __future__ import annotations

import ast
import operator
import re
from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np

from .hobasis import DEFAULT_BASIS_SIZE, ho_stack, quadrature_order, reweighted_rule
from .states import SlaterState

__all__ = [
    "QuadratureOverflow",
    "NotEnoughBoundStates",
    "BoundStateSet",
    "potential",
    "parse_potential_expression",
    "hamiltonian_matrix",
    "bound_states",
    "parity_check",
    "kinetic_matrix",
]

# where the continuum threshold samples the potential
X_EDGE = 25.0
PARITY_SUPPORT_TOL = 1e-10

Sampler = Callable[[np.ndarray], np.ndarray]


class QuadratureOverflow(Exception):
    """Potential grows at least as fast as exp(x^2); matrix elements diverge."""


class NotEnoughBoundStates(Exception):
    """Fewer genuine bound levels below the continuum than requested."""


_BUILTIN_SAMPLERS = {
    "sho": lambda x: 0.5 * x * x,
    "anharmonic": lambda x: 0.5 * x * x + 0.25 * x**4,
    "double_well": lambda x: -2.0 * x * x + 0.25 * x**4,
    "poschl_teller": lambda x: -45.0 / np.cosh(x) ** 2,
    "rosen_morse": lambda x: -45.0 / np.cosh(x) ** 2 - 2.0 * np.tanh(x),
}
BUILTIN_KINDS = tuple(_BUILTIN_SAMPLERS)


def potential(kind: str, expression: Optional[str] = None) -> Sampler:
    """The sampler V(x) of a built-in kind or of a custom expression."""
    if kind == "custom":
        if not expression:
            raise ValueError("custom potential requires an expression")
        return parse_potential_expression(expression)
    if kind not in _BUILTIN_SAMPLERS:
        raise ValueError(f"unknown potential kind {kind!r}")
    return _BUILTIN_SAMPLERS[kind]


# fixes the parser's alphabet and bounds the depth of the compiled sampler
MAX_EXPRESSION_TOKENS = 256
_TOKEN = re.compile(r"\s*(\d+\.?\d*(?:[eE][+-]?\d+)?|sech|tanh|exp|x|[()+\-*/^])")
_FUNCS = {"sech": lambda v: 1.0 / np.cosh(v), "tanh": np.tanh, "exp": np.exp}
_BINOPS = {ast.Add: operator.add, ast.Sub: operator.sub, ast.Mult: operator.mul,
           ast.Div: operator.truediv, ast.Pow: operator.pow}


def parse_potential_expression(text: str) -> Sampler:
    """Compile an expression over +, -, *, /, ^, sech, tanh, exp, x, literals.

    Standard precedence, right-associative ^; returns a vectorized sampler
    that evaluates without floating-point warnings (callers check finiteness).
    """
    tokens = []
    pos = 0
    while pos < len(text):
        m = _TOKEN.match(text, pos)
        if not m:
            if text[pos:].strip():
                raise ValueError(f"bad token at {text[pos:]!r}")
            break
        tokens.append(m.group(1))
        pos = m.end()
    if len(tokens) > MAX_EXPRESSION_TOKENS:
        raise ValueError(f"expression has more than {MAX_EXPRESSION_TOKENS} tokens")
    # a function name must be called directly: Python would also call (sech)(x)
    for tok, after in zip(tokens, tokens[1:] + [None]):
        if tok in _FUNCS and after != "(":
            raise ValueError(f"expected '(' after {tok!r} in {text!r}")
    # Python's grammar has the same precedence once ^ is **; literals become
    # names _k bound to float(token) (so 007 is 7.0 and 1e400 is inf), and the
    # spaces keep "* *" and "/ /" from reading as ** and //
    literals = {f"_{k}": float(tok) for k, tok in enumerate(tokens) if tok[0].isdigit()}
    source = " ".join(
        f"_{k}" if tok[0].isdigit() else "**" if tok == "^" else tok
        for k, tok in enumerate(tokens)
    )
    try:
        tree = ast.parse(source, mode="eval").body
    except SyntaxError as exc:
        raise ValueError(f"cannot parse {text!r}: {exc.msg}") from None

    def build(node: ast.expr) -> Sampler:
        match node:
            case ast.BinOp(left, op, right) if type(op) in _BINOPS:
                f, a, b = _BINOPS[type(op)], build(left), build(right)
                return lambda x: f(a(x), b(x))
            case ast.UnaryOp(ast.USub(), operand):
                a = build(operand)
                return lambda x: -a(x)
            case ast.Call(ast.Name(name), [arg], []) if name in _FUNCS:
                f, a = _FUNCS[name], build(arg)
                return lambda x: f(a(x))
            case ast.Name("x"):
                return lambda x: np.asarray(x, dtype=float)
            case ast.Name(name) if name in literals:
                v = literals[name]
                return lambda x: np.full_like(np.asarray(x, dtype=float), v)
        raise ValueError(f"unsupported {type(node).__name__} in {text!r}")

    return np.errstate(all="ignore")(build(tree))


def kinetic_matrix(basis_size: int) -> np.ndarray:
    """<phi_m| p^2/2 |phi_n>: pentadiagonal from p^2 = -(a - a^dag)^2 / 2."""
    t = np.diag((2.0 * np.arange(basis_size) + 1.0) / 4.0)
    k = np.arange(basis_size - 2)  # empty below basis size 3
    t[k, k + 2] = t[k + 2, k] = -np.sqrt((k + 1.0) * (k + 2.0)) / 4.0
    return t


def _screen_growth(sampler: Sampler, nodes: np.ndarray) -> None:
    vals = np.asarray(sampler(nodes), dtype=float)
    if not np.all(np.isfinite(vals)):
        raise QuadratureOverflow("potential is not finite at the quadrature nodes")
    outer = np.abs(nodes) >= 0.8 * np.max(np.abs(nodes))
    big = outer & (np.abs(vals) > 1.0)
    if np.any(big):
        growth = np.log(np.abs(vals[big])) / nodes[big] ** 2
        if np.min(growth) >= 0.95:
            raise QuadratureOverflow("potential grows at least as fast as exp(x^2)")


def hamiltonian_matrix(sampler: Sampler, basis_size: int = DEFAULT_BASIS_SIZE) -> np.ndarray:
    """Galerkin matrix of p^2/2 + V in the truncated oscillator basis, V by
    Gauss-Hermite quadrature of quadrature_order(basis_size)."""
    nodes, w = reweighted_rule(quadrature_order(basis_size))
    _screen_growth(sampler, nodes)
    phi = ho_stack(basis_size - 1, nodes)
    v = (phi * (w * np.asarray(sampler(nodes), dtype=float))) @ phi.T
    h = kinetic_matrix(basis_size) + 0.5 * (v + v.T)
    if not np.all(np.isfinite(h)):
        raise QuadratureOverflow("Galerkin matrix has non-finite entries")
    return h


@dataclass(frozen=True)
class BoundStateSet:
    """Lowest bound levels of a well: ascending energies and coefficient rows."""

    energies: np.ndarray
    states: np.ndarray
    basis_size: int
    quadrature_order: int

    def as_slater(self) -> SlaterState:
        """The Slater state filling every level of the set."""
        return SlaterState(self.states.astype(complex))


def _continuum_threshold(sampler: Sampler) -> float:
    edge = np.asarray(sampler(np.array([-X_EDGE, X_EDGE])), dtype=float)
    return float(np.min(edge))


def bound_states(
    sampler: Sampler,
    count: int,
    basis_size: int = DEFAULT_BASIS_SIZE,
    convergence_tol: Optional[float] = None,
) -> BoundStateSet:
    """Lowest ``count`` bound eigenpairs of the well.

    Levels must lie below the potential's asymptotic value (continuum edge);
    eigenvector phases are fixed by making the largest-modulus coefficient
    real positive (ties to the lowest index) so coefficient matrices are
    reproducible.  ``convergence_tol``, if given, rejects the set when any
    requested level moves by more than that between basis sizes
    basis_size - 20 and basis_size.
    """
    h = hamiltonian_matrix(sampler, basis_size)
    energies, vecs = np.linalg.eigh(h)
    threshold = _continuum_threshold(sampler)
    n_bound = int(np.sum(energies < threshold)) if np.isfinite(threshold) else basis_size
    if count > n_bound:
        raise NotEnoughBoundStates(
            f"requested {count} levels but only {n_bound} lie below the continuum at {threshold:.3g}"
        )
    if convergence_tol is not None:
        smaller = bound_states(sampler, count, basis_size - 20)
        drift = np.max(np.abs(energies[:count] - smaller.energies))
        if drift > convergence_tol:
            raise NotEnoughBoundStates(
                f"levels not converged: max drift {drift:.3e} exceeds {convergence_tol:.1e}"
            )
    rows = vecs[:, :count].T.copy()
    for row in rows:
        k = int(np.argmax(np.abs(row)))
        if row[k] < 0:
            row *= -1.0
    return BoundStateSet(
        energies=energies[:count].copy(),
        states=rows,
        basis_size=basis_size,
        quadrature_order=quadrature_order(basis_size),
    )


def parity_check(bset: BoundStateSet) -> list[Optional[int]]:
    """Per-state inversion parity: +1, -1, or None for asymmetric states.

    A state is a parity eigenstate when its coefficient weight on the
    opposite-parity basis indices is below PARITY_SUPPORT_TOL.
    """
    odd_index = np.arange(bset.basis_size) % 2 == 1
    out: list[Optional[int]] = []
    for row in bset.states:
        w_odd = float(np.sum(np.abs(row[odd_index]) ** 2))
        w_even = float(np.sum(np.abs(row[~odd_index]) ** 2))
        if w_odd <= PARITY_SUPPORT_TOL:
            out.append(1)
        elif w_even <= PARITY_SUPPORT_TOL:
            out.append(-1)
        else:
            out.append(None)
    return out
