import math

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from psesk import potentials as pot
from psesk.chiral import NotInversionSymmetric, parity_sort

PT_EXACT = -0.5 * (9.0 - np.arange(9)) ** 2


def test_kinetic_corner_element():
    t = pot.kinetic_matrix(6)
    assert t[0, 0] == pytest.approx(0.25)
    assert t[0, 2] == pytest.approx(-math.sqrt(2.0) / 4.0)
    assert np.allclose(t, t.T)
    # bases below 3 have no off-diagonal band
    for m in (1, 2):
        assert np.array_equal(pot.kinetic_matrix(m), t[:m, :m])


def test_sho_hamiltonian_is_diagonal_level_ladder():
    h = pot.hamiltonian_matrix(pot.potential("sho"), basis_size=40)
    want = np.diag(np.arange(40) + 0.5)
    assert np.max(np.abs(h - want)) < 1e-10


def test_quadrature_path_matches_analytic_sho():
    # V = x^2/2 through the custom-expression path, against the exact ladder
    spec = pot.potential("custom", "x^2/2")
    h = pot.hamiltonian_matrix(spec, basis_size=30)
    assert np.max(np.abs(h - np.diag(np.arange(30) + 0.5))) < 1e-10


def test_free_hamiltonian_is_pure_kinetic():
    spec = pot.potential("custom", "0")
    h = pot.hamiltonian_matrix(spec, basis_size=12)
    assert np.max(np.abs(h - pot.kinetic_matrix(12))) < 1e-12


def test_sho_energies():
    bset = pot.bound_states(pot.potential("sho"), 8)
    assert np.max(np.abs(bset.energies - (np.arange(8) + 0.5))) < 1e-8


def test_poschl_teller_energies_match_analytic_spectrum():
    bset = pot.bound_states(pot.potential("poschl_teller"), 7)
    rel = np.abs(bset.energies - PT_EXACT[:7]) / np.abs(PT_EXACT[:7])
    assert np.max(rel) < 1e-4
    assert abs(bset.energies[0] + 40.5) < 1e-4


def test_double_well_tunneling_doublet():
    bset = pot.bound_states(pot.potential("double_well"), 3)
    splitting = bset.energies[1] - bset.energies[0]
    spacing = bset.energies[2] - bset.energies[1]
    assert splitting < spacing / 10.0


def test_variational_monotonicity_in_basis_size():
    spec = pot.potential("poschl_teller")
    levels = 5
    prev = None
    for m in (60, 80, 100):
        e = pot.bound_states(spec, levels, basis_size=m).energies
        if prev is not None:
            assert np.all(e <= prev + 1e-12)
        prev = e


def test_convergence_gate_passes_polynomial_wells_and_rejects_narrow_ones():
    e = pot.bound_states(pot.potential("anharmonic"), 6, convergence_tol=1e-6)
    assert len(e.energies) == 6
    with pytest.raises(pot.NotEnoughBoundStates):
        pot.bound_states(pot.potential("poschl_teller"), 7, convergence_tol=1e-6)


def test_orthonormal_states_feed_slater():
    bset = pot.bound_states(pot.potential("poschl_teller"), 6)
    gram = bset.states @ bset.states.T.conj()
    assert np.max(np.abs(gram - np.eye(6))) < 1e-9
    s = bset.as_slater()
    assert s.n_particles == 6


def test_deterministic_eigenvector_phase():
    a = pot.bound_states(pot.potential("double_well"), 4)
    b = pot.bound_states(pot.potential("double_well"), 4)
    assert np.array_equal(a.states, b.states)
    for row in a.states:
        k = int(np.argmax(np.abs(row)))
        assert row[k].real > 0


def test_not_enough_bound_states():
    with pytest.raises(pot.NotEnoughBoundStates):
        pot.bound_states(pot.potential("poschl_teller"), 12)


def test_parity_alternation_for_symmetric_wells():
    for kind in ("sho", "poschl_teller"):
        bset = pot.bound_states(pot.potential(kind), 6)
        parities = pot.parity_check(bset)
        assert parities == [1, -1, 1, -1, 1, -1]


def test_rosen_morse_breaks_parity():
    bset = pot.bound_states(pot.potential("rosen_morse"), 6)
    assert pot.parity_check(bset) == [None] * 6
    with pytest.raises(NotInversionSymmetric):
        parity_sort(bset.as_slater())


def test_rosen_morse_energies_below_continuum():
    bset = pot.bound_states(pot.potential("rosen_morse"), 6)
    assert np.all(bset.energies < -2.0)
    assert np.all(np.diff(bset.energies) > 0)


def test_growth_screening_rejects_super_gaussian():
    with pytest.raises(pot.QuadratureOverflow):
        pot.hamiltonian_matrix(pot.potential("custom", "exp(x^2)"), basis_size=20)


def test_growth_screening_accepts_polynomials():
    pot.hamiltonian_matrix(pot.potential("custom", "x^4/4"), basis_size=20)


# ------------------------------------------------------------------ parser


def test_parser_matches_builtin_forms():
    x = np.linspace(-3, 3, 31)
    pairs = [
        ("x^2/2", pot.potential("sho")),
        ("x^2/2 + x^4/4", pot.potential("anharmonic")),
        ("-2*x^2 + x^4/4", pot.potential("double_well")),
        ("-45*sech(x)^2", pot.potential("poschl_teller")),
        ("-45*sech(x)^2 - 2*tanh(x)", pot.potential("rosen_morse")),
    ]
    for text, builtin in pairs:
        custom = pot.parse_potential_expression(text)
        assert np.max(np.abs(custom(x) - builtin(x))) < 1e-12


def test_parser_precedence_and_unary_minus():
    f = pot.parse_potential_expression("-x^2")
    assert f(np.array([2.0]))[0] == -4.0
    g = pot.parse_potential_expression("2*x^2")
    assert g(np.array([3.0]))[0] == 18.0
    h = pot.parse_potential_expression("(2*x)^2")
    assert h(np.array([3.0]))[0] == 36.0
    k = pot.parse_potential_expression("exp(-x^2/2)")
    assert k(np.array([1.0]))[0] == pytest.approx(math.exp(-0.5))


def test_parser_rejects_garbage():
    with pytest.raises(ValueError):
        pot.parse_potential_expression("x +")
    with pytest.raises(ValueError):
        pot.parse_potential_expression("cos(x)")
    with pytest.raises(ValueError):
        pot.parse_potential_expression("x ** 2")
    with pytest.raises(ValueError):
        pot.potential("not_a_well")
    for text in ("+x", "()", "x(x)", "sech x", "2 x", "(sech)(x)", "sech(x)(x)", "x // 2", ""):
        with pytest.raises(ValueError):
            pot.parse_potential_expression(text)


def test_parser_literals_are_floats_of_their_tokens():
    x = np.array([-1.0, 2.0])
    assert np.array_equal(pot.parse_potential_expression("007")(x), [7.0, 7.0])
    assert np.array_equal(pot.parse_potential_expression("1e400*x")(x), [-np.inf, np.inf])


def test_parser_accepts_the_token_cap():
    x = np.array([0.5, -2.0])
    deep = pot.parse_potential_expression("(" * 127 + "x" + ")" * 127)
    assert np.array_equal(deep(x), x)
    assert np.array_equal(pot.parse_potential_expression("-" * 255 + "x")(x), -x)
    with pytest.raises(ValueError):
        pot.parse_potential_expression("-" * 256 + "x")


# ------------------------------------------------------- grammar property
# A tree is a literal token, "x", ("-", a), (f, a) for f in sech/tanh/exp,
# or (op, a, b).  Binding strength: + - 1, * / 2, unary minus 3, ^ 4, atoms 5;
# + - * / group left, ^ groups right, and ^ takes an atom base and a unary
# exponent (so -x^2 is -(x^2) and 2^-x is 2^(-x)).

LITERALS = st.sampled_from(["0", "1", "2", "0.5", "3.", "007", "1e-3", "2.5e1", "1e400", "1E+2"])
FUNCS = {"sech": lambda v: 1.0 / np.cosh(v), "tanh": np.tanh, "exp": np.exp}
BINARY = {"+": np.add, "-": np.subtract, "*": np.multiply, "/": np.divide, "^": np.power}
LEVEL = {"+": 1, "-": 1, "*": 2, "/": 2, "neg": 3, "^": 4}
TREES = st.recursive(
    st.one_of(LITERALS, st.just("x")),
    lambda sub: st.one_of(
        st.tuples(st.just("-"), sub),
        st.tuples(st.sampled_from(sorted(FUNCS)), sub),
        st.tuples(st.sampled_from(sorted(BINARY)), sub, sub),
    ),
    max_leaves=24,
)


def _level(tree):
    if isinstance(tree, str) or tree[0] in FUNCS:
        return 5
    return LEVEL["neg" if len(tree) == 2 else tree[0]]


def _render(tree, least):
    """Tokens of ``tree`` with the fewest parentheses that keep its shape
    wherever an operand must bind at least as strongly as ``least``."""
    if isinstance(tree, str):
        tokens = [tree]
    elif tree[0] in FUNCS:
        tokens = [tree[0], "(", *_render(tree[1], 1), ")"]
    elif len(tree) == 2:
        tokens = ["-", *_render(tree[1], 3)]
    elif tree[0] == "^":
        tokens = [*_render(tree[1], 5), "^", *_render(tree[2], 3)]
    else:
        own = LEVEL[tree[0]]
        tokens = [*_render(tree[1], own), tree[0], *_render(tree[2], own + 1)]
    return ["(", *tokens, ")"] if _level(tree) < least else tokens


def _evaluate(tree, x):
    if tree == "x":
        return np.asarray(x, dtype=float)
    if isinstance(tree, str):
        return np.full_like(x, float(tree))
    if tree[0] in FUNCS:
        return FUNCS[tree[0]](_evaluate(tree[1], x))
    if len(tree) == 2:
        return -_evaluate(tree[1], x)
    return BINARY[tree[0]](_evaluate(tree[1], x), _evaluate(tree[2], x))


def _same_bits(a, b):
    nan = np.isnan(a)
    return np.array_equal(nan, np.isnan(b)) and a[~nan].tobytes() == b[~nan].tobytes()


GRAMMAR_X = np.array([0.0, -0.0, 1e-300, -1e-300, 0.5, -1.5, 2.0, -3.0, 30.0, 700.0, -700.0])


@settings(max_examples=400, deadline=None, derandomize=True)
@given(TREES, st.randoms(use_true_random=False))
def test_parser_matches_direct_evaluation_of_random_trees(tree, rnd):
    tokens = _render(tree, 1)
    assume(len(tokens) <= pot.MAX_EXPRESSION_TOKENS)
    text = "".join(tok + rnd.choice(["", "", " ", "  "]) for tok in tokens)
    sampler = pot.parse_potential_expression(text)
    with np.errstate(all="ignore"):
        want = _evaluate(tree, GRAMMAR_X)
    assert _same_bits(sampler(GRAMMAR_X), want), text
