import itertools
import re
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from fuzzyfo import semantics
from fuzzyfo.chains import (
    STANDARD_CHAIN, enumerate_mtl_chains, make_boolean_chain,
    make_lukasiewicz_chain,
)
from fuzzyfo.semantics import (
    BudgetExceededError, EvalError, Structure, enumerate_structures, eval,
    eval_propositional, eval_term, parse_structure_file,
    structure_space_size,
)
from fuzzyfo.syntax import (
    App, Atom, Biimpl, Const, Exists, Forall, Impl, Join, Meet, Neg, StrongConj,
    TruthConst, Var, Vocabulary, classical_nnf, parse, star_translate,
)
from test_compiled import sentences

L3 = make_lukasiewicz_chain(3)
B2 = make_boolean_chain()
P1C = Vocabulary(predicates={"P": 1}, constants=frozenset({"c"}))
P1 = Vocabulary(predicates={"P": 1})


def struct_p(domain_size, values, c=None):
    s = {"P": {(i,): v for i, v in enumerate(values)}}
    consts = {"c": c} if c is not None else {}
    return Structure(domain_size, consts, {}, s)


def test_eval_strong_conj_half():
    phi = parse("P(c) & P(c)", P1C)
    assert eval(L3, struct_p(1, [1], c=0), phi) == 0


def test_eval_square_meet_corollary():
    phi = parse("(P(c) & P(c)) /\\ (~P(c) & ~P(c))", P1C)
    for chain in [B2, L3, make_lukasiewicz_chain(5)]:
        for v in chain.carrier():
            assert eval(chain, struct_p(1, [v], c=0), phi) == chain.bot


def test_eval_quantifiers_min_max():
    phi_all = parse("forall x. P(x)", P1)
    phi_some = parse("exists x. P(x)", P1)
    s = struct_p(2, [0, 1])
    assert eval(B2, s, phi_all) == 0
    assert eval(B2, s, phi_some) == 1


def test_eval_quantifier_monotone():
    phi = parse("P(x)", P1)
    s = struct_p(3, [0, 2, 1])
    lo = eval(L3, s, parse("forall x. P(x)", P1))
    hi = eval(L3, s, parse("exists x. P(x)", P1))
    for d in range(3):
        v = eval(L3, s, phi, {"x": d})
        assert lo <= v <= hi


def test_eval_neg_is_residuum_to_zero():
    phi = parse("~P(c)", P1C)
    for v in L3.carrier():
        assert eval(L3, struct_p(1, [v], c=0), phi) == L3.residuum(v, 0)
        assert eval(L3, struct_p(1, [v], c=0), phi) == L3.top - v  # rank complement


def test_eval_errors():
    with pytest.raises(EvalError):
        eval(B2, Structure(1), parse("P(c)", P1C))
    with pytest.raises(EvalError):
        eval(B2, struct_p(1, [1]), parse("P(x)", P1))


def test_eval_propositional_examples():
    p = Atom("P", (Const("c"),))
    phi = parse("P(c) \\/ ~P(c)", P1C)
    starred = star_translate(phi)
    assert eval_propositional(B2, {p: 1}, starred) == 1
    assert eval_propositional(L3, {p: 1}, starred) == 0
    assert eval_propositional(L3, {p: 1}, parse("1", P1C)) == L3.top


def test_eval_propositional_agrees_with_eval():
    p = Atom("P", (Const("c"),))
    phi = parse("P(c) -> (P(c) & P(c))", P1C)
    for v in L3.carrier():
        assert eval_propositional(L3, {p: v}, phi) == eval(L3, struct_p(1, [v], c=0), phi)


def test_structure_counts():
    assert len(list(enumerate_structures(P1, B2, 1))) == 2
    assert len(list(enumerate_structures(P1, L3, 2))) == 9
    assert len(list(enumerate_structures(P1C, B2, 2))) == 8


def test_structure_enumeration_with_functions():
    vocab = Vocabulary(predicates={"P": 1}, functions={"f": 1})
    structures = list(enumerate_structures(vocab, B2, 2))
    # 2^2 function tables x 2^2 predicate tables
    assert len(structures) == 16
    assert len({s.describe() for s in structures}) == 16


def test_budget_refusal():
    vocab = Vocabulary(predicates={"R": 2})
    with pytest.raises(BudgetExceededError) as exc:
        list(enumerate_structures(vocab, L3, 4, budget=100))
    assert exc.value.space == structure_space_size(vocab, L3, 4)


def test_star_equals_original_over_b2():
    phi = parse("forall x. (P(x) \\/ ~P(x))", P1)
    starred = star_translate(phi)
    for s in enumerate_structures(P1, B2, 2):
        assert eval(B2, s, phi) == eval(B2, s, starred)


def test_finite_chain_agrees_with_standard_on_grid():
    phi = parse("forall x. ((P(x) & P(x)) \\/ ~P(x))", P1)
    for k in (2, 3, 5):
        chain = make_lukasiewicz_chain(k)
        for s in enumerate_structures(P1, chain, 2):
            lifted = Structure(s.domain_size, {}, {}, {
                "P": {key: Fraction(v, k - 1) for key, v in s.predicates["P"].items()}
            })
            assert eval(STANDARD_CHAIN, lifted, phi) == Fraction(eval(chain, s, phi), k - 1)


def test_structure_file_round_trip():
    s = Structure(
        2,
        {"c": 1},
        {"f": {(0,): 1, (1,): 0}},
        {"P": {(0,): 1, (1,): 0}, "Q": {(0,): Fraction(1, 2), (1,): Fraction(3, 4)}},
    )
    text = s.describe() + "\n"
    parsed = parse_structure_file(text)
    assert parsed == Structure(
        2, {"c": 1}, {"f": {(0,): 1, (1,): 0}},
        {"P": {(0,): 1, (1,): 0}, "Q": {(0,): Fraction(1, 2), (1,): Fraction(3, 4)}},
    )


def test_structure_file_rank_and_rational_values():
    parsed = parse_structure_file("domain 1\npred P : #2\npred Q : 1/3\n")
    assert parsed.predicates["P"][(0,)] == 2
    assert parsed.predicates["Q"][(0,)] == Fraction(1, 3)


def test_enumerated_chains_evaluate_consistently():
    # spot check: evaluation result is always in the carrier
    phi = parse("exists x. (P(x) & P(x))", P1)
    for chain in enumerate_mtl_chains(4):
        for s in enumerate_structures(P1, chain, 1):
            assert 0 <= eval(chain, s, phi) <= chain.top


@pytest.mark.parametrize("text, value", [
    ("forall x. P(x)", Fraction(3, 2)),
    ("exists x. P(x)", Fraction(-1, 2)),
    ("P(c)", 0.5),
    ("1", 2),
])
def test_standard_chain_values_are_checked_where_the_structure_enters(text, value):
    message = f"pred P: value {value} is not an int or Fraction in [0, 1]"
    with pytest.raises(ValueError, match=re.escape(message)):
        eval(STANDARD_CHAIN, struct_p(1, [value], c=0), parse(text, P1C))


def test_standard_chain_accepts_ints_and_fractions_in_the_unit_interval():
    s = struct_p(3, [0, Fraction(1, 3), 1], c=0)
    assert eval(STANDARD_CHAIN, s, parse("exists x. P(x)", P1C)) == 1
    assert eval(STANDARD_CHAIN, s, parse("forall x. (P(x) \\/ ~P(x))", P1C)) == Fraction(2, 3)


def test_one_walk_keeps_each_entrys_error_for_non_formulas():
    with pytest.raises(TypeError, match="quantifier-free formula expected"):
        eval_propositional(L3, {}, parse("forall x. P(x)", P1))
    with pytest.raises(TypeError, match="quantifier-free formula expected"):
        eval_propositional(L3, {}, "P")
    with pytest.raises(TypeError, match="not a formula"):
        eval(L3, struct_p(1, [0]), "P")


def test_structures_with_partial_tables_or_non_int_elements_are_refused():
    forall_p = parse("forall x. P(x)", P1)
    cases = [
        (struct_p(2, [0, 1], c=Fraction(1, 2)), parse("P(c)", P1C), "const c = Fraction(1, 2) is outside"),
        (Structure(2, {}, {}, {"P": {(0,): 1}}), forall_p, "pred P: the table's keys"),
        (Structure(2, {}, {}, {"P": {}}), forall_p, "pred P: the table's keys"),
        (Structure(2, {}, {}, {"P": {(0,): 1, (1,): 0, (2,): 0}}), forall_p,
         "pred P: the table's keys"),
        (Structure(2, {"c": 0}, {"f": {(0,): 1}}, {"P": {(0,): 1, (1,): 0}}),
         parse("P(f(c))", Vocabulary(predicates={"P": 1}, constants=frozenset({"c"}),
                                     functions={"f": 1})), "fun f: the table's keys"),
        (Structure(1, {"c": 0}, {"f": {(0,): Fraction(0)}}, {"P": {(0,): 1}}),
         parse("P(f(c))", Vocabulary(predicates={"P": 1}, constants=frozenset({"c"}),
                                     functions={"f": 1})), "fun f: value Fraction(0, 1) is outside"),
        (Structure(0, {}, {}, {}), parse("forall x. 1", Vocabulary()), "domain size"),
    ]
    for structure, phi, message in cases:
        for chain in (L3, STANDARD_CHAIN):
            with pytest.raises(ValueError, match=re.escape(message)):
                eval(chain, structure, phi)


@pytest.mark.parametrize("table, arity", [
    ({(0,): 1, (5,): 0}, 1),          # the right size, one foreign key
    ({(0, 0): 1, (0, 1): 1, (1, 0): 1, (1, 2): 1}, 2),
    ({(): 1, (0,): 0}, 0),            # arity 0 with a second key
    ({"P": 1}, 0),                    # arity 0, a key that is no tuple
    ({}, 0),
    ({(0,): 1, (0, 1): 0}, 1),        # keys of mixed lengths
    ({(0, 1): 0, (0,): 1, (1,): 1, (1, 1): 0}, 2),
])
def test_a_table_whose_keys_are_not_the_argument_tuples_is_refused(table, arity):
    # the keys are exactly the n ** arity argument tuples, or this message
    assert set(table) != set(itertools.product(range(2), repeat=arity))
    for kind in ("pred", "fun"):
        with pytest.raises(ValueError) as info:
            semantics._check_keys(kind, "R", table, 2)
        assert str(info.value) == (f"{kind} R: the table's keys are not the {2 ** arity} "
                                   f"argument tuples of arity {arity} over the domain 0..1")


@pytest.mark.parametrize("table", [{(): 1}, {(0,): 1, (1,): 0},
                                   {(1, 1): 0, (0, 1): 1, (1, 0): 0, (0, 0): 1}])
def test_a_table_on_exactly_the_argument_tuples_is_accepted(table):
    semantics._check_keys("pred", "R", table, 2)


def test_an_atom_of_the_wrong_arity_is_an_eval_error():
    structure = struct_p(2, [0, 1], c=0)
    for chain in (L3, STANDARD_CHAIN):
        with pytest.raises(EvalError, match=re.escape("P has no entry for the arguments (0, 0)")):
            eval(chain, structure, parse("P(c, c)", Vocabulary(predicates={"P": 2},
                                                                constants=frozenset({"c"}))))


# -- the standard chain against a plain Fraction walk ---------------------

def fraction_eval(structure, phi, a):
    """Phi over [0, 1] in Fraction arithmetic, one connective at a time."""
    def term(t):
        if isinstance(t, Var):
            return a[t.name]
        if isinstance(t, Const):
            return structure.constants[t.name]
        return structure.functions[t.func][tuple(term(u) for u in t.args)]

    def go(phi, a):
        return fraction_eval(structure, phi, a)
    if isinstance(phi, Atom):
        return Fraction(structure.predicates[phi.pred][tuple(term(t) for t in phi.args)])
    if isinstance(phi, TruthConst):
        return Fraction(phi.top)
    if isinstance(phi, Neg):
        return 1 - go(phi.body, a)
    if isinstance(phi, (Forall, Exists)):
        values = [go(phi.body, {**a, phi.var: d}) for d in range(structure.domain_size)]
        return min(values) if isinstance(phi, Forall) else max(values)
    x, y = go(phi.left, a), go(phi.right, a)
    if isinstance(phi, StrongConj):
        return max(Fraction(0), x + y - 1)
    if isinstance(phi, Impl):
        return min(Fraction(1), 1 - x + y)
    if isinstance(phi, Meet):
        return min(x, y)
    if isinstance(phi, Join):
        return max(x, y)
    assert isinstance(phi, Biimpl)
    return 1 - abs(x - y)


unit_values = st.one_of(st.sampled_from([0, 1]),
                        st.fractions(min_value=0, max_value=1, max_denominator=60))


@st.composite
def sentence_structures(draw, values):
    """Structures for sentences over P/1, R/2, Q/0, c and f/1 (see `sentences`)."""
    n = draw(st.integers(1, 3))

    def table(arity, values):
        return {key: draw(values) for key in itertools.product(range(n), repeat=arity)}
    return Structure(n, {"c": draw(st.integers(0, n - 1))},
                     {"f": table(1, st.integers(0, n - 1))},
                     {"P": table(1, values), "R": table(2, values), "Q": table(0, values)})


@settings(max_examples=200, deadline=None)
@given(phi=sentences(), structure=sentence_structures(unit_values))
def test_scaled_standard_chain_eval_equals_the_fraction_walk(phi, structure):
    value = eval(STANDARD_CHAIN, structure, phi)
    assert type(value) is Fraction
    assert value == fraction_eval(structure, phi, {})


# -- the exhaustive walk as the reference -----------------------------------

def reference_eval(chain, structure, phi, a):
    """Phi by the walk `eval` made before its quantifier folds could stop.

    Every quantifier is a min/max over every element, each element under a
    fresh copy of the assignment, and every atom's arguments go through
    `eval_term`.  Over the standard chain the values stay as given, with no
    scaling to integer ranks.
    """
    def go(phi, a):
        return reference_eval(chain, structure, phi, a)
    if isinstance(phi, Atom):
        if phi.pred not in structure.predicates:
            raise EvalError(f"uninterpreted predicate {phi.pred}")
        return structure.predicates[phi.pred][tuple(eval_term(structure, t, a) for t in phi.args)]
    if isinstance(phi, TruthConst):
        return chain.top if phi.top else chain.bot
    if isinstance(phi, Neg):
        return chain.neg(go(phi.body, a))
    if isinstance(phi, (Forall, Exists)):
        pick = min if isinstance(phi, Forall) else max
        return pick(go(phi.body, {**a, phi.var: d}) for d in range(structure.domain_size))
    op = {StrongConj: chain.tnorm, Impl: chain.residuum, Meet: chain.meet,
          Join: chain.join, Biimpl: chain.biimpl}[type(phi)]
    return op(go(phi.left, a), go(phi.right, a))


MTL_CHAINS_UP_TO_4 = [c for size in (2, 3, 4) for c in enumerate_mtl_chains(size)]


@pytest.mark.parametrize("chain", MTL_CHAINS_UP_TO_4 + [STANDARD_CHAIN],
                         ids=lambda c: f"mtl{c.size}" if c.size else "standard")
@settings(max_examples=60, deadline=None)
@given(phi=sentences(), data=st.data())
def test_eval_equals_the_exhaustive_walk(chain, phi, data):
    values = st.integers(0, chain.top) if chain.size else unit_values
    structure = data.draw(sentence_structures(values))
    assert eval(chain, structure, phi) == reference_eval(chain, structure, phi, {})


SETTLED_FOLD_VOCAB = Vocabulary(predicates={"P": 1, "Q": 1, "R": 1},
                                constants=frozenset({"c"}), functions={"f": 1})


@pytest.mark.parametrize("text, tables, message", [
    ("exists x. (P(x) \\/ Q(y))", {"Q": [0, 0]}, "unbound variable y"),
    ("exists x. (P(x) \\/ Q(x))", {}, "uninterpreted predicate Q"),
    ("forall x. (P(x) /\\ R(c))", {"R": [1, 1]}, "uninterpreted constant c"),
    ("forall x. (P(x) /\\ R(f(x)))", {"R": [1, 1]}, "uninterpreted function f"),
])
@pytest.mark.parametrize("chain", [L3, STANDARD_CHAIN], ids=["luk3", "standard"])
def test_a_fold_settled_at_its_first_element_keeps_its_errors(text, tables, message, chain):
    # P(0) alone settles the fold: top for the exists, bottom for the forall
    first = chain.top if text.startswith("exists") else chain.bot
    predicates = {"P": [first, chain.top - first]} | tables
    structure = Structure(2, {}, {}, {p: {(i,): v for i, v in enumerate(values)}
                                      for p, values in predicates.items()})
    phi = parse(text, SETTLED_FOLD_VOCAB)
    for evaluate in (eval, lambda *args: reference_eval(*args, {})):
        with pytest.raises(EvalError, match=re.escape(message)):
            evaluate(chain, structure, phi)


def test_each_binder_leaves_the_outer_assignment_alone():
    # the exists settles at x = 0, which must not leak into the outer x = 1
    structure = struct_p(2, [L3.top, L3.bot])
    a = {"x": 1}
    assert eval(L3, structure, parse("(exists x. P(x)) & P(x)", P1), a) == L3.bot
    assert a == {"x": 1}
    shadowed = parse("forall x. ((exists x. P(x)) -> P(x))", P1)
    assert eval(L3, structure, shadowed) == reference_eval(L3, structure, shadowed, {}) == L3.bot
