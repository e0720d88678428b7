"""The bounded search against the reference evaluator.

The reference path kept here is the plain loop the deciders used before
compilation: `enumerate_structures` plus the recursive `eval`, one
structure at a time.  The flat layout must rebuild every structure in that
order, and every decider must give the same verdict, witness and errors, on
chains the kernel slices and on chains above 16 ranks alike.
"""

import itertools

import pytest
from hypothesis import HealthCheck, example, given, settings, strategies as st

from fuzzyfo import cli, semantics
from fuzzyfo.chains import enumerate_mtl_chains, make_godel_chain, make_lukasiewicz_chain
from fuzzyfo.decision import (
    sat1_bounded, sat_pos_bounded, taut0_bounded, taut_lt1_bounded,
)
from fuzzyfo.semantics import (
    BudgetExceededError, EvalError, EvaluatorMismatchError, Structure,
    enumerate_structures, eval, flat_layout, structure_space_size,
)
from fuzzyfo.syntax import (
    App, Atom, Biimpl, Const, Exists, Forall, Impl, Join, Meet, Neg, StrongConj,
    TruthConst, Var, Vocabulary, parse, vocabulary_of,
)

CHAINS = ([make_lukasiewicz_chain(k) for k in (2, 3, 4)]
          + [make_godel_chain(k) for k in (3, 4)]
          + [c for size in (2, 3, 4) for c in enumerate_mtl_chains(size)]
          + [make_lukasiewicz_chain(17), make_godel_chain(17)])  # above the kernel's 16 ranks

# (chain, domain size) pairs with more structures than this are sampled
SWEEP_CAP = 1500
SAMPLED = 40

VARS = ("x", "y", "z")
BINARY = (StrongConj, Impl, Meet, Join, Biimpl)


# -- random sentences -----------------------------------------------------

def _term(draw, scope, depth):
    # hypothesis favours the first option, so variables come first
    options = (["var"] * 3 if scope else []) + ["c"] + (["f"] if depth > 0 else [])
    kind = draw(st.sampled_from(options))
    if kind == "var":
        return Var(draw(st.sampled_from(scope)))
    if kind == "c":
        return Const("c")
    return App("f", (_term(draw, scope, depth - 1),))


def _formula(draw, scope, depth):
    # leaves only at depth 0, or rarely above, so that sentences nest a few levels
    if depth == 0:
        options = ["atom", "atom", "atom", "truth"]
    else:
        options = ["atom", "neg", "binary", "binary", "binary",
                   "quantifier", "quantifier", "quantifier"]
    kind = draw(st.sampled_from(options))
    if kind == "truth":
        return TruthConst(draw(st.booleans()))
    if kind == "atom":
        pred = draw(st.sampled_from(("R", "P", "Q")))
        arity = {"P": 1, "R": 2, "Q": 0}[pred]
        return Atom(pred, tuple(_term(draw, scope, 1) for _ in range(arity)))
    if kind == "neg":
        return Neg(_formula(draw, scope, depth - 1))
    if kind == "binary":
        op = draw(st.sampled_from(BINARY))
        return op(_formula(draw, scope, depth - 1), _formula(draw, scope, depth - 1))
    quantifier = draw(st.sampled_from((Forall, Exists)))
    fresh = [v for v in VARS if v not in scope]
    var = draw(st.sampled_from(fresh * 3 + list(scope)))  # mostly fresh, sometimes shadowing
    return quantifier(var, _formula(draw, scope + [var], depth - 1))


@st.composite
def sentences(draw):
    depth = draw(st.integers(2, 4))
    if draw(st.booleans()):
        return _formula(draw, [], depth)
    # a prefix over distinct variables, so that atoms like R(x, y) are common
    names = draw(st.permutations(VARS))[:draw(st.sampled_from((2, 3, 1)))]
    body = _formula(draw, list(names), depth - 1)
    for var in reversed(names):
        body = draw(st.sampled_from((Forall, Exists)))(var, body)
    return body


@st.composite
def searched_sentences(draw):
    """Sentences the deciders search for (a bare 0 or 1 is decided structurally)."""
    phi = draw(sentences())
    return Neg(phi) if isinstance(phi, TruthConst) else phi


# -- the reference path ---------------------------------------------------

def reference_find(K, phi, max_domain, budget, accept):
    vocab = vocabulary_of(phi)
    for chain in K:
        for n in range(1, max_domain + 1):
            for structure in enumerate_structures(vocab, chain, n, budget=budget):
                value = eval(chain, structure, phi)
                if accept(chain, value):
                    return chain, structure, value
    return None


def _nonzero(chain, value):
    return value != chain.bot


def _top(chain, value):
    return value == chain.top


DECIDERS = {
    "taut0": (taut0_bounded, _nonzero, "refuted"),
    "satpos": (sat_pos_bounded, _nonzero, "member_witness"),
    "tautlt1": (taut_lt1_bounded, _top, "refuted"),
    "sat1": (sat1_bounded, _top, "member_witness"),
}


def reference_verdict(name, K, phi, max_domain, budget):
    _, accept, kind = DECIDERS[name]
    found = reference_find(K, phi, max_domain, budget, accept)
    if found is None:
        return ("exhausted", None, None, None)
    chain, structure, value = found
    return (kind, value, chain, structure)


def outcome(fn):
    """A verdict's (kind, value, chain, witness), or the error it raised."""
    try:
        v = fn()
    except (BudgetExceededError, EvalError) as exc:
        return (type(exc).__name__, str(exc))
    if isinstance(v, tuple):
        return v
    return (v.kind, v.value, v.chain, v.structure)


def old_enumerate_structures(vocab, chain, n):
    """The nested-product enumeration the flat layout replaced, kept as the order spec."""
    const_names = sorted(vocab.constants)
    func_names = sorted(vocab.functions)
    pred_names = sorted(vocab.predicates)
    func_keys = {f: list(itertools.product(range(n), repeat=vocab.functions[f]))
                 for f in func_names}
    pred_keys = {p: list(itertools.product(range(n), repeat=vocab.predicates[p]))
                 for p in pred_names}
    for const_vals in itertools.product(range(n), repeat=len(const_names)):
        constants = dict(zip(const_names, const_vals))
        for func_vals in itertools.product(
                *(itertools.product(range(n), repeat=len(func_keys[f])) for f in func_names)):
            functions = {f: dict(zip(func_keys[f], vals))
                         for f, vals in zip(func_names, func_vals)}
            for pred_vals in itertools.product(
                    *(itertools.product(range(chain.size), repeat=len(pred_keys[p]))
                      for p in pred_names)):
                predicates = {p: dict(zip(pred_keys[p], vals))
                              for p, vals in zip(pred_names, pred_vals)}
                yield Structure(n, constants, functions, predicates)


# -- tests ----------------------------------------------------------------

FIXED = [
    "forall x. exists y. R(x, y)",
    "exists x. forall y. (R(x, y) -> R(y, x))",
    "forall x. (P(x) <-> ~P(f(x))) /\\ (P(c) \\/ Q)",
    "exists x. (R(x,x) <-> ~R(x,x)) & forall x. exists y. (R(x,y) <-> (R(y,x) & R(y,x)))",
]


@settings(max_examples=80, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(phi=sentences(), chain=st.sampled_from(CHAINS))
@example(phi=parse(FIXED[0]), chain=CHAINS[2])
@example(phi=parse(FIXED[1]), chain=CHAINS[4])
@example(phi=parse(FIXED[2]), chain=CHAINS[-3])
@example(phi=parse(FIXED[3]), chain=CHAINS[1])
@example(phi=parse(FIXED[2]), chain=CHAINS[-2])
@example(phi=parse(FIXED[2]), chain=CHAINS[-1])
def test_compiled_value_equals_eval_on_every_structure(phi, chain):
    """The flat layout rebuilds every structure of a small space in the nested order."""
    vocab = vocabulary_of(phi)
    for n in (1, 2, 3):
        if structure_space_size(vocab, chain, n) > SWEEP_CAP:
            break
        layout = flat_layout(vocab, chain, n)
        structures = old_enumerate_structures(vocab, chain, n)
        for values, structure in zip(itertools.product(*layout.ranges), structures, strict=True):
            assert layout.structure(values) == structure


@settings(max_examples=60, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(phi=searched_sentences(), name=st.sampled_from(sorted(DECIDERS)),
       K=st.lists(st.sampled_from(CHAINS), min_size=1, max_size=3),
       max_domain=st.integers(1, 3))
def test_deciders_match_reference_loop(phi, name, K, max_domain):
    budget = SWEEP_CAP
    decider = DECIDERS[name][0]
    got = outcome(lambda: decider(K, phi, max_domain, budget=budget))
    want = outcome(lambda: reference_verdict(name, K, phi, max_domain, budget))
    assert got == want


@settings(max_examples=40, deadline=None)
@given(phi=searched_sentences(), name=st.sampled_from(sorted(DECIDERS)),
       budget=st.integers(1, 300))
def test_budget_errors_match_reference_loop(phi, name, budget):
    K = [make_lukasiewicz_chain(3), make_godel_chain(4), make_lukasiewicz_chain(17)]
    decider = DECIDERS[name][0]
    got = outcome(lambda: decider(K, phi, 2, budget=budget))
    want = outcome(lambda: reference_verdict(name, K, phi, 2, budget))
    assert got == want


@pytest.mark.parametrize("vocab", [
    Vocabulary(predicates={"P": 1}),
    Vocabulary(predicates={"Q": 0, "R": 2}, constants=frozenset({"b", "a"})),
    Vocabulary(predicates={"P": 1}, functions={"f": 1, "g": 2}, constants=frozenset({"c"})),
])
def test_flat_enumeration_keeps_nested_order(vocab):
    chain = make_lukasiewicz_chain(3)
    for n in (1, 2):
        if structure_space_size(vocab, chain, n) > 20000:
            continue
        assert list(enumerate_structures(vocab, chain, n)) == \
            list(old_enumerate_structures(vocab, chain, n))


@pytest.mark.parametrize("phi", [
    Meet(Atom("P", (Var("x"),)), Atom("P", (Var("y"),))),
    Forall("x", Join(Atom("P", (Var("x"),)), Atom("P", (App("f", (Var("z"),)),)))),
    StrongConj(Exists("y", Atom("P", (Var("y"),))), Atom("P", (Var("y"),))),
])
def test_unbound_variables_raise_the_reference_error(phi):
    K = [make_lukasiewicz_chain(3)]
    for name in DECIDERS:
        got = outcome(lambda: DECIDERS[name][0](K, phi, 2))
        want = outcome(lambda: reference_verdict(name, K, phi, 2, 10**7))
        assert got == want
        assert got[0] == "EvalError"


def test_disagreeing_witness_raises_instead_of_returning(monkeypatch):
    real = semantics.eval

    def off_by_one(chain, structure, phi, assignment=None):
        return min(chain.top, real(chain, structure, phi, assignment) + 1)

    # chains above 16 ranks are searched by `semantics.eval`; the witness is
    # re-checked by `decision.eval`, which stays the real one
    monkeypatch.setattr(semantics, "eval", off_by_one)
    phi = parse("P(c) & ~P(c)")
    with pytest.raises(EvaluatorMismatchError):
        sat_pos_bounded([make_lukasiewicz_chain(17)], phi, 1)
    code, text = cli.run(["decide", "--set", "satpos", "--chain", "luk:17",
                          "--max-domain", "1", "--formula", "P(c) & ~P(c)"])
    assert code == 2
    assert text.startswith("internal consistency failure: found value 1 but reference value 0")
