"""The ground SAT core against independent references.

`prop_satisfiable` is checked against the Tseitin encoding and sympy's DPLL
in `tests/oracles.py`, its models against `eval_propositional` on B2, and
`is_classical_contradiction_prop` against a truth table kept in this file.
"""

from itertools import product

import pytest
from hypothesis import given, settings, strategies as st

from fuzzyfo import reduction
from fuzzyfo.chains import enumerate_mtl_chains, make_boolean_chain
from fuzzyfo.cli import run
from fuzzyfo.decision import (
    bsr_decide, dual_herbrand_search, is_classical_contradiction_prop, prop_satisfiable,
    purely_universal_contradiction,
)
from fuzzyfo.reduction import _propositional_star_check, hardness_reduce, verify_reduction_instance
from fuzzyfo.semantics import BudgetExceededError, eval_propositional
from fuzzyfo.syntax import (
    BOTTOM, TOP, Atom, Biimpl, Const, Impl, Join, Meet, Neg, StrongConj, TruthConst, atoms_of,
    parse, star_translate,
)

from oracles import _Cnf, _sat, _tseitin

B2 = make_boolean_chain()

C, D = Const("c"), Const("d")
GROUND_ATOMS = [Atom("A"), Atom("P", (C,)), Atom("P", (D,)), Atom("Q", (C,)),
                Atom("R", (C, C)), Atom("R", (C, D)), Atom("R", (D, C)), Atom("R", (D, D))]

formulas = st.recursive(
    st.sampled_from(GROUND_ATOMS + [TOP, BOTTOM]),
    lambda sub: st.one_of(
        sub.map(Neg),
        *(st.tuples(sub, sub).map(lambda lr, node=node: node(*lr))
          for node in (StrongConj, Meet, Join, Impl, Biimpl)),
    ),
    max_leaves=24,
)


def classical(phi, valuation) -> bool:
    if isinstance(phi, Atom):
        return valuation[phi]
    if isinstance(phi, TruthConst):
        return phi.top
    if isinstance(phi, Neg):
        return not classical(phi.body, valuation)
    left, right = classical(phi.left, valuation), classical(phi.right, valuation)
    if isinstance(phi, (StrongConj, Meet)):
        return left and right
    if isinstance(phi, Join):
        return left or right
    if isinstance(phi, Impl):
        return not left or right
    return left == right


def truth_table_contradiction(phi) -> bool:
    atoms = atoms_of(phi)
    return not any(classical(phi, dict(zip(atoms, bits)))
                   for bits in product((False, True), repeat=len(atoms)))


def oracle_satisfiable(phi) -> bool:
    cnf = _Cnf()
    root = _tseitin(phi, {"c": 0, "d": 1}, cnf)
    return _sat(cnf.clauses + [(root,)], cnf.n_vars)


@settings(max_examples=300, deadline=None)
@given(formulas)
def test_prop_satisfiable_matches_oracle_and_models_check(phi):
    model = prop_satisfiable(phi)
    assert (model is not None) == oracle_satisfiable(phi)
    if model is not None:
        valuation = {atom: model.get(atom, 0) for atom in atoms_of(phi)}
        assert eval_propositional(B2, valuation, phi) == 1
    assert is_classical_contradiction_prop(phi) == truth_table_contradiction(phi)


@settings(max_examples=100, deadline=None)
@given(st.lists(formulas, min_size=1, max_size=4))
def test_list_of_conjuncts_is_their_conjunction(parts):
    conjunction = parts[0]
    for part in parts[1:]:
        conjunction = Meet(conjunction, part)
    assert (prop_satisfiable(parts) is None) == (prop_satisfiable(conjunction) is None)


clauses = st.lists(st.lists(st.sampled_from(GROUND_ATOMS).flatmap(
    lambda a: st.sampled_from([a, Neg(a)])), min_size=1, max_size=3), min_size=1, max_size=40)


@settings(max_examples=300, deadline=None)
@given(clauses)
def test_clause_lists_match_the_truth_table(cnf):
    # many short clauses over few atoms: conflicts, backtracking and
    # propagation through several watched clauses
    conjuncts = []
    for clause in cnf:
        disjunction = clause[0]
        for lit in clause[1:]:
            disjunction = Join(disjunction, lit)
        conjuncts.append(disjunction)
    conjunction = conjuncts[0]
    for part in conjuncts[1:]:
        conjunction = Meet(conjunction, part)
    model = prop_satisfiable(conjuncts)
    assert (model is None) == truth_table_contradiction(conjunction)
    if model is not None:
        valuation = {atom: model.get(atom, 0) for atom in atoms_of(conjunction)}
        assert eval_propositional(B2, valuation, conjunction) == 1


def test_decision_budget():
    phi = parse(" \\/ ".join(f"P(c{i})" for i in range(8)))
    assert prop_satisfiable(phi, budget=8) is not None
    with pytest.raises(BudgetExceededError, match="^search space of 4 SAT decisions exceeds budget 3$"):
        prop_satisfiable(phi, budget=3)


def test_budget_error_default_text():
    assert str(BudgetExceededError(5, 3)) == "search space of 5 structures exceeds budget 3"


# ROADMAP's unsatisfiable 5-exists/3-forall case and a renamed twin: 5^3
# ground instances, where enumerating element assignments took 5^5 SAT calls.
HARD = ("exists a. exists b. exists c. exists d. exists e. forall x. forall y. forall z. "
        "((R(x,y) /\\ ~R(y,z)) \\/ (R(a,x) /\\ ~R(a,x)))")
HARD_TWIN = ("exists a. exists b. exists c. exists d. exists e. forall x. forall y. forall z. "
             "((Q(z,y) /\\ ~Q(y,x)) \\/ (Q(a,z) /\\ ~Q(a,z)))")


@pytest.mark.parametrize("text", [HARD, HARD_TWIN])
def test_hard_bsr_cases_decide_unsatisfiable(text):
    code, report = run(["bsr", "--formula", text])
    assert code == 0, report
    assert "decided: False" in report
    assert "reason: unsatisfiable at the Bernays-Schonfinkel bound 5" in report


def test_bsr_honours_budget(monkeypatch):
    monkeypatch.setenv("FUZZYFO_BUDGET", "100")
    assert run(["bsr", "--formula", HARD]) == (
        1, "error: search space of 125 ground instances exceeds budget 100\n")
    with pytest.raises(BudgetExceededError):
        bsr_decide(parse(HARD), budget=124)
    assert not bsr_decide(parse(HARD), budget=125).decided


def test_herbrand_search_honours_budget():
    phi = parse("forall x. forall y. (P(x) \\/ ~P(f(y)))")
    with pytest.raises(BudgetExceededError, match="ground instances"):
        dual_herbrand_search(phi, 2, budget=3)
    with pytest.raises(BudgetExceededError, match="ground instances"):
        purely_universal_contradiction(phi, 2, 3)
    assert purely_universal_contradiction(phi, 2, 9).kind == "exhausted"


def test_bsr_matches_element_assignment_reference():
    # the decider grounds over Skolem constants; the reference enumerates
    # every map of constants and exists-variables into the bound, as BSR
    # used to, and checks each grounding with the truth table above
    texts = [
        "exists x. forall y. (P(x) /\\ ~P(y))",
        "exists x. forall y. (Q(x) \\/ ~Q(y))",
        "exists x. exists y. forall z. (R(x, z) /\\ ~R(y, z))",
        "exists x. forall y. (R(c, x) /\\ (R(y, y) -> ~R(c, y)))",
        "forall y. (P(c) /\\ (P(y) -> P(d)) /\\ ~P(d))",
        "exists x. forall y. forall z. (((R(x, y) /\\ R(y, z)) -> R(x, z)) /\\ ~R(x, x))",
    ]
    for text in texts:
        assert bsr_decide(parse(text)).decided == _bsr_by_assignments(parse(text)), text


def _bsr_by_assignments(phi) -> bool:
    from fuzzyfo.syntax import Exists, Forall, substitute, vocabulary_of
    evars, avars = [], []
    while isinstance(phi, Exists):
        evars.append(phi.var)
        phi = phi.body
    while isinstance(phi, Forall):
        avars.append(phi.var)
        phi = phi.body
    consts = sorted(vocabulary_of(phi).constants)
    elements = [Const(f"e{i}") for i in range(max(1, len(evars) + len(consts)))]
    for assignment in product(elements, repeat=len(consts) + len(evars)):
        env = dict(zip(evars, assignment[len(consts):]))
        renamed = {c: e for c, e in zip(consts, assignment)}
        grounded = substitute(_rename_constants(phi, renamed), env)
        instances = [substitute(grounded, dict(zip(avars, tup)))
                     for tup in product(elements, repeat=len(avars))]
        conjunction = instances[0]
        for inst in instances[1:]:
            conjunction = Meet(conjunction, inst)
        if not truth_table_contradiction(conjunction):
            return True
    return False


def _rename_constants(phi, renamed):
    if isinstance(phi, Atom):
        return Atom(phi.pred, tuple(renamed.get(t.name, t) if isinstance(t, Const) else t
                                    for t in phi.args))
    if isinstance(phi, Neg):
        return Neg(_rename_constants(phi.body, renamed))
    if isinstance(phi, TruthConst):
        return phi
    return type(phi)(_rename_constants(phi.left, renamed), _rename_constants(phi.right, renamed))


# -- the reduction verifier ----------------------------------------------

lattice_formulas = st.recursive(
    st.sampled_from(GROUND_ATOMS[:4]).flatmap(lambda a: st.sampled_from([a, Neg(a)])),
    lambda sub: st.tuples(sub, sub, st.booleans()).map(
        lambda t: Meet(t[0], t[1]) if t[2] else Join(t[0], t[1])),
    max_leaves=8,
)

SMALL_CHAINS = [c for size in range(2, 5) for c in enumerate_mtl_chains(size)]


def _star_check_by_valuations(conjunction, K):
    """The verifier's star check as a plain scan of every valuation."""
    star = star_translate(conjunction)
    atoms = atoms_of(conjunction)
    scanned = 0
    for chain in K:
        for values in product(chain.carrier(), repeat=len(atoms)):
            scanned += 1
            if eval_propositional(chain, dict(zip(atoms, values)), star) != chain.bot:
                return False, f"nonzero star value under valuation {values} on size-{chain.size} chain"
    return True, f"{scanned} valuations scanned, all zero"


@settings(max_examples=80, deadline=None)
@given(lattice_formulas)
def test_star_check_matches_valuation_scan(phi):
    assert _propositional_star_check(phi, SMALL_CHAINS) == _star_check_by_valuations(phi, SMALL_CHAINS)


def test_star_check_keeps_the_atom_order_past_ten_atoms():
    # nonzero iff a2 or a10: scanning in atoms_of order finds a10 = 1 first,
    # which a name order putting a10 before a2 would not
    atoms = [Atom("P", (Const(f"c{i}"),)) for i in range(11)]
    phi = Join(atoms[0], Neg(atoms[0]))
    for atom in atoms[1:]:
        phi = Meet(phi, Join(atom, Neg(atom)))
    phi = Meet(phi, Join(atoms[10], atoms[2]))
    ok, detail = _propositional_star_check(phi, [B2])
    assert (ok, detail) == _star_check_by_valuations(phi, [B2])
    assert detail == f"nonzero star value under valuation {(0,) * 10 + (1,)} on size-2 chain"


def test_verification_runs_the_herbrand_search_once(monkeypatch):
    calls = []

    def counted(*args, **kwargs):
        calls.append(args)
        return dual_herbrand_search(*args, **kwargs)

    monkeypatch.setattr(reduction, "dual_herbrand_search", counted)
    trace = hardness_reduce(parse("forall x. exists y. (P(x) /\\ ~P(y))"))
    report = verify_reduction_instance(trace, [B2])
    assert len(calls) == 1
    assert report.is_contradiction
    assert report.certificate == "Herbrand witness with 2 instances at depth 1"
    assert report.consistent
