"""The ground SAT core against independent references.

`prop_satisfiable` is checked against the Tseitin encoding and sympy's DPLL
in `tests/oracles.py`, its models against `eval_propositional` on B2, and
`is_classical_contradiction_prop` against a truth table kept in this file.
"""

import random
import tracemalloc
from itertools import product

import pytest
from hypothesis import given, settings, strategies as st

from fuzzyfo import decision, reduction
from fuzzyfo.chains import enumerate_mtl_chains, make_boolean_chain
from fuzzyfo.cli import run
from fuzzyfo.decision import (
    HERBRAND_INSTANCE_CAP, _greedy_minimal, bsr_decide, dual_herbrand_search,
    is_classical_contradiction_prop, prop_satisfiable, purely_universal_contradiction,
    sat1_bounded,
)
from fuzzyfo.reduction import hardness_reduce, to_purely_universal, verify_reduction_instance
from fuzzyfo.semantics import BudgetExceededError, eval, eval_propositional
from fuzzyfo.syntax import (
    BOTTOM, TOP, Atom, Biimpl, Const, Exists, Forall, FragmentError, Impl, Join, Meet, Neg,
    StrongConj, TruthConst, Var, classical_nnf, format_formula, parse, pull_universals,
    star_translate, subformulas, vocabulary_of,
)

from oracles import _Cnf, _sat, _tseitin, ground_satisfiable

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


def atoms_of(phi):
    """Distinct atoms in first-occurrence order."""
    return list(dict.fromkeys(sub for sub in subformulas(phi) if isinstance(sub, Atom)))


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
    root = _tseitin(phi, {C: 0, D: 1}, cnf)
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
    # one matrix either way: the same clauses, so the same model or None
    assert prop_satisfiable(parts) == prop_satisfiable(conjunction)


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


# pigeonhole PHP(4,3): pigeon i sits in hole j when Pij; no two share a hole
PHP_4_3 = " /\\ ".join(
    [f"(P{i}1 \\/ P{i}2 \\/ P{i}3)" for i in range(1, 5)]
    + [f"(~P{i}{j} \\/ ~P{k}{j})" for j in range(1, 4) for i in range(1, 5) for k in range(i + 1, 5)])


def test_decision_budget():
    # unsatisfiable, so every one of its 8 decisions is needed
    phi = parse(PHP_4_3)
    assert prop_satisfiable(phi, budget=8) is None
    with pytest.raises(BudgetExceededError, match="^search space of 8 SAT decisions exceeds budget 7$"):
        prop_satisfiable(phi, budget=7)


def test_a_satisfied_input_needs_no_decision_past_its_model(monkeypatch):
    # the first decision satisfies the clause; the budget is not charged for the
    # 29 atoms left undecided, which read 0
    wide = " \\/ ".join(f"P(c{i})" for i in range(30))
    assert prop_satisfiable(parse(wide), budget=1) == {Atom("P", (Const("c0"),)): 1}
    monkeypatch.setenv("FUZZYFO_BUDGET", "1")
    code, report = run(["bsr", "--formula", wide])
    assert code == 0, report
    assert "decided: True\n" in report


def test_budget_error_default_text():
    assert str(BudgetExceededError(5, 3)) == "search space of 5 structures exceeds budget 3"


# ROADMAP's unsatisfiable 5-exists/3-forall case and a renamed twin, where
# enumerating element assignments took 5^5 SAT calls.  Only a occurs in their
# Skolem forms, so they ground 1 instance; in HARD_ALL all five occur, 5^3.
HARD = ("exists a. exists b. exists c. exists d. exists e. forall x. forall y. forall z. "
        "((R(x,y) /\\ ~R(y,z)) \\/ (R(a,x) /\\ ~R(a,x)))")
HARD_TWIN = ("exists a. exists b. exists c. exists d. exists e. forall x. forall y. forall z. "
             "((Q(z,y) /\\ ~Q(y,x)) \\/ (Q(a,z) /\\ ~Q(a,z)))")
HARD_ALL = ("exists a. exists b. exists c. exists d. exists e. forall x. forall y. forall z. "
            "((R(x,y) /\\ ~R(y,z)) \\/ (R(a,x) /\\ ~R(a,x)) \\/ (R(b,c) /\\ R(d,e) /\\ ~R(b,c)))")


@pytest.mark.parametrize("text, bound", [(HARD, 1), (HARD_TWIN, 1), (HARD_ALL, 5)],
                         ids=[HARD, HARD_TWIN, HARD_ALL])
def test_hard_bsr_cases_decide_unsatisfiable(text, bound):
    code, report = run(["bsr", "--formula", text])
    assert code == 0, report
    assert "decided: False" in report
    assert f"reason: unsatisfiable at the Bernays-Schonfinkel bound {bound}\n" in report


def test_bsr_honours_budget(monkeypatch):
    monkeypatch.setenv("FUZZYFO_BUDGET", "100")
    assert run(["bsr", "--formula", HARD_ALL]) == (
        1, "error: search space of 125 ground instances exceeds budget 100\n")
    with pytest.raises(BudgetExceededError):
        bsr_decide(parse(HARD_ALL), budget=124)
    assert not bsr_decide(parse(HARD_ALL), budget=125).decided


def test_bsr_and_the_verifier_name_one_bound_for_vacuous_exists():
    # only a0 occurs in the Skolem form, so both ground over one constant
    text = ("exists a0. exists a1. exists a2. forall x0. forall x1. forall x2. "
            "(P(a0) -> P(x2))")
    assert run(["bsr", "--formula", text]) == (0, (
        f"formula: {text}\n"
        "outcome: decided\n"
        "decided: True\n"
        "reason: satisfiable at the Bernays-Schonfinkel bound 1\n"
        "bounds: single domain size 1\n"))
    assert run(["verify-reduction", "--formula", text, "--chain", "luk:3"]) == (0, (
        f"input: {text}\n"
        "star-output: forall x0. forall x1. forall x2. (~P(sk_0) & ~P(sk_0) \\/ P(x2) & P(x2))\n"
        "certified: non-contradiction\n"
        "certificate: Bernays-Schonfinkel: satisfiable at the Bernays-Schonfinkel bound 1\n"
        "check [B2 model of the purely universal form exists]: pass (domain 1)\n"
        "check [lifted model gives star output top value on size-3 chain]: pass (value 2)\n"
        "consistent: True\n"))


@st.composite
def exists_forall_sentences(draw):
    """A relational exists*-forall* sentence over P/1, R/2 and S/0 whose
    exists-variables may not occur and whose matrix may name constants a, b."""
    evars = [f"u{i}" for i in range(draw(st.integers(0, 3)))]
    avars = [f"x{i}" for i in range(draw(st.integers(0, 2)))]
    terms = st.sampled_from([Var(v) for v in evars + avars] + [Const("a"), Const("b")])
    atoms = st.one_of(st.just(Atom("S")), terms.map(lambda t: Atom("P", (t,))),
                      st.tuples(terms, terms).map(lambda args: Atom("R", args)))
    matrix = draw(st.recursive(atoms, lambda sub: st.one_of(
        sub.map(Neg), *(st.tuples(sub, sub).map(lambda lr, node=node: node(*lr))
                        for node in (Meet, Join, Impl))), max_leaves=6))
    phi = _forall(avars, matrix)
    for v in reversed(evars):
        phi = Exists(v, phi)
    return phi


@settings(max_examples=150, deadline=None)
@given(exists_forall_sentences())
def test_bsr_names_the_verifiers_bound(phi):
    out = bsr_decide(phi)
    report = verify_reduction_instance(hardness_reduce(phi), [B2])
    assert out.decided == (not report.is_contradiction)
    assert report.certificate == f"Bernays-Schonfinkel: {out.reason}"


@st.composite
def bernays_schonfinkel_sentences(draw, constants=("a", "b")):
    """A relational sentence over P/1, R/2 and S/0, with its prenex form built
    from the same draw.  Binders are drawn inside /\\ and \\/, an exists never
    under a forall; names are distinct (v0, v1, ..), the leaves may name the
    constants, and an exists-variable may not occur.  The prenex form puts every
    exists, then every forall, over the quantifier-free matrix."""
    binders: dict[str, type] = {}

    def node(scope, depth, under_forall):
        kinds = ["leaf"]
        if depth:
            kinds += ["meet", "join"]
            if len(binders) < 5:
                kinds += ["forall"] if under_forall else ["forall", "exists"]
        kind = draw(st.sampled_from(kinds))
        if kind == "leaf":
            terms = st.sampled_from([Var(v) for v in scope] + [Const(c) for c in constants])
            atoms = st.one_of(st.just(Atom("S")), st.sampled_from([TOP, BOTTOM]),
                              terms.map(lambda t: Atom("P", (t,))),
                              st.tuples(terms, terms).map(lambda args: Atom("R", args)))
            leaf = draw(st.recursive(atoms, lambda sub: st.one_of(
                sub.map(Neg), *(st.tuples(sub, sub).map(lambda lr, cls=cls: cls(*lr))
                                for cls in (Meet, Join, Impl))), max_leaves=3))
            return leaf, leaf
        if kind in ("meet", "join"):
            (left, left_matrix), (right, right_matrix) = (
                node(scope, depth - 1, under_forall) for _ in range(2))
            cls = Meet if kind == "meet" else Join
            return cls(left, right), cls(left_matrix, right_matrix)
        var = f"v{len(binders)}"
        binders[var] = quantifier = Forall if kind == "forall" else Exists
        body, matrix = node(scope + [var], depth - 1, under_forall or quantifier is Forall)
        return quantifier(var, body), matrix

    phi, prenex = node([], 4, False)
    for quantifier in (Forall, Exists):
        for var in reversed([v for v, q in binders.items() if q is quantifier]):
            prenex = quantifier(var, prenex)
    return phi, prenex


def _exists_count(phi):
    return sum(isinstance(sub, Exists) for sub in subformulas(phi))


@settings(max_examples=150, deadline=None)
@given(bernays_schonfinkel_sentences())
def test_bsr_decides_any_spelling_at_the_verifiers_bound(sample):
    phi, prenex = sample
    out = bsr_decide(phi)
    report = verify_reduction_instance(hardness_reduce(phi), [B2])
    assert out.decided == (not report.is_contradiction)
    assert report.certificate == f"Bernays-Schonfinkel: {out.reason}"
    assert bsr_decide(prenex).decided == out.decided


@settings(max_examples=40, deadline=None)
@given(bernays_schonfinkel_sentences())
def test_bsr_on_any_spelling_matches_brute_force(sample):
    # as criterion 5: every domain size up to the bound plus two
    phi, _ = sample
    bound = max(1, _exists_count(phi) + len(vocabulary_of(phi).constants))
    brute = any(ground_satisfiable(phi, n) for n in range(1, bound + 3))
    assert bsr_decide(phi).decided == brute


# constants named like a generated Skolem constant or like the drawn binders
CLASHING_CONSTANTS = ("a", "@0", "@1", "v0", "v1")


@settings(max_examples=80, deadline=None)
@given(bernays_schonfinkel_sentences(CLASHING_CONSTANTS))
def test_bsr_grounds_exists_variables_apart_from_every_constant(sample):
    phi, _ = sample
    out = bsr_decide(phi)
    report = verify_reduction_instance(hardness_reduce(phi), [B2])
    assert out.decided == (not report.is_contradiction)
    assert report.certificate == f"Bernays-Schonfinkel: {out.reason}"
    # without equality a model grows by copying an element, so a model of
    # size up to the bound gives one of exactly the bound's size
    bound = max(1, _exists_count(phi) + len(vocabulary_of(phi).constants))
    assert out.decided == ground_satisfiable(phi, bound)


def test_bsr_reads_an_at_constant_as_any_other():
    # the Skolem form's constant for x is not the input's @0
    x = Var("x")
    phi = Exists("x", Meet(Atom("P", (x,)), Neg(Atom("P", (Const("@0"),)))))
    out = bsr_decide(phi)
    assert (out.decided, out.bounds) == (True, "single domain size 2")
    report = verify_reduction_instance(hardness_reduce(phi), [B2])
    assert report.certificate == f"Bernays-Schonfinkel: {out.reason}"


def test_bsr_reads_a_bound_name_apart_from_a_constant_of_that_name():
    # pin: the parser reads the bound c as a variable and the free c as a constant
    out = bsr_decide(parse("P(c) /\\ exists c. ~P(c)"))
    assert out.decided and out.reason == "satisfiable at the Bernays-Schonfinkel bound 2"


def test_bsr_renames_a_repeated_binder_apart():
    # read with one x this would be the unsatisfiable exists x. (P(x) /\ ~P(x))
    p = Atom("P", (Var("x"),))
    out = bsr_decide(Meet(Exists("x", p), Exists("x", Neg(p))))
    assert out.decided and out.reason == "satisfiable at the Bernays-Schonfinkel bound 2"


def test_a_repeated_binder_name_is_renamed_not_merged():
    # ((forall x. P(x)) \/ forall x. ~P(x)) /\ P(c) /\ ~P(d) is unsatisfiable;
    # merging the binders reads its first conjunct as the valid forall x. (P(x) \/ ~P(x))
    p = Atom("P", (Var("x"),))
    phi = Meet(Meet(Join(Forall("x", p), Forall("x", Neg(p))), Atom("P", (C,))),
               Neg(Atom("P", (D,))))
    assert not any(ground_satisfiable(phi, n) for n in range(1, 4))
    universal, _ = to_purely_universal(phi)
    assert universal == Forall("x", Forall("x_1", Meet(Meet(
        Join(p, Neg(Atom("P", (Var("x_1"),)))), Atom("P", (C,))), Neg(Atom("P", (D,))))))
    assert verify_reduction_instance(hardness_reduce(phi), [B2]).is_contradiction
    assert not bsr_decide(phi).decided


# nested <-> over quantifiers: NNF writes each side twice, binders included
NESTED_BIIMPLICATIONS = [
    "((exists x. P(x)) <-> S) <-> S",
    "(((exists x. P(x)) <-> S) <-> S) /\\ forall y. ~P(y)",
    "(P(c) <-> exists x. Q(x)) <-> forall y. Q(y)",
    "(((forall x. P(x)) <-> S) <-> S) /\\ ~P(c)",
    "~(((forall x. P(x)) <-> S) <-> ~S) /\\ ~P(c)",
    "((forall x. R(x, a)) <-> (exists y. R(b, y))) <-> ~(forall z. R(z, z))",
]


@pytest.mark.parametrize("text", NESTED_BIIMPLICATIONS)
def test_bsr_and_the_verifier_agree_on_nested_biimplications(text):
    phi = parse(text)
    out = bsr_decide(phi)
    report = verify_reduction_instance(hardness_reduce(phi), [B2])
    assert report.certificate == f"Bernays-Schonfinkel: {out.reason}"
    bound = max(1, _exists_count(classical_nnf(phi)) + len(vocabulary_of(phi).constants))
    assert out.decided == any(ground_satisfiable(phi, n) for n in range(1, bound + 3))


def test_the_reduction_renames_the_binders_nnf_copies():
    # forall x. exists z. R(x, z) is written twice in each polarity, and each
    # copy keeps its own prefix variables
    text = "((forall x. exists z. R(x, z)) <-> S) <-> S"
    universal, _ = to_purely_universal(parse(text))
    assert format_formula(universal).startswith("forall x. forall z. forall z_1. forall x_1. ")
    assert run(["verify-reduction", "--formula", text, "--chain", "luk:3"])[1].endswith(
        "consistent: True\n")


def test_herbrand_search_honours_budget():
    phi = parse("forall x. forall y. (P(x) \\/ ~P(f(y)))")
    with pytest.raises(BudgetExceededError, match="ground instances"):
        dual_herbrand_search(phi, 2, budget=3)
    with pytest.raises(BudgetExceededError, match="ground instances"):
        purely_universal_contradiction(phi, 2, 3)
    assert purely_universal_contradiction(phi, 2, 9).kind == "exhausted"


def test_relational_model_tables_are_priced_before_they_are_built():
    # one ground instance, no decision: only the total 5-ary table, 5**5 entries, is
    # large; over the budget the verdict stands and only the model is left out
    phi = parse("R(a, b, c, d, e)")
    for search in (dual_herbrand_search, purely_universal_contradiction):
        out = search(phi, 2, budget=3124)
        assert (out.kind, out.decided, out.structure) == ("decided", False, None)
        assert out.reason == "Bernays-Schonfinkel: satisfiable at the Bernays-Schonfinkel bound 5"
    out = dual_herbrand_search(phi, 2, budget=3125)
    assert len(out.structure.predicates["R"]) == 3125 and eval(B2, out.structure, phi) == 1
    assert sum(out.structure.predicates["R"].values()) == 1


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
    if isinstance(phi, (Exists, Forall)):
        return type(phi)(phi.var, _rename_constants(phi.body, renamed))
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
    """Whether the star of a conjunction is 0 under every valuation over K, by a plain scan."""
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
    # Lemma 1 on every chain of SMALL_CHAINS is what the verifier proves this from
    vanishes, _ = _star_check_by_valuations(phi, SMALL_CHAINS)
    assert vanishes == is_classical_contradiction_prop(phi)


def test_star_check_keeps_the_atom_order_past_ten_atoms():
    # nonzero iff a2 or a10: scanning in atoms_of order finds a10 = 1 first
    atoms = [Atom("P", (Const(f"c{i}"),)) for i in range(11)]
    phi = Join(atoms[0], Neg(atoms[0]))
    for atom in atoms[1:]:
        phi = Meet(phi, Join(atom, Neg(atom)))
    phi = Meet(phi, Join(atoms[10], atoms[2]))
    ok, detail = _star_check_by_valuations(phi, [B2])
    assert not ok and not is_classical_contradiction_prop(phi)
    assert detail == f"nonzero star value under valuation {(0,) * 10 + (1,)} on size-2 chain"
    contradiction = Meet(phi, Meet(Neg(atoms[10]), Neg(atoms[2])))
    assert _star_check_by_valuations(contradiction, [B2])[0]
    assert is_classical_contradiction_prop(contradiction)


def test_verification_runs_the_herbrand_search_once(monkeypatch):
    calls = []

    def counted(*args, **kwargs):
        calls.append(args)
        return dual_herbrand_search(*args, **kwargs)

    monkeypatch.setattr(reduction, "dual_herbrand_search", counted)
    monkeypatch.setattr(decision, "dual_herbrand_search", counted)
    for text, certificate, contradiction in [
        ("forall x. exists y. (P(x) /\\ ~P(y))",
         "Herbrand witness with 2 instances at depth 1", True),
        ("exists x. forall y. (P(x) /\\ ~P(y))",
         "Bernays-Schonfinkel: unsatisfiable at the Bernays-Schonfinkel bound 1", True),
        ("exists x. forall y. (Q(x) \\/ ~Q(y))",
         "Bernays-Schonfinkel: satisfiable at the Bernays-Schonfinkel bound 1", False),
    ]:
        calls.clear()
        report = verify_reduction_instance(hardness_reduce(parse(text)), [B2])
        assert len(calls) == 1, text
        assert report.is_contradiction == contradiction
        assert report.certificate == certificate
        assert report.consistent


# -- the dual-Herbrand search: limits and minimisation ---------------------

def test_herbrand_search_checks_the_count_before_building_instances():
    # depth 3 has 730**3 instances; the search stops at the cap without
    # building them, and names only the depths it searched
    phi = parse("forall x. forall y. forall z. (P(x) \\/ ~P(g(y, z, x)))")
    tracemalloc.start()
    try:
        out = dual_herbrand_search(phi, 3)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert (out.kind, out.bounds) == ("exhausted", "term depth 0..2")
    assert peak < 20_000_000
    code, text = run(["reduce", "--verify", "--chain", "luk:3", "--max-depth", "3",
                      "--formula", "forall x. forall y. forall z. (P(x) \\/ ~P(g(y, z, x)))"])
    assert code == 0, text


def test_herbrand_search_sizes_a_universe_before_building_it():
    # depth 4 would hold 730**3 + 1 closed terms
    out = dual_herbrand_search(parse("forall x. (P(x) \\/ ~P(g(x, x, x)))"), 4)
    assert (out.kind, out.bounds) == ("exhausted", "term depth 0..3")


def test_herbrand_search_bounds_name_only_the_depths_searched():
    # depth 2 has 9 terms, so 9**4 instances: past the cap, and not searched
    phi = parse("forall x. forall y. forall z. forall w. (P(x) \\/ ~P(g(y, z, w)))")
    assert 9 ** 4 > HERBRAND_INSTANCE_CAP
    out = dual_herbrand_search(phi, 2)
    assert (out.kind, out.bounds) == ("exhausted", "term depth 0..1")


def test_herbrand_search_stops_where_no_depth_adds_an_instance():
    # relational: depth 0 holds every instance and decides the sentence
    phi = parse("forall x. (P(x) \\/ Q(c))")
    out = dual_herbrand_search(phi, 9)
    assert (out.kind, out.decided, out.bounds) == ("decided", False, "single domain size 1")
    assert eval(B2, out.structure, phi) == 1
    out = dual_herbrand_search(parse("P(g(c, c, c)) \\/ Q(c)"), 9)
    assert (out.kind, out.bounds) == ("exhausted", "term depth 0..0")


def test_herbrand_search_names_the_instance_cap_that_stopped_it():
    # depth 4 has 677 closed terms, so 677**2 instances: no --max-depth reaches it
    t5 = "c"
    for _ in range(5):
        t5 = f"g({t5}, c)"
    text = f"forall x. forall y. ((~P(x) \\/ ~P(y) \\/ P(g(x, y))) /\\ P(c) /\\ ~P({t5}))"
    capped = "depth 4 has 458329 instances, above HERBRAND_INSTANCE_CAP 4096"
    out = dual_herbrand_search(parse(text), 6)
    assert (out.kind, out.reason, out.bounds) == ("exhausted", capped, "term depth 0..3")
    assert dual_herbrand_search(parse(text), 3).reason == ""  # the depth bound stopped it
    assert run(["reduce", "--verify", "--chain", "luk:3", "--max-depth", "6",
                "--formula", text]) == (
        1, "error: cannot certify the input either way within bounds: Herbrand search "
           f"exhausted at term depth 0..3 ({capped}) and no B2 model with domain <= 2 "
           "(raise it with --max-domain)\n")


def test_herbrand_search_stops_at_the_nesting_limit():
    # a satisfiable sentence with few instances per depth: only the nesting
    # limit ends the search, and the bounds name the depths searched
    phi = parse("forall x. (P(x) \\/ ~P(f(x)))")
    out = dual_herbrand_search(phi, 200)
    assert (out.kind, out.bounds) == ("exhausted", "term depth 0..100")
    assert dual_herbrand_search(phi, 7).bounds == "term depth 0..7"


def test_herbrand_search_rejects_a_negative_depth():
    with pytest.raises(ValueError, match="max depth must be at least 0, got -1"):
        dual_herbrand_search(parse("forall x. P(x)"), -1)
    assert run(["reduce", "--verify", "--chain", "luk:3", "--max-depth", "-1",
                "--formula", "forall x. P(x)"]) == (
        1, "error: max depth must be at least 0, got -1\n")


def test_depth_0_is_bounded_only_by_the_budget():
    # 9**4 depth-0 instances, past the cap that limits deeper depths: the
    # certificate and the witness come from the same search
    clash = " /\\ ".join(f"Q(c{i})" for i in range(9))
    text = f"forall x. forall y. forall z. forall w. ((P(x) /\\ ~P(y)) /\\ {clash})"
    code, report = run(["reduce", "--verify", "--chain", "luk:3", "--formula", text])
    assert code == 0, report
    assert ("certificate: Bernays-Schonfinkel: unsatisfiable at the Bernays-Schonfinkel bound 9"
            in report.splitlines())
    assert "check [herbrand witness is a propositional contradiction]: pass " \
           "(1 instances at depth 0)" in report.splitlines()
    assert report.endswith("consistent: True\n")


def greedy_one_at_a_time(n, contradictory):
    """Left-to-right greedy deletion, one SAT call per instance."""
    keep = list(range(n))
    for i in range(n):
        trial = [j for j in keep if j != i]
        if trial and contradictory(trial):
            keep = trial
    return keep


def _monotone_oracle(rng, n):
    """Contradictory iff the set holds one of a few random cores."""
    cores = [frozenset(rng.sample(range(n), rng.randint(1, min(n, 4))))
             for _ in range(rng.randint(1, 4))]
    calls = []

    def contradictory(indices):
        calls.append(len(indices))
        return any(core <= set(indices) for core in cores)
    return contradictory, calls


def test_greedy_minimal_equals_one_at_a_time_deletion():
    rng = random.Random(20261018)
    for _ in range(3000):
        n = rng.randint(1, 60)
        contradictory, calls = _monotone_oracle(rng, n)
        kept = _greedy_minimal(n, contradictory)
        assert kept == greedy_one_at_a_time(n, contradictory)
        calls.clear()
        _greedy_minimal(n, contradictory)
        # at most one halving search, 2 calls per halving, per kept instance
        assert len(calls) <= len(kept) * 2 * n.bit_length(), (n, kept, len(calls))


def test_greedy_minimal_keeps_the_cost_logarithmic():
    calls = []

    def contradictory(indices):
        calls.append(1)
        return {1000, 4000} <= set(indices)
    assert _greedy_minimal(6561, contradictory) == [1000, 4000]
    assert len(calls) < 60


def _random_universal(rng):
    """forall x. forall y. over a conjunction of 3-8 clauses of 1-2 literals."""
    terms = ["x", "y", "c", "f(x)", "f(y)"]

    def literal():
        atom = rng.choice([f"P({rng.choice(terms)})", f"Q({rng.choice(terms)})",
                           f"R({rng.choice(terms)}, {rng.choice(terms)})"])
        return atom if rng.random() < 0.5 else f"~{atom}"
    clauses = [" \\/ ".join(literal() for _ in range(rng.randint(1, 2)))
               for _ in range(rng.randint(3, 8))]
    return "forall x. forall y. (" + " /\\ ".join(f"({c})" for c in clauses) + ")"


def test_herbrand_witnesses_equal_one_at_a_time_deletion(monkeypatch):
    rng = random.Random(8)
    texts = [_random_universal(rng) for _ in range(400)]
    found = [dual_herbrand_search(parse(text), 2) for text in texts]
    monkeypatch.setattr(decision, "_greedy_minimal", greedy_one_at_a_time)
    witnesses = 0
    for text, out in zip(texts, found):
        assert dual_herbrand_search(parse(text), 2) == out, text
        witnesses += out.herbrand is not None and out.herbrand.m > 1
    assert witnesses >= 40


# -- relational sentences: the search decides and returns the model --------

RELATIONAL_TERMS = [Var("x"), Var("y"), Const("a"), Const("b"), Const("c")]


def _relational_universal(k: int):
    """Purely universal sentences over P/1, R/2 and S/0 with k universal variables."""
    terms = RELATIONAL_TERMS[2 - k:]
    atoms = ([Atom("S")] + [Atom("P", (t,)) for t in terms]
             + [Atom("R", (s, t)) for s in terms for t in terms])
    matrices = st.recursive(
        st.sampled_from(atoms),
        lambda sub: st.one_of(
            sub.map(Neg),
            *(st.tuples(sub, sub).map(lambda lr, node=node: node(*lr))
              for node in (Meet, Join, Impl)),
        ),
        max_leaves=8,
    )
    return matrices.map(lambda m: _forall(["x", "y"][2 - k:] if k else [], m))


def _forall(names, matrix):
    for name in reversed(names):
        matrix = Forall(name, matrix)
    return matrix


@settings(max_examples=150, deadline=None)
@given(st.integers(0, 2).flatmap(_relational_universal))
def test_relational_search_decides_like_bsr_and_returns_a_model(phi):
    out = dual_herbrand_search(phi, 2)
    assert out.kind == "decided"
    assert out.decided == (not bsr_decide(phi).decided)
    if out.decided:
        assert out.structure is None and out.herbrand is not None
        return
    bound = max(1, len(vocabulary_of(phi).constants))
    assert out.herbrand is None
    assert out.structure.domain_size == bound
    assert eval(B2, out.structure, phi) == 1
    assert sat1_bounded([B2], phi, bound).kind == "member_witness"


def test_the_herbrand_search_takes_a_universal_sentence_however_spelled():
    out = purely_universal_contradiction(parse("~exists x. P(x)"), 2)
    assert (out.kind, out.decided) == ("decided", False)
    out = purely_universal_contradiction(parse("(forall x. P(x)) /\\ forall y. ~P(y)"), 2)
    assert (out.kind, out.decided) == ("decided", True)
    out = purely_universal_contradiction(parse("(forall x. P(f(x))) /\\ ~P(f(c))"), 2)
    assert out.decided and (out.herbrand.depth, out.herbrand.m) == (0, 1)
    assert out.herbrand.conjunction == parse("P(f(c)) /\\ ~P(f(c))")
    with pytest.raises(FragmentError,
                       match="^not a universal sentence: an exists outside every forall$"):
        purely_universal_contradiction(parse("exists x. P(x)"), 2)


OPEN_FORMULAS = [Forall("y", Meet(Atom("P", (Var("x"),)), Neg(Atom("P", (Var(v),)))))
                 for v in ("y", "x")]


OPEN_ERROR = "^classical satisfiability needs a sentence: x is free$"


@pytest.mark.parametrize("phi", OPEN_FORMULAS, ids=format_formula)
def test_the_ground_core_refuses_an_open_formula(phi):
    # a free variable is neither an instance's argument nor a closed term
    for search in (dual_herbrand_search, purely_universal_contradiction):
        with pytest.raises(FragmentError, match=OPEN_ERROR):
            search(phi, 2)
    for ask in (prop_satisfiable, is_classical_contradiction_prop):
        with pytest.raises(FragmentError, match=OPEN_ERROR):
            ask(phi.body)
        with pytest.raises(FragmentError):
            ask(phi)


def test_the_herbrand_search_refuses_a_free_variable_named_like_a_binder():
    # prenex would lift `forall x` over the free x and close the matrix
    px = Atom("P", (Var("x"),))
    for phi in (Meet(Forall("x", px), Neg(px)), Meet(Neg(px), Forall("x", Forall("y", px)))):
        for search in (dual_herbrand_search, purely_universal_contradiction):
            with pytest.raises(FragmentError, match=OPEN_ERROR):
                search(phi, 2)


def test_the_herbrand_search_sizes_its_universe_from_the_matrix():
    # NNF folds R(a, b) \/ 1 away, so no constant is left and the bound is 1,
    # as bsr names it; the model still reads every symbol of the input
    found = "forall x. (P(x) /\\ (R(a, b) \\/ 1))"
    for text in (found, "forall x. (P(x) /\\ (R(f(a)) \\/ 1))"):
        phi = parse(text)
        out = purely_universal_contradiction(phi, 1)
        assert (out.decided, out.bounds) == (False, "single domain size 1"), text
        assert eval(B2, out.structure, phi) == 1
    assert bsr_decide(parse(found)).bounds == "single domain size 1"


@st.composite
def universal_spellings(draw):
    """A relational universal sentence over P/1, R/2 and S/0 spelled out of
    prenex form: each binder, drawn inside /\\ and \\/, is a forall or a
    ~exists ~, and names are distinct.  No truth constant occurs: folding one
    away can drop a constant from the NNF, and so change the universe's size."""
    names: list[str] = []

    def node(scope, depth):
        kinds = ["leaf"]
        if depth:
            kinds += ["meet", "join"] + (["forall", "not-exists"] if len(names) < 4 else [])
        kind = draw(st.sampled_from(kinds))
        if kind == "leaf":
            terms = st.sampled_from([Var(v) for v in scope] + [Const("a"), Const("b")])
            atoms = st.one_of(st.just(Atom("S")), terms.map(lambda t: Atom("P", (t,))),
                              st.tuples(terms, terms).map(lambda args: Atom("R", args)))
            return draw(st.recursive(atoms, lambda sub: st.one_of(
                sub.map(Neg), *(st.tuples(sub, sub).map(lambda lr, cls=cls: cls(*lr))
                                for cls in (Meet, Join, Impl))), max_leaves=3))
        if kind in ("meet", "join"):
            cls = Meet if kind == "meet" else Join
            return cls(node(scope, depth - 1), node(scope, depth - 1))
        var = f"v{len(names)}"
        names.append(var)
        body = node(scope + [var], depth - 1)
        return Forall(var, body) if kind == "forall" else Neg(Exists(var, Neg(body)))

    return node([], 4)


@settings(max_examples=150, deadline=None)
@given(universal_spellings())
def test_the_herbrand_search_reads_any_spelling_as_its_prenex_form(phi):
    out = dual_herbrand_search(phi, 1)
    prenex_out = dual_herbrand_search(pull_universals(classical_nnf(phi)), 1)
    assert (out.kind, out.decided, out.reason, out.bounds) == (
        prenex_out.kind, prenex_out.decided, prenex_out.reason, prenex_out.bounds)
    assert out.decided == (not bsr_decide(phi).decided)
