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
    HERBRAND_INSTANCE_CAP, HerbrandWitness, _greedy_minimal, bsr_decide, dual_herbrand_search,
    is_classical_contradiction_prop, prop_satisfiable, purely_universal_contradiction,
)
from fuzzyfo.reduction import hardness_reduce, verify_reduction_instance
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
    for text in ("forall x. (P(x) \\/ Q(c))", "P(g(c, c, c)) \\/ Q(c)"):
        out = dual_herbrand_search(parse(text), 9)
        assert (out.kind, out.bounds) == ("exhausted", "term depth 0..0"), text


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
        witnesses += isinstance(out, HerbrandWitness) and out.m > 1
    assert witnesses >= 40
