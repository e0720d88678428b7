import pytest

from fuzzyfo.chains import (
    enumerate_mtl_chains, make_boolean_chain, make_godel_chain,
    make_lukasiewicz_chain,
)
from fuzzyfo.decision import (
    HerbrandWitness, Verdict, bsr_decide,
    dual_herbrand_search, is_classical_contradiction_prop, prop_satisfiable,
    purely_universal_contradiction, sat1_bounded, sat_pos_bounded,
    taut0_bounded, taut_lt1_bounded,
)
from fuzzyfo.semantics import BudgetExceededError, eval
from fuzzyfo.syntax import BOTTOM, FragmentError, format_formula, parse
from fuzzyfo.phi import PHI_TEXT

B2 = make_boolean_chain()
L3 = make_lukasiewicz_chain(3)


def test_taut0_square_meet_never_refuted():
    phi = parse("(P(c) & P(c)) /\\ (~P(c) & ~P(c))")
    K = [B2, L3, make_godel_chain(4)] + list(enumerate_mtl_chains(4))
    verdict = taut0_bounded(K, phi, 2)
    assert verdict.kind == "exhausted"


def test_taut0_refuted_with_witness():
    phi = parse("(P(c) & P(c)) \\/ (~P(c) & ~P(c))")
    verdict = taut0_bounded([B2], phi, 1)
    assert verdict.kind == "refuted"
    assert verdict.value == 1
    # the witness re-evaluates to the reported value
    assert eval(verdict.chain, verdict.structure, phi) == verdict.value


def test_taut0_bottom_decided_structurally():
    verdict = taut0_bounded([B2], BOTTOM, 1)
    assert verdict.kind == "decided" and verdict.decided


def test_sat_pos_phi_over_l3():
    phi = parse(PHI_TEXT)
    verdict = sat_pos_bounded([L3], phi, 2)
    assert verdict.kind == "member_witness"
    assert verdict.value == 1  # rank 1 of 2 = one half
    assert eval(verdict.chain, verdict.structure, phi) == 1


def test_sat_pos_dual_of_taut0():
    corpus = [
        "(P(c) & P(c)) /\\ (~P(c) & ~P(c))",
        "(P(c) & P(c)) \\/ (~P(c) & ~P(c))",
        "P(c) \\/ Q(c)",
        "forall x. (P(x) & ~P(x))",
    ]
    K = [B2, L3]
    for text in corpus:
        phi = parse(text)
        pos = sat_pos_bounded(K, phi, 2)
        zero = taut0_bounded(K, phi, 2)
        assert (pos.kind == "member_witness") == (zero.kind == "refuted")
        if pos.kind == "member_witness":
            assert pos.structure == zero.structure
            assert pos.value == zero.value


def test_sat_pos_top_constant():
    verdict = sat_pos_bounded([L3], parse("1"), 1)
    assert verdict.kind == "member_witness"
    assert verdict.value == L3.top


def test_taut_lt1_top_refuted():
    assert taut_lt1_bounded([L3], parse("1"), 1).kind == "refuted"
    assert taut_lt1_bounded([B2], parse("P(c)"), 1).kind == "refuted"


@pytest.mark.parametrize("decider", [taut0_bounded, sat_pos_bounded, taut_lt1_bounded,
                                     sat1_bounded], ids=lambda f: f.__name__)
@pytest.mark.parametrize("text", ["1", "P(c)", "forall x. exists y. R(x, y)", PHI_TEXT])
def test_empty_chain_class_is_exhausted(decider, text):
    # no chain, so no structure: even the constant 1 has no witness
    for max_domain in (1, 3):
        verdict = decider([], parse(text), max_domain)
        assert verdict == Verdict("exhausted", bounds=f"chains of sizes [], domains 1..{max_domain}")


def test_taut_lt1_phi_never_one():
    phi = parse(PHI_TEXT)
    K = [make_lukasiewicz_chain(k) for k in range(2, 7)]
    assert taut_lt1_bounded(K, phi, 2).kind == "exhausted"


def test_sat1_examples():
    assert sat1_bounded([B2], parse("P(c) \\/ ~P(c)"), 1).kind == "member_witness"
    phi = parse(PHI_TEXT)
    for k in range(2, 7):
        assert sat1_bounded([make_lukasiewicz_chain(k)], phi, 2).kind == "exhausted"
    assert sat1_bounded([L3], parse("P(c) & ~P(c)"), 1).kind == "exhausted"


def test_classical_contradiction_examples():
    assert is_classical_contradiction_prop(parse("P(c) /\\ ~P(c)"))
    assert not is_classical_contradiction_prop(parse("P(c) \\/ ~P(c)"))
    assert is_classical_contradiction_prop(
        parse("P(c) /\\ ~P(f(c)) /\\ P(f(c)) /\\ ~P(f(f(c)))"))


def test_classical_contradiction_guards():
    with pytest.raises(FragmentError):
        is_classical_contradiction_prop(parse("forall x. P(x)"))
    # no cap on the atom count: the SAT core decides any size within its budget
    many = " /\\ ".join(f"P(c{i})" for i in range(30))
    assert is_classical_contradiction_prop(parse(many)) is False
    # unit propagation alone settles the conjunction; the disjunction takes
    # one decision per atom
    wide = " \\/ ".join(f"P(c{i})" for i in range(30))
    assert is_classical_contradiction_prop(parse(wide)) is False
    with pytest.raises(BudgetExceededError, match="SAT decisions"):
        is_classical_contradiction_prop(parse(wide), budget=3)


def balanced_join(names):
    """`\\/` over the names as a balanced tree, so that nesting stays shallow."""
    if len(names) == 1:
        return names[0]
    half = len(names) // 2
    return f"({balanced_join(names[:half])} \\/ {balanced_join(names[half:])})"


def test_a_space_too_long_to_print_raises_the_budget_error():
    # 1,400 zero-ary atoms on luk:2048 give 2048^1400 structures, a number
    # of 4,636 digits; str() refuses past 4,300, so it is named by its size
    phi = parse(balanced_join([f"P{i}" for i in range(1400)]))
    with pytest.raises(BudgetExceededError) as info:
        sat1_bounded([make_lukasiewicz_chain(2048)], phi, 1)
    assert str(info.value) == "search space of about 10^4635 structures exceeds budget 10000000"
    assert info.value.space == 2048 ** 1400


def test_prop_satisfiable_returns_model():
    phi = parse("(P(c) \\/ Q(c)) /\\ ~P(c)")
    model = prop_satisfiable(phi)
    assert model is not None
    assert prop_satisfiable(parse("P(c) /\\ ~P(c)")) is None


def test_bsr_examples():
    assert not bsr_decide(parse("exists x. forall y. (P(x) /\\ ~P(y))")).decided
    v = bsr_decide(parse("exists x. forall y. (Q(x) \\/ ~Q(y))"))
    assert v.decided and "bound 1" in v.reason
    assert bsr_decide(parse("forall y. P(y)")).decided


def test_bsr_rejects_wrong_fragment():
    with pytest.raises(FragmentError):
        bsr_decide(parse("forall x. P(f(x))"))
    with pytest.raises(FragmentError):
        bsr_decide(parse("forall x. exists y. R(x, y)"))


def test_dual_herbrand_depth0():
    out = dual_herbrand_search(parse("forall x. (P(x) /\\ ~P(x))"), 2)
    assert (out.kind, out.decided) == ("decided", True)
    w = out.herbrand
    assert isinstance(w, HerbrandWitness)
    assert w.depth == 0 and w.m == 1
    assert is_classical_contradiction_prop(w.conjunction)


def test_dual_herbrand_needs_depth1():
    out = dual_herbrand_search(parse("forall x. (P(x) /\\ ~P(f(x)))"), 2)
    assert (out.kind, out.decided) == ("decided", True)
    w = out.herbrand
    assert isinstance(w, HerbrandWitness)
    assert w.depth == 1 and w.m == 2
    assert is_classical_contradiction_prop(w.conjunction)
    assert format_formula(w.conjunction) == \
        "P(c0) /\\ ~P(f(c0)) /\\ (P(f(c0)) /\\ ~P(f(f(c0))))"


def test_dual_herbrand_exhausts_on_satisfiable():
    # relational, so depth 0 decides it and the SAT call's model is the witness
    phi = parse("forall x. P(x)")
    out = dual_herbrand_search(phi, 3)
    assert isinstance(out, Verdict) and out.herbrand is None
    assert (out.kind, out.decided, out.bounds) == ("decided", False, "single domain size 1")
    assert eval(B2, out.structure, phi) == 1


def test_purely_universal_contradiction_relational():
    v = purely_universal_contradiction(parse("forall x. forall y. (P(x) /\\ ~P(y))"), 2)
    assert v.kind == "decided" and v.decided
    v = purely_universal_contradiction(parse("forall x. (P(x) \\/ ~P(x))"), 2)
    assert v.kind == "decided" and not v.decided


def test_purely_universal_contradiction_full_vocabulary():
    v = purely_universal_contradiction(parse("forall x. (P(x) /\\ ~P(f(x)))"), 2)
    assert v.kind == "decided" and v.decided
    assert "depth 1" in v.reason
    v = purely_universal_contradiction(parse("forall x. P(f(x))"), 2)
    assert v.kind == "exhausted"


def test_propositional_star_lemma_small_exhaustive():
    # On lattice-literal sentences: classical contradiction iff the star
    # translation is 0 under every valuation over every small chain.
    from itertools import product
    from fuzzyfo.semantics import eval_propositional
    from fuzzyfo.syntax import star_translate
    from test_sat_core import atoms_of
    corpus = [
        "P(c) /\\ ~P(c)",
        "P(c) \\/ ~P(c)",
        "(P(c) \\/ Q(c)) /\\ ~P(c) /\\ ~Q(c)",
        "(P(c) /\\ ~P(c)) \\/ (Q(c) /\\ ~Q(c))",
        "P(c) /\\ Q(c)",
    ]
    chains = [c for size in range(2, 6) for c in enumerate_mtl_chains(size)]
    for text in corpus:
        phi = parse(text)
        starred = star_translate(phi)
        atoms = atoms_of(phi)
        always_zero = all(
            eval_propositional(chain, dict(zip(atoms, vals)), starred) == chain.bot
            for chain in chains
            for vals in product(chain.carrier(), repeat=len(atoms))
        )
        assert always_zero == is_classical_contradiction_prop(phi)
