import re
import time
from dataclasses import replace

import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from fuzzyfo import reduction
from fuzzyfo.cli import run
from fuzzyfo.chains import (
    FiniteChain, enumerate_mtl_chains, make_boolean_chain, make_lukasiewicz_chain,
)
from fuzzyfo.decision import dual_herbrand_search, HerbrandWitness, sat1_bounded, taut0_bounded
from fuzzyfo.reduction import (
    ReductionBoundsError, ReductionVerificationError, VerificationReport, hardness_reduce,
    matrix_to_lattice_literals, to_purely_universal, verify_reduction_instance,
)
from fuzzyfo.semantics import (
    Structure, enumerate_structures, eval, flat_layout, structure_space_size,
)
from fuzzyfo.syntax import (
    App, Atom, Const, Exists, Forall, Join, Meet, Neg, Var, Vocabulary, VocabularyError,
    format_formula, is_lattice_literal_combination, is_quantifier_free, is_sentence, parse,
    prenex, pull_universals, star_translate, vocabulary_of,
)

from test_compiled import CHAINS, SAMPLED, SWEEP_CAP, sentences

B2 = make_lukasiewicz_chain(2)
L3 = make_lukasiewicz_chain(3)
MTL_CHAINS = [c for size in (2, 3, 4) for c in enumerate_mtl_chains(size)]


def test_to_purely_universal_skolem_constant():
    out, vocab = to_purely_universal(parse("exists x. (P(x) /\\ ~P(x))"))
    assert format_formula(out) == "P(sk_0) /\\ ~P(sk_0)"
    assert "sk_0" in vocab.constants


def test_to_purely_universal_fixed_point():
    phi = parse("forall x. (P(x) /\\ ~P(f(x)))")
    out, _ = to_purely_universal(phi)
    assert out == phi


def test_to_purely_universal_skolem_function():
    out, vocab = to_purely_universal(parse("forall x. exists y. (R(x, y) /\\ ~R(x, y))"))
    assert format_formula(out) == "forall x. (R(x, sk_0(x)) /\\ ~R(x, sk_0(x)))"
    assert vocab.functions["sk_0"] == 1
    assert prenex(out) == ([], ["x"], out.body)


def test_to_purely_universal_relational_violation():
    vocab = Vocabulary(predicates={"R": 2}, relational=True)
    phi = parse("forall x. exists y. R(x, y)", vocab)
    with pytest.raises(VocabularyError):
        to_purely_universal(phi, vocab)


def test_matrix_to_lattice_literals():
    assert format_formula(matrix_to_lattice_literals(parse("forall x. ~(P(x) /\\ Q(x))"))) \
        == "forall x. (~P(x) \\/ ~Q(x))"
    assert format_formula(matrix_to_lattice_literals(parse("forall x. (P(x) -> Q(x))"))) \
        == "forall x. (~P(x) \\/ Q(x))"
    phi = parse("forall x. (P(x) /\\ ~P(x))")
    assert matrix_to_lattice_literals(phi) == phi


def test_hardness_reduce_stage_contracts():
    corpus = [
        "exists x. (P(x) /\\ ~P(x))",
        "forall x. P(x)",
        "forall x. exists y. (R(x, y) /\\ ~R(x, y))",
        "exists x. (P(x) -> Q(x))",
        "forall x. (P(x) <-> ~P(x))",
    ]
    for text in corpus:
        trace = hardness_reduce(parse(text))
        universal = trace.purely_universal_form
        exists, _, matrix = prenex(universal)
        assert not exists and is_quantifier_free(matrix) and pull_universals(universal) == universal
        prefixless = trace.lattice_matrix_form
        while hasattr(prefixless, "var"):
            prefixless = prefixless.body
        assert is_lattice_literal_combination(prefixless)
        assert is_sentence(trace.star_output)


def test_hardness_reduce_star_output_example():
    trace = hardness_reduce(parse("exists x. (P(x) /\\ ~P(x))"))
    assert format_formula(trace.star_output) == \
        "P(sk_0) & P(sk_0) /\\ ~P(sk_0) & ~P(sk_0)"


@pytest.mark.parametrize("text, universal", [
    ("(forall x. P(x)) /\\ forall x. Q(x, x_1)", "forall x. forall x_2. (P(x) /\\ Q(x_2, x_1))"),
    ("exists y. forall sk_0. (R(y, sk_0) /\\ ~R(sk_0, y))",
     "forall sk_0. (R(sk_1, sk_0) /\\ ~R(sk_0, sk_1))"),
    ("forall x. (P(c0(x)) /\\ ~P(x))", "forall x. (P(c0(x)) /\\ ~P(x))"),
], ids=["binder", "skolem", "herbrand"])
def test_every_stage_parses_back_when_the_input_uses_a_generated_name(text, universal):
    trace = hardness_reduce(parse(text))
    assert format_formula(trace.purely_universal_form) == universal
    for stage in (trace.input, trace.negation, trace.herbrand_form, trace.purely_universal_form,
                  trace.lattice_matrix_form, trace.star_output):
        assert parse(format_formula(stage)) == stage


def test_a_function_named_c0_leaves_the_herbrand_constant_c1():
    trace = hardness_reduce(parse("forall x. (P(c0(x)) /\\ ~P(x))"))
    verdict = dual_herbrand_search(trace.purely_universal_form, 1)
    assert verdict.decided and (verdict.herbrand.depth, verdict.herbrand.m) == (1, 2)
    assert {a for args in verdict.herbrand.instantiations for a in args} == {
        Const("c1"), App("c0", (Const("c1"),))}


def test_reduce_relational_violation_propagates():
    vocab = Vocabulary(predicates={"R": 2}, relational=True)
    phi = parse("forall x. exists y. R(x, y)", vocab)
    with pytest.raises(VocabularyError):
        hardness_reduce(phi, vocab)


def test_equi_contradictoriness_via_herbrand_witnesses():
    # a witness for the purely universal form certifies the input too
    phi = parse("forall x. exists y. (R(x, y) /\\ ~R(x, y))")
    trace = hardness_reduce(phi)
    w = dual_herbrand_search(trace.purely_universal_form, 2)
    assert w.decided and isinstance(w.herbrand, HerbrandWitness)
    w_lattice = dual_herbrand_search(trace.lattice_matrix_form, 2)
    assert w_lattice.decided and isinstance(w_lattice.herbrand, HerbrandWitness)


def test_verify_contradiction_instance():
    K = [c for size in (2, 3, 4) for c in enumerate_mtl_chains(size)]
    trace = hardness_reduce(parse("exists x. (P(x) /\\ ~P(x))"))
    report = verify_reduction_instance(trace, K)
    assert report.is_contradiction
    assert report.consistent


def test_verify_full_vocabulary_contradiction():
    trace = hardness_reduce(parse("forall x. (P(x) /\\ ~P(f(x)))"))
    report = verify_reduction_instance(trace, [B2, L3], max_domain=2)
    assert report.is_contradiction
    assert report.consistent


def test_verify_non_contradiction_instance():
    trace = hardness_reduce(parse("forall x. P(x)"))
    report = verify_reduction_instance(trace, [B2, L3])
    assert not report.is_contradiction
    assert report.consistent
    # a lifted model with the top value is a SAT+ and a SAT1 witness alike
    assert report.checks[1:] == (
        ("lifted model gives star output top value on size-2 chain", True, "value 1"),
        ("lifted model gives star output top value on size-3 chain", True, "value 2"),
    )


def test_verify_classical_tautology_instance():
    trace = hardness_reduce(parse("forall x. (P(x) \\/ ~P(x))"))
    report = verify_reduction_instance(trace, [L3])
    assert not report.is_contradiction
    assert report.consistent


def test_verify_full_vocabulary_non_contradiction_via_b2_model():
    trace = hardness_reduce(parse("forall x. exists y. R(x, y)"))
    report = verify_reduction_instance(trace, [B2, L3], max_domain=2)
    assert not report.is_contradiction
    assert report.consistent


def test_verify_unknown_raises():
    # satisfiable, but only in an infinite domain? No: use a sentence whose
    # Herbrand search exhausts and whose B2 models need a bigger domain than
    # the bound allows.
    trace = hardness_reduce(parse(
        "forall x. (~R(x, x) /\\ R(x, f(x)))"))
    with pytest.raises(ReductionVerificationError):
        verify_reduction_instance(trace, [B2], max_domain=1, max_depth=1)


def test_verification_searches_for_the_b2_model_once(monkeypatch):
    calls = []
    find = reduction._find_b2_model

    def counted(*args):
        calls.append(args[1:])
        return find(*args)

    monkeypatch.setattr(reduction, "_find_b2_model", counted)
    trace = hardness_reduce(parse("forall x. exists y. R(x, y)"))
    report = verify_reduction_instance(trace, [L3])
    assert calls == [(2, 10 ** 7)]
    assert report == VerificationReport(False, "B2 model with domain 1", (
        ("B2 model of the purely universal form exists", True, "domain 1"),
        ("lifted model gives star output top value on size-3 chain", True, "value 2"),
    ))


STRICT_ORDER_4 = ("R(a,b) /\\ R(a,c) /\\ R(a,d) /\\ R(b,c) /\\ R(b,d) /\\ R(c,d)"
                  " /\\ ~R(a,a) /\\ ~R(b,b) /\\ ~R(c,c) /\\ ~R(d,d)")


def test_relational_model_beyond_the_enumeration_budget_certifies():
    # 2**24 B2 structures on domain 4: the model comes from the Herbrand SAT call
    code, text = run(["verify-reduction", "--chain", "luk:3", "--formula", STRICT_ORDER_4])
    assert code == 0, text
    assert "certificate: Bernays-Schonfinkel: satisfiable at the Bernays-Schonfinkel bound 4\n" in text
    assert "check [B2 model of the purely universal form exists]: pass (domain 4)\n" in text


def test_high_arity_relational_model_certifies_at_domain_1():
    # 8**8 table entries exceed the budget, so the B2 search finds the domain-1 model
    code, text = run(["verify-reduction", "--chain", "luk:3", "--formula", "R(a,b,c,d,e,f,g,h)"])
    assert (code, text) == (0, (
        "input: R(a, b, c, d, e, f, g, h)\n"
        "star-output: R(a, b, c, d, e, f, g, h) & R(a, b, c, d, e, f, g, h)\n"
        "certified: non-contradiction\n"
        "certificate: Bernays-Schonfinkel: satisfiable at the Bernays-Schonfinkel bound 8\n"
        "check [B2 model of the purely universal form exists]: pass (domain 1)\n"
        "check [lifted model gives star output top value on size-3 chain]: pass (value 2)\n"
        "consistent: True\n"))


@pytest.mark.parametrize("budget, K", [(3124, [L3]), (5000, [B2, L3])])
def test_relational_model_over_budget_or_lift_price_falls_back_to_b2_search(budget, K):
    # 5**5 = 3125 entries: over the budget the B2 search finds domain 1, within
    # it the Herbrand search's domain-5 model is checked, whatever the chains
    domain = 1 if budget < 5 ** 5 else 5
    trace = hardness_reduce(parse("R(a, b, c, d, e)"))
    report = verify_reduction_instance(trace, K, budget=budget)
    assert report.consistent and not report.is_contradiction
    assert report.certificate == "Bernays-Schonfinkel: satisfiable at the Bernays-Schonfinkel bound 5"
    assert report.checks[0] == ("B2 model of the purely universal form exists", True,
                                f"domain {domain}")
    assert len(report.checks) == 1 + len(K)


def test_relational_model_over_the_lift_price_and_beyond_max_domain_is_reported():
    # 4 entries of R over the budget 3; a and b must be distinct
    trace = hardness_reduce(parse("R(a, b) /\\ ~R(b, a)"))
    with pytest.raises(ReductionBoundsError, match=(
            "^cannot certify the input either way within bounds: Herbrand search decided at "
            "single domain size 2 \\(Bernays-Schonfinkel: satisfiable at the "
            "Bernays-Schonfinkel bound 2\\) and no B2 model with domain <= 1$")) as caught:
        verify_reduction_instance(trace, [B2, L3, make_lukasiewicz_chain(4)], max_domain=1,
                                  budget=3)
    assert not caught.value.depth_helps


@pytest.mark.parametrize("text", [
    STRICT_ORDER_4,
    STRICT_ORDER_4 + " /\\ R(d,e) /\\ R(a,e) /\\ ~R(e,e)",
    "forall x. P(x)",
    "forall x. (P(x) \\/ ~P(x))",
    "exists x. forall y. (Q(x) \\/ ~Q(y))",
    "exists x. exists y. forall z. (R(x, z) /\\ ~R(y, z))",
    "forall x. forall y. (R(x, y) -> R(y, x)) /\\ R(a, b) /\\ S",
])
def test_relational_non_contradictions_certify_without_a_b2_search(monkeypatch, text):
    def refuse(*args):
        raise AssertionError("relational input reached the B2 structure search")

    monkeypatch.setattr(reduction, "_find_b2_model", refuse)
    report = verify_reduction_instance(hardness_reduce(parse(text)), [B2, L3])
    assert not report.is_contradiction and report.consistent
    assert report.certificate.startswith("Bernays-Schonfinkel: satisfiable")


def test_witness_contradiction_check_gets_the_verifier_budget(monkeypatch):
    budgets = []
    check = reduction.is_classical_contradiction_prop

    def recorded(phi, budget):
        budgets.append(budget)
        return check(phi, budget)

    monkeypatch.setattr(reduction, "is_classical_contradiction_prop", recorded)
    trace = hardness_reduce(parse("forall x. (P(x) /\\ ~P(f(x)))"))
    assert verify_reduction_instance(trace, [B2], budget=5000).consistent
    assert budgets == [5000]


def test_verify_unknown_within_bounds_is_a_bounds_error():
    # the Skolemized sentence needs a domain-3 B2 model, the Herbrand search
    # finds no witness up to depth 2: neither answer is reachable
    trace = hardness_reduce(parse("forall x. exists y. (R(x, y) /\\ ~R(y, x))"))
    with pytest.raises(ReductionBoundsError, match="term depth 0..2 .* domain <= 2"):
        verify_reduction_instance(trace, [L3])
    assert not verify_reduction_instance(trace, [L3], max_domain=3).is_contradiction


def test_non_contradiction_model_above_max_domain_verifies():
    # the B2 model sits at the Bernays-Schonfinkel bound 2, above --max-domain 1,
    # and no fuzzy search is bounded by max_domain any more
    trace = hardness_reduce(parse("P(a) /\\ ~P(b)"))
    report = verify_reduction_instance(trace, [L3], max_domain=1)
    assert report == VerificationReport(
        False, "Bernays-Schonfinkel: satisfiable at the Bernays-Schonfinkel bound 2", (
            ("B2 model of the purely universal form exists", True, "domain 2"),
            ("lifted model gives star output top value on size-3 chain", True, "value 2"),
        ))


def test_contradiction_checks_are_proofs():
    trace = hardness_reduce(parse("forall x. (P(x) /\\ ~P(f(x)))"))
    report = verify_reduction_instance(trace, MTL_CHAINS)
    assert report.checks[1:] == (
        ("star output is the star of a lattice-literal matrix", True,
         "star_translate of the lattice matrix"),
        ("square-meet law a^2 /\\ (~a)^2 = 0 on every chain", True, "32 ranks on 9 chains"),
    )


def test_a_tampered_star_output_fails_the_shape_check():
    trace = hardness_reduce(parse("exists x. (P(x) /\\ ~P(x))"))
    tampered = replace(trace, star_output=trace.lattice_matrix_form)
    with pytest.raises(ReductionVerificationError, match="not star_translate of the lattice matrix"):
        verify_reduction_instance(tampered, [L3])


def test_an_unscoped_exists_in_the_lattice_form_fails_the_shape_check():
    # its matrix is a lattice-literal combination and the star is its own, but
    # a lattice form must be universal
    trace = hardness_reduce(parse("exists x. (P(x) /\\ ~P(x))"))
    lattice = parse("exists y. (P(y) /\\ ~P(y))")
    tampered = replace(trace, lattice_matrix_form=lattice, star_output=star_translate(lattice))
    with pytest.raises(ReductionVerificationError,
                       match=re.escape("[star output is the star of a lattice-literal matrix]")):
        verify_reduction_instance(tampered, [L3])


def test_a_chain_breaking_lemma_1_fails_the_lemma_check(monkeypatch):
    monkeypatch.setattr(reduction, "check_square_meet_law",
                        lambda chain: 1 if chain.size == 3 else None)
    trace = hardness_reduce(parse("exists x. (P(x) /\\ ~P(x))"))
    with pytest.raises(ReductionVerificationError,
                       match=r"fails at rank 1 of chain 1 \(size 3\)"):
        verify_reduction_instance(trace, [B2, L3])


def test_a_chain_without_b2_inside_fails_its_lift_row():
    # top * top = bot on 3 ranks: no MTL-chain, so built past make_chain_from_table
    broken = FiniteChain(3, ((0, 0, 0), (0, 1, 1), (0, 1, 0)), L3.residuum_table)
    trace = hardness_reduce(parse("forall x. P(x)"))
    with pytest.raises(ReductionVerificationError, match="^" + re.escape(
            "certificate 'Bernays-Schonfinkel: satisfiable at the Bernays-Schonfinkel bound 1' "
            "failed check [lifted model gives star output top value on size-3 chain] "
            "(B2 is not embedded)") + "$"):
        verify_reduction_instance(trace, [L3, broken])


def test_a_model_falsifying_the_universal_form_fails_its_row(monkeypatch):
    search = reduction.dual_herbrand_search

    def flipped(*args, **kwargs):
        verdict = search(*args, **kwargs)
        model = verdict.structure
        table = {key: 1 - value for key, value in model.predicates["P"].items()}
        return replace(verdict, structure=replace(model, predicates={"P": table}))

    monkeypatch.setattr(reduction, "dual_herbrand_search", flipped)
    trace = hardness_reduce(parse("forall x. P(x)"))
    with pytest.raises(ReductionVerificationError, match=re.escape(
            "failed check [B2 model of the purely universal form exists] (domain 1); "
            "check [lifted model gives star output top value on size-3 chain] (value 0)")):
        verify_reduction_instance(trace, [L3])


TRANSITIVE_5 = ("forall x. forall y. forall z. ((R(x,y) /\\ R(y,z)) -> R(x,z))"
                " /\\ R(a,b) /\\ R(c,d) /\\ P(e)")


def test_a_relational_model_is_read_on_b2_once_whatever_the_chains(monkeypatch):
    # 576 chains and a domain-5 model: one eval per form on B2, none per chain
    sizes = []
    walk = reduction.eval

    def recorded(chain, *args):
        sizes.append(chain.size)
        return walk(chain, *args)

    monkeypatch.setattr(reduction, "eval", recorded)
    start = time.perf_counter()
    code, text = run(["verify-reduction", "--chain", "enum:7", "--formula", TRANSITIVE_5])
    elapsed = time.perf_counter() - start
    assert code == 0 and text.count(": pass (value ") == 576
    assert "check [B2 model of the purely universal form exists]: pass (domain 5)\n" in text
    assert sizes == [2, 2]
    assert elapsed < 0.5


def lift(structure, chain):
    """Read a B2 structure as a structure over any chain (0 -> bot, 1 -> top)."""
    return Structure(structure.domain_size, dict(structure.constants),
                     {f: dict(t) for f, t in structure.functions.items()},
                     {p: {k: chain.top if v == 1 else chain.bot for k, v in t.items()}
                      for p, t in structure.predicates.items()})


@settings(max_examples=30, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(phi=sentences(), rnd=st.randoms(use_true_random=False))
def test_the_lifted_value_is_the_lift_of_the_b2_value(phi, rnd):
    # the lemma behind the verifier's rows, checked against a built lift
    b2 = make_boolean_chain()
    vocab = vocabulary_of(phi)
    for n in (1, 2):
        space = structure_space_size(vocab, b2, n)
        if space <= SWEEP_CAP:
            structures = enumerate_structures(vocab, b2, n)
        else:
            layout = flat_layout(vocab, b2, n, budget=space)
            structures = [layout.structure(tuple(rnd.choice(r) for r in layout.ranges))
                          for _ in range(SAMPLED)]
        for structure in structures:
            value = eval(b2, structure, phi)
            for chain in CHAINS:
                assert eval(chain, lift(structure, chain), phi) == (
                    chain.top if value == 1 else chain.bot)


# -- the star projection: what Lemma 1 lets the verifier prove -------------------

_terms = st.sampled_from([Var("x"), Var("y"), Const("c")])
_literals = st.one_of(
    st.builds(lambda t: Atom("P", (t,)), _terms),
    st.builds(lambda s, t: Atom("R", (s, t)), _terms, _terms),
).flatmap(lambda atom: st.sampled_from([atom, Neg(atom)]))
_matrices = st.recursive(
    _literals,
    lambda sub: st.tuples(sub, sub, st.booleans()).map(
        lambda t: Meet(t[0], t[1]) if t[2] else Join(t[0], t[1])),
    max_leaves=5,
)
_quantified = st.builds(
    lambda qx, qy, matrix: qx("x", qy("y", matrix)),
    st.sampled_from([Forall, Exists]), st.sampled_from([Forall, Exists]), _matrices)
# a meet of two sentences is a contradiction often enough to exhaust both searches
lattice_sentences = st.one_of(_quantified, st.builds(Meet, _quantified, _quantified))


def _plus(chain, structure):
    """M+: the B2 structure where P(d) holds iff P(d)^2 is above 0 in M."""
    return Structure(structure.domain_size, dict(structure.constants), {}, {
        p: {k: int(chain.square(v) != chain.bot) for k, v in table.items()}
        for p, table in structure.predicates.items()})


@settings(max_examples=100, deadline=None)
@given(lattice_sentences)
def test_star_is_refuted_on_a_chain_exactly_where_b2_has_a_model(lattice):
    star = star_translate(lattice)
    for domain in (1, 2):
        classical = sat1_bounded([B2], lattice, domain)
        for chain in MTL_CHAINS:
            fuzzy = taut0_bounded([chain], star, domain)
            assert (fuzzy.kind == "refuted") == (classical.kind == "member_witness"), \
                (format_formula(lattice), domain, chain.describe())
            if fuzzy.kind == "refuted":
                assert eval(B2, _plus(chain, fuzzy.structure), lattice) == B2.top
