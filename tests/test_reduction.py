from dataclasses import replace

import pytest
from hypothesis import given, settings, strategies as st

from fuzzyfo import reduction
from fuzzyfo.chains import enumerate_mtl_chains, make_lukasiewicz_chain
from fuzzyfo.decision import dual_herbrand_search, HerbrandWitness, sat1_bounded, taut0_bounded
from fuzzyfo.reduction import (
    ReductionBoundsError, ReductionVerificationError, VerificationReport, hardness_reduce,
    matrix_to_lattice_literals, to_purely_universal, verify_reduction_instance,
)
from fuzzyfo.semantics import Structure, eval
from fuzzyfo.syntax import (
    Atom, Const, Exists, Forall, Join, Meet, Neg, Var, Vocabulary, VocabularyError, classify,
    format_formula, parse, star_translate,
)

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
    assert classify(out).is_purely_universal


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
        assert classify(trace.purely_universal_form).is_purely_universal
        prefixless = trace.lattice_matrix_form
        while hasattr(prefixless, "var"):
            prefixless = prefixless.body
        assert classify(prefixless).is_lattice_literal_combination
        assert classify(trace.star_output).is_sentence


def test_hardness_reduce_star_output_example():
    trace = hardness_reduce(parse("exists x. (P(x) /\\ ~P(x))"))
    assert format_formula(trace.star_output) == \
        "P(sk_0) & P(sk_0) /\\ ~P(sk_0) & ~P(sk_0)"


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
    assert isinstance(w, HerbrandWitness)
    w_lattice = dual_herbrand_search(trace.lattice_matrix_form, 2)
    assert isinstance(w_lattice, HerbrandWitness)


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


def test_a_chain_breaking_lemma_1_fails_the_lemma_check(monkeypatch):
    monkeypatch.setattr(reduction, "check_square_meet_law",
                        lambda chain: 1 if chain.size == 3 else None)
    trace = hardness_reduce(parse("exists x. (P(x) /\\ ~P(x))"))
    with pytest.raises(ReductionVerificationError,
                       match=r"fails at rank 1 of chain 1 \(size 3\)"):
        verify_reduction_instance(trace, [B2, L3])


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
