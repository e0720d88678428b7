import pytest

from fuzzyfo import reduction
from fuzzyfo.chains import enumerate_mtl_chains, make_lukasiewicz_chain
from fuzzyfo.decision import dual_herbrand_search, HerbrandWitness
from fuzzyfo.reduction import (
    ReductionVerificationError, VerificationReport, hardness_reduce, matrix_to_lattice_literals,
    to_purely_universal, verify_reduction_instance,
)
from fuzzyfo.syntax import (
    Vocabulary, VocabularyError, classify, format_formula, parse,
)

B2 = make_lukasiewicz_chain(2)
L3 = make_lukasiewicz_chain(3)


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
    values = [check for check in report.checks if "positive witness" in check[0]]
    assert values and all(ok for _, ok, _ in values)


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
        ("positive witness on size-3 chain", True, "value 2"),
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
