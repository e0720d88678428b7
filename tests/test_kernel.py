"""The byte-sliced kernel (`compile_chunks`) against the reference `eval`.

Chunk bytes must equal `eval` on every structure, in enumeration order,
and the deciders must give the reference loop's verdict whichever way a
space is cut into chunks.  Each space is searched by one evaluator: the
kernel on chains of at most 16 ranks, predicate-free spaces included, and
the reference `eval` on larger chains.
"""

import itertools

import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from fuzzyfo import cli, decision, semantics
from fuzzyfo.chains import enumerate_mtl_chains, make_godel_chain, make_lukasiewicz_chain
from fuzzyfo.decision import sat_pos_bounded
from fuzzyfo.semantics import (
    EvaluatorMismatchError, compile_chunks, eval, flat_layout, structure_space_size,
)
from fuzzyfo.syntax import BOTTOM, parse, vocabulary_of

from test_compiled import (
    DECIDERS, SWEEP_CAP, outcome, reference_verdict, searched_sentences, sentences,
)

KERNEL_CHAINS = ([make_lukasiewicz_chain(k) for k in range(2, 17)]
                 + [make_godel_chain(k) for k in range(2, 17)]
                 + [c for size in (2, 3, 4) for c in enumerate_mtl_chains(size)])
SMALL_CHAINS = [c for c in KERNEL_CHAINS if c.size <= 5]


@pytest.mark.parametrize("chain", KERNEL_CHAINS, ids=lambda c: f"size{c.size}")
@settings(max_examples=8, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(phi=sentences(), limit=st.sampled_from((4096, 27, 8, 2)))
def test_chunk_bytes_equal_the_closures(chain, phi, limit):
    vocab = vocabulary_of(phi)
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(semantics, "CHUNK_LIMIT", limit)
        for n in (1, 2, 3):
            if structure_space_size(vocab, chain, n) > SWEEP_CAP:
                break
            layout = flat_layout(vocab, chain, n)
            prefix, evaluate = compile_chunks(phi, chain, layout)
            size = len(evaluate(tuple(r[0] for r in prefix)))
            # one structure per chunk when no predicate slot fits in one
            assert 1 <= size <= limit
            assert size > 1 or not vocab.predicates or chain.size > limit
            every = list(itertools.product(*layout.ranges))
            assert len(every) == size * len(list(itertools.product(*prefix)))
            ranks = b"".join(evaluate(values[:len(prefix)]) for values in every[::size])
            assert ranks == bytes(eval(chain, layout.structure(values), phi) for values in every)


@settings(max_examples=80, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(phi=searched_sentences(), name=st.sampled_from(sorted(DECIDERS)),
       K=st.lists(st.sampled_from(SMALL_CHAINS), min_size=1, max_size=3),
       max_domain=st.integers(1, 3), limit=st.sampled_from((8, 27, 4096)))
def test_deciders_match_reference_loop_across_chunks(phi, name, K, max_domain, limit):
    decider = DECIDERS[name][0]
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(semantics, "CHUNK_LIMIT", limit)
        got = outcome(lambda: decider(K, phi, max_domain, budget=SWEEP_CAP))
    assert got == outcome(lambda: reference_verdict(name, K, phi, max_domain, SWEEP_CAP))


@pytest.mark.parametrize("spec", ("luk:3", "godel:16", "enum:3"))
@settings(max_examples=25, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(phi=searched_sentences(), name=st.sampled_from(sorted(DECIDERS)),
       max_domain=st.integers(1, 2))
def test_small_chains_search_without_the_closures(spec, phi, name, max_domain):
    K = cli._parse_chain_spec(spec)

    def refused(*args):
        raise AssertionError("semantics.eval called on a chain of at most 16 ranks")
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(semantics, "eval", refused)
        got = outcome(lambda: DECIDERS[name][0](K, phi, max_domain, budget=SWEEP_CAP))
    assert got == outcome(lambda: reference_verdict(name, K, phi, max_domain, SWEEP_CAP))


@pytest.mark.parametrize("spec", ("luk:3", "godel:16", "luk:17"))
@pytest.mark.parametrize("text", ["0", "1", "~0", "0 -> 1", "1 & 1", "forall x. 1"])
def test_predicate_free_sentences_match_reference_loop(spec, text):
    K, phi = cli._parse_chain_spec(spec), parse(text)
    for name in DECIDERS:
        got = outcome(lambda: DECIDERS[name][0](K, phi, 2))
        want = outcome(lambda: reference_verdict(name, K, phi, 2, 10**7))
        if phi == BOTTOM and name in ("taut0", "satpos"):
            # decided from the sentence's form: no structure gives 0 a value above 0
            assert (got[0], want[0]) == ("decided", "exhausted")
        else:
            assert got == want


def test_chain_above_size_16_takes_the_closures(monkeypatch):
    chain = make_lukasiewicz_chain(17)
    phi = parse("forall x. exists y. (R(x, y) -> ~R(y, x))")
    vocab = vocabulary_of(phi)
    assert compile_chunks(phi, chain, flat_layout(vocab, chain, 1)) is None
    luk16 = make_lukasiewicz_chain(16)
    assert compile_chunks(phi, luk16, flat_layout(vocab, luk16, 1)) is not None
    called = []
    real = semantics.eval
    monkeypatch.setattr(semantics, "eval",
                        lambda *args: called.append(args[0].size) or real(*args))
    for name in DECIDERS:
        got = outcome(lambda: DECIDERS[name][0]([chain], phi, 1))
        assert got == outcome(lambda: reference_verdict(name, [chain], phi, 1, 10**7))
        assert outcome(lambda: DECIDERS[name][0]([luk16], phi, 1)) == outcome(
            lambda: reference_verdict(name, [luk16], phi, 1, 10**7))
    assert called and set(called) == {17}


def test_kernel_off_by_one_raises(monkeypatch):
    real = semantics.compile_chunks

    def off_by_one(phi, chain, layout):
        prefix, evaluate = real(phi, chain, layout)
        return prefix, lambda v: bytes(min(r + 1, chain.top) for r in evaluate(v))
    monkeypatch.setattr(semantics, "compile_chunks", off_by_one)
    _assert_mismatch("P(c) & Q(c)")


def test_kernel_returning_an_unaccepted_structure_raises(monkeypatch):
    def first_structure(phi, vocab, chain, n, least, budget):
        layout = semantics.flat_layout(vocab, chain, n, budget)
        prefix, evaluate = semantics.compile_chunks(phi, chain, layout)
        return (layout.structure(tuple(r[0] for r in layout.ranges)),
                evaluate(tuple(r[0] for r in prefix))[0])
    monkeypatch.setattr(decision, "first_at_least", first_structure)
    _assert_mismatch("P(c) & Q(c)")


def _assert_mismatch(formula):
    with pytest.raises(EvaluatorMismatchError):
        sat_pos_bounded([make_lukasiewicz_chain(3)], parse(formula), 1)
    code, text = cli.run(["decide", "--set", "satpos", "--chain", "luk:3",
                          "--max-domain", "1", "--formula", formula])
    assert code == 2
    assert text.startswith("internal consistency failure: found value")
