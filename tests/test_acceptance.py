"""Acceptance suite: one test per headline property, one pass/fail line each.

Run with `pytest tests/test_acceptance.py -v -s` to see the summary lines.
Every check is exact (integer ranks or exact rationals, no tolerances).
"""

from fractions import Fraction
from itertools import product

import numpy as np
import pytest

from oracles import generate_bsr_sentences, ground_satisfiable
from fuzzyfo.chains import (
    check_square_meet_law, enumerate_mtl_chains, make_godel_chain,
    make_lukasiewicz_chain,
)
from fuzzyfo.cli import run
from fuzzyfo.decision import (
    bsr_decide, dual_herbrand_search,
    is_classical_contradiction_prop,
)
from fuzzyfo.phi import (
    consistency_check_valuesets, phi_fin_refutation, phi_truncated_witness,
)
from fuzzyfo.reduction import (
    hardness_reduce, to_purely_universal, verify_reduction_instance,
)
from fuzzyfo.syntax import Exists, Vocabulary, VocabularyError, parse, vocabulary_of


def report(number, description, ok):
    print(f"\n[criterion {number}] {'PASS' if ok else 'FAIL'}: {description}")
    assert ok, f"criterion {number} failed: {description}"


# -- 1: the square-meet law on every chain in reach -----------------------

def test_criterion_1_square_meet_law():
    checked = 0
    failures = []
    for size in range(2, 7):
        for chain in enumerate_mtl_chains(size):
            if check_square_meet_law(chain) is not None:
                failures.append(chain)
            checked += 1
    for k in range(2, 13):
        for chain in (make_lukasiewicz_chain(k), make_godel_chain(k)):
            if check_square_meet_law(chain) is not None:
                failures.append(chain)
            checked += 1
    report(1, f"a^2 /\\ (~a)^2 = 0 on all {checked} chains "
              "(enumerated sizes 2-6, named families k <= 12)",
           checked == 147 and not failures)


# -- 2: classical contradiction iff star vanishes, exhaustively -----------

def _unique_rows(a):
    a = np.ascontiguousarray(a)
    view = a.view(np.dtype((np.void, a.shape[1] * a.itemsize))).ravel()
    _, idx = np.unique(view, return_index=True)
    return a[np.sort(idx)]


def test_criterion_2_star_biconditional_exhaustive():
    # A lattice-literal formula over 3 closed atoms is determined, for this
    # check, by its semantic signature: its classical truth table (8 columns)
    # plus its starred valuation table on every enumerated chain of size <= 4
    # (size^3 columns per chain).  Meet and join act pointwise as min and max
    # on signatures, so closing the 6 literal signatures under pointwise
    # min/max up to depth 4 covers every formula in the corpus.
    chains = [c for size in (2, 3, 4) for c in enumerate_mtl_chains(size)]
    n_cols = 8 + sum(c.size ** 3 for c in chains)
    leaves = np.zeros((6, n_cols), dtype=np.uint8)
    for a in range(3):
        for j, bits in enumerate(product((0, 1), repeat=3)):
            leaves[2 * a, j] = bits[a]
            leaves[2 * a + 1, j] = 1 - bits[a]
    col = 8
    for chain in chains:
        for j, ranks in enumerate(product(range(chain.size), repeat=3)):
            for a in range(3):
                # star of a literal squares its value
                leaves[2 * a, col + j] = chain.square(ranks[a])
                leaves[2 * a + 1, col + j] = chain.square(chain.neg(ranks[a]))
        col += chain.size ** 3

    signatures = _unique_rows(leaves)
    sizes_by_depth = [len(signatures)]
    for _depth in (2, 3, 4):
        n = len(signatures)
        parts = [signatures]
        chunk = max(1, 5 * 10 ** 7 // (n * n_cols))
        for i0 in range(0, n, chunk):
            block = signatures[i0:i0 + chunk]
            mn = np.minimum(block[:, None, :], signatures[None, :, :]).reshape(-1, n_cols)
            mx = np.maximum(block[:, None, :], signatures[None, :, :]).reshape(-1, n_cols)
            parts.append(_unique_rows(np.concatenate([mn, mx])))
        signatures = _unique_rows(np.concatenate(parts))
        sizes_by_depth.append(len(signatures))

    classically_zero = (signatures[:, :8] == 0).all(axis=1)
    star_zero = (signatures[:, 8:] == 0).all(axis=1)
    biconditional = bool((classically_zero == star_zero).all())
    report(2, f"contradiction <-> star vanishes on {len(signatures)} distinct "
              f"signatures of depth <= 4 lattice-literal formulas "
              f"({int(classically_zero.sum())} contradictory)",
           biconditional and sizes_by_depth == [6, 34, 314, 6138])


# -- 3: Herbrand witnesses for a fixed contradiction corpus ---------------

HERBRAND_CONTRADICTIONS = [
    "forall x. (P(x) /\\ ~P(x))",
    "forall x. (P(x) /\\ ~P(f(x)))",
    "forall x. forall y. (P(x) /\\ ~P(y))",
    "forall x. (P(x) /\\ (~P(x) \\/ Q(x)) /\\ ~Q(x))",
    "forall x. ((P(x) \\/ Q(x)) /\\ ~P(x) /\\ ~Q(x))",
    "forall x. forall y. (R(x, y) /\\ ~R(y, x))",
    "forall x. (P(x) /\\ ~P(f(f(x))))",
    "forall x. (Q(x) /\\ (Q(x) -> P(x)) /\\ ~P(x))",
    "forall x. forall y. ((P(x) \\/ Q(y)) /\\ ~P(y) /\\ ~Q(x))",
    "forall x. (~P(x) /\\ (P(f(x)) \\/ P(x)) /\\ ~P(f(x)))",
]


def test_criterion_3_dual_herbrand_contradictions():
    witnessed = 0
    for text in HERBRAND_CONTRADICTIONS:
        out = dual_herbrand_search(parse(text), 2)
        if out.herbrand is not None and out.decided and \
                is_classical_contradiction_prop(out.herbrand.conjunction):
            witnessed += 1
    report(3, f"Herbrand witness at depth <= 2, itself a propositional "
              f"contradiction, for {witnessed}/10 corpus sentences",
           witnessed == len(HERBRAND_CONTRADICTIONS))


# -- 4: the reduction verifier is coherent on a mixed corpus --------------

REDUCTION_CORPUS = [
    ("exists x. (P(x) /\\ ~P(x))", True),
    ("forall x. (P(x) /\\ ~P(f(x)))", True),
    ("forall x. exists y. (R(x, y) /\\ ~R(x, y))", True),
    ("forall x. (P(x) <-> ~P(x))", True),
    ("exists x. ~(P(x) -> P(x))", True),
    ("forall x. P(x)", False),
    ("forall x. (P(x) \\/ ~P(x))", False),
    ("exists x. (P(x) -> Q(x))", False),
    ("forall x. exists y. R(x, y)", False),
    ("exists x. P(x)", False),
]


def test_criterion_4_reduction_verifier_coherence():
    K = [c for size in (2, 3, 4) for c in enumerate_mtl_chains(size)]
    coherent = 0
    for text, expect_contradiction in REDUCTION_CORPUS:
        trace = hardness_reduce(parse(text))
        verdict = verify_reduction_instance(trace, K)
        if verdict.consistent and verdict.is_contradiction == expect_contradiction:
            coherent += 1
    report(4, f"reduction verified coherently over {len(K)} chains for "
              f"{coherent}/{len(REDUCTION_CORPUS)} corpus inputs "
              "(both certificate directions cross-checked)",
           coherent == len(REDUCTION_CORPUS))


# -- 5: the prefix-fragment decider against brute force -------------------

RELATIONAL_SKOLEM_INPUTS = [
    "forall x. exists y. R(x, y)",
    "forall x. exists y. (R(x, y) /\\ ~R(y, x))",
    "forall x. forall z. exists y. (R(x, y) \\/ R(z, y))",
    "exists u. forall x. exists y. (R(u, x) -> R(x, y))",
]


def test_criterion_5_bsr_against_brute_force():
    sentences = generate_bsr_sentences(200, 20260824)
    agreements = 0
    for phi in sentences:
        decided = bsr_decide(phi).decided
        n_exists = 0
        body = phi
        while isinstance(body, Exists):
            n_exists += 1
            body = body.body
        bound = max(1, n_exists + len(vocabulary_of(phi).constants))
        brute = any(ground_satisfiable(phi, n) for n in range(1, bound + 3))
        if decided == brute:
            agreements += 1

    vocab = Vocabulary(predicates={"R": 2}, relational=True)
    rejections = 0
    for text in RELATIONAL_SKOLEM_INPUTS:
        with pytest.raises(VocabularyError):
            to_purely_universal(parse(text, vocab), vocab)
        rejections += 1

    report(5, f"prefix-fragment decisions match brute force on "
              f"{agreements}/200 generated sentences; "
              f"{rejections}/{len(RELATIONAL_SKOLEM_INPUTS)} relational inputs "
              "needing a fresh function rejected",
           agreements == 200 and rejections == len(RELATIONAL_SKOLEM_INPUTS))


# -- 6: the separating sentence never reaches 1 finitely ------------------

def test_criterion_6_phi_below_top_on_finite_chains():
    # phi_fin_refutation raises if the sentence hits 1 or its negation hits 0
    # on any nonempty value set, so completing the scan is the property
    fin = phi_fin_refutation(12)
    by_k = {row.k: row for row in fin.rows}
    scanned = sum(row.value_sets_scanned for row in fin.rows)
    report(6, f"value < 1 and negation > 0 on all {scanned} nonempty value "
              "sets over chains with k <= 12; maxima 0 at k=2 and 1/2 at k=3",
           by_k[2].max_value == 0 and by_k[3].max_value == Fraction(1, 2)
           and all(row.max_value < 1 for row in fin.rows)
           and scanned == sum(2 ** k - 1 for k in range(2, 13)))


# -- 7: the value-set shortcut agrees with full evaluation ----------------

def test_criterion_7_valueset_abstraction_sound():
    checked = 0
    mismatches = []
    for k in range(2, 5):
        for domain_size in range(1, 4):
            outcome = consistency_check_valuesets(k, domain_size)
            if outcome is not None:
                mismatches.append((k, domain_size, outcome))
            checked += 1
    report(7, f"value-set evaluation matches structure evaluation on all "
              f"{checked} (k <= 4, domain <= 3) grids",
           checked == 9 and not mismatches)


# -- 8: the standard-chain witness family ---------------------------------

def test_criterion_8_witness_family_values():
    def oracle(values):
        first = max(1 - abs(v - (1 - v)) for v in values)
        second = min(
            max(1 - abs(a - max(Fraction(0), 2 * b - 1)) for b in values)
            for a in values
        )
        return max(Fraction(0), first + second - 1)

    ok = True
    previous = Fraction(0)
    for n in range(1, 21):
        structure, value = phi_truncated_witness(n)
        expected = oracle(list(structure.predicates["P"].values()))
        ok = ok and isinstance(value, Fraction) and value == expected
        ok = ok and value > previous and value > 1 - Fraction(2, 2 ** n)
        previous = value
    _, v1 = phi_truncated_witness(1)
    _, v2 = phi_truncated_witness(2)
    ok = ok and v1 == Fraction(1, 2) and v2 == Fraction(3, 4)
    report(8, "witness values for N <= 20 are exact rationals, strictly "
              "increasing, exceed 1 - 2^(1-N), match the independent oracle, "
              "and equal 1/2 and 3/4 at N = 1, 2", ok)


# -- 9: the command line is deterministic ---------------------------------

PHI_TEXT_CLI = "exists x. (P(x) <-> ~P(x)) & forall x. exists y. (P(x) <-> (P(y) & P(y)))"

CLI_COMMANDS = [
    ["parse", "--formula", PHI_TEXT_CLI],
    ["decide", "--set", "satpos", "--chain", "luk:3", "--max-domain", "2",
     "--formula", PHI_TEXT_CLI],
    ["decide", "--set", "taut0", "--chain", "enum:4", "--max-domain", "1",
     "--formula", "(P(c) & P(c)) /\\ (~P(c) & ~P(c))"],
    ["star", "--formula", "P(c) /\\ ~P(c)"],
    ["herbrand", "--formula", "forall x. (P(x) /\\ ~P(f(x)))", "--depth", "2"],
    ["bsr", "--formula", "exists x. forall y. (Q(x) \\/ ~Q(y))"],
    ["reduce", "--formula", "exists x. (P(x) /\\ ~P(x))", "--verify", "--chain", "enum:3"],
    ["verify-reduction", "--formula", "forall x. P(x)", "--chain", "luk:3"],
    ["enum-chains", "--size", "4", "--tables"],
    ["check-lemma1", "--enum", "4"],
    ["phi-report", "--max-k", "5"],
    ["phi-witness", "--n", "8"],
    ["--format", "records", "phi-report", "--max-k", "4"],
]


def test_criterion_9_cli_determinism(tmp_path):
    structure = tmp_path / "m.struct"
    structure.write_text("domain 1\nconst c = 0\npred P : #1\n")
    commands = CLI_COMMANDS + [
        ["eval", "--formula", "P(c) & P(c)", "--chain", "luk:3",
         "--structure", str(structure)],
    ]
    stable = 0
    for argv in commands:
        first = run(argv)
        second = run(argv)
        if first == second and first[0] == 0:
            stable += 1
    report(9, f"{stable}/{len(commands)} command invocations byte-identical "
              "across repeated runs", stable == len(commands))
