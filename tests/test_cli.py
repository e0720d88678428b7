import contextlib
import io
import os
import sys
import time

import pytest
from hypothesis import given, settings, strategies as st

from fuzzyfo import chains
from fuzzyfo.cli import build_parser, main, run
from fuzzyfo.syntax import format_formula, parse

from test_compiled import sentences
from test_decision import balanced_join

PHI = "exists x. (P(x) <-> ~P(x)) & forall x. exists y. (P(x) <-> (P(y) & P(y)))"


def ok(argv):
    code, text = run(argv)
    assert code == 0, text
    return text


def test_parse_command():
    text = ok(["parse", "--formula", "forall x. (P(x) /\\ ~P(x))"])
    assert "purely-universal: True" in text
    assert "relational: True" in text


def test_parse_with_vocab_file(tmp_path):
    vocab = tmp_path / "v.voc"
    vocab.write_text("pred P/1\nconst c\n")
    text = ok(["parse", "--formula", "P(c)", "--vocab", str(vocab)])
    assert "formula: P(c)" in text


def test_eval_command(tmp_path):
    structure = tmp_path / "m.struct"
    structure.write_text("domain 1\nconst c = 0\npred P : #1\n")
    text = ok(["eval", "--formula", "P(c) & P(c)", "--chain", "luk:3",
               "--structure", str(structure)])
    assert "value: 0" in text


def test_decide_satpos_phi():
    text = ok(["decide", "--set", "satpos", "--chain", "luk:3", "--max-domain", "2",
               "--formula", PHI])
    assert "outcome: member_witness" in text
    assert "value: 1" in text


def test_star_command():
    text = ok(["star", "--formula", "P(c) /\\ ~P(c)"])
    assert "star: P(c) & P(c) /\\ ~P(c) & ~P(c)" in text


def test_star_fragment_error_exit_1():
    code, text = run(["star", "--formula", "P(c) -> Q(c)"])
    assert code == 1
    assert "error:" in text


def test_herbrand_command(tmp_path):
    vocab = tmp_path / "v.voc"
    vocab.write_text("pred P/1\nfun f/1\nconst c\n")
    text = ok(["herbrand", "--vocab", str(vocab), "--depth", "2"])
    assert "count: 3" in text
    assert "f(f(c))" in text


def test_herbrand_universe_over_the_budget_exit_1(monkeypatch):
    # |U_4| = 1 + 730^3 terms: refused from the count, before any is built
    monkeypatch.delenv("FUZZYFO_BUDGET", raising=False)
    start = time.perf_counter()
    code, text = run(["herbrand", "--formula", "P(g(c, c, c))", "--depth", "4"])
    assert time.perf_counter() - start < 1
    assert code == 1
    assert text == "error: search space of 389017001 terms at depth 4 exceeds budget 10000000\n"


def test_herbrand_lists_terms_up_to_the_nesting_limit():
    text = ok(["herbrand", "--formula", "P(f(c))", "--depth", "100"])
    assert "count: 101\n" in text
    assert "f(" * 100 + "c" + ")" * 100 in text
    for depth in ("101", "400"):
        assert run(["herbrand", "--formula", "P(f(c))", "--depth", depth]) == (
            1, "error: term depth 101 exceeds the nesting limit 100\n")


def test_herbrand_without_functions_at_any_depth():
    start = time.perf_counter()
    text = ok(["herbrand", "--formula", "P(c)", "--depth", "1000000"])
    assert time.perf_counter() - start < 0.5
    assert text == "depth: 1000000\ncount: 1\nterms: c\n"


@pytest.mark.parametrize("depth", [str(sys.maxsize), str(10**22)])
def test_herbrand_depth_past_the_largest_index(depth):
    assert run(["herbrand", "--formula", "P(c)", "--depth", depth]) == (
        0, f"depth: {depth}\ncount: 1\nterms: c\n")
    assert run(["herbrand", "--formula", "P(f(c))", "--depth", depth]) == (
        1, "error: term depth 101 exceeds the nesting limit 100\n")


def test_deep_herbrand_search_stops_at_the_nesting_limit():
    start = time.perf_counter()
    text = ok(["reduce", "--verify", "--chain", "luk:2", "--max-depth", "150",
               "--formula", "forall x. (P(x) \\/ ~P(f(x)))"])
    assert time.perf_counter() - start < 1
    assert "certified: non-contradiction\n" in text


@pytest.mark.parametrize("command", ["reduce", "verify-reduction"])
def test_reduce_honours_a_relational_vocabulary(tmp_path, command):
    vocab = tmp_path / "rel.voc"
    vocab.write_text("relational\npred R/2\n")
    argv = [command, "--vocab", str(vocab), "--chain", "luk:2"]
    code, text = run(argv + ["--formula", "forall x. exists y. R(x, y)"])
    assert code == 1
    assert text.startswith("error: Skolemizing 'exists y' under universals ['x'] needs a function")
    assert text.count("\n") == 1
    text = ok(argv + ["--formula", "exists y. forall x. R(x, y)"])
    assert "star-output: forall x. (R(x, sk_0) & R(x, sk_0))\n" in text
    if command == "reduce":
        assert "fresh-constants: sk_0\n" in text


@pytest.mark.parametrize("command, formula, message", [
    ("reduce", "P(x)", "reduction input must be a sentence"),
    ("bsr", "exists y. R(x, y)", "Bernays-Schonfinkel decider needs a sentence"),
])
def test_a_free_variable_is_refused(tmp_path, command, formula, message):
    vocab = tmp_path / "v.voc"
    vocab.write_text("pred P/1\npred R/2\n")
    assert run([command, "--vocab", str(vocab), "--formula", formula]) == (1, f"error: {message}\n")


STAGES = {"formula", "input", "negation-nnf", "herbrand-form", "purely-universal",
          "lattice-matrix", "star-output"}


def _stages_parse_back(text):
    # x = parse(value) prints as value, so parse(format_formula(x)) == x
    for line in text.splitlines():
        key, _, value = line.partition(": ")
        if key in STAGES:
            assert format_formula(parse(value)) == value


def test_a_renamed_binder_skips_a_constant_of_the_input():
    formula = "(forall x. P(x)) /\\ forall x. Q(x, x_1)"
    text = ok(["parse", "--formula", formula])
    assert text == (
        "formula: forall x. P(x) /\\ forall x_2. Q(x_2, x_1)\n"
        "sentence: True\nliteral: False\nlattice-literal-combination: False\n"
        "purely-universal: False\nrelational: True\n")
    _stages_parse_back(text)
    text = ok(["reduce", "--formula", formula])
    assert text == (
        "input: forall x. P(x) /\\ forall x_2. Q(x_2, x_1)\n"
        "negation-nnf: exists x. ~P(x) \\/ exists x_2. ~Q(x_2, x_1)\n"
        "herbrand-form: exists x. exists x_2. (~P(x) \\/ ~Q(x_2, x_1))\n"
        "purely-universal: forall x. forall x_2. (P(x) /\\ Q(x_2, x_1))\n"
        "lattice-matrix: forall x. forall x_2. (P(x) /\\ Q(x_2, x_1))\n"
        "star-output: forall x. forall x_2. (P(x) & P(x) /\\ Q(x_2, x_1) & Q(x_2, x_1))\n")
    _stages_parse_back(text)


def test_a_skolem_constant_skips_a_bound_variable():
    text = ok(["reduce", "--formula", "exists y. forall sk_0. (R(y, sk_0) /\\ ~R(sk_0, y))"])
    assert text == (
        "input: exists y. forall sk_0. (R(y, sk_0) /\\ ~R(sk_0, y))\n"
        "negation-nnf: forall y. exists sk_0. (~R(y, sk_0) \\/ R(sk_0, y))\n"
        "herbrand-form: exists sk_0. (~R(sk_1, sk_0) \\/ R(sk_0, sk_1))\n"
        "purely-universal: forall sk_0. (R(sk_1, sk_0) /\\ ~R(sk_0, sk_1))\n"
        "lattice-matrix: forall sk_0. (R(sk_1, sk_0) /\\ ~R(sk_0, sk_1))\n"
        "star-output: forall sk_0. (R(sk_1, sk_0) & R(sk_1, sk_0) /\\ "
        "~R(sk_0, sk_1) & ~R(sk_0, sk_1))\n"
        "fresh-constants: sk_1\n")
    _stages_parse_back(text)


def test_the_herbrand_constant_skips_a_function_named_c0():
    assert ok(["herbrand", "--formula", "forall x. P(c0(x))", "--depth", "1"]) == (
        "depth: 1\ncount: 2\nterms:\n  c1\n  c0(c1)\n")
    text = ok(["reduce", "--verify", "--chain", "luk:3",
               "--formula", "forall x. (P(c0(x)) /\\ ~P(x))"])
    assert text == (
        "input: forall x. (P(c0(x)) /\\ ~P(x))\n"
        "negation-nnf: exists x. (~P(c0(x)) \\/ P(x))\n"
        "herbrand-form: exists x. (~P(c0(x)) \\/ P(x))\n"
        "purely-universal: forall x. (P(c0(x)) /\\ ~P(x))\n"
        "lattice-matrix: forall x. (P(c0(x)) /\\ ~P(x))\n"
        "star-output: forall x. (P(c0(x)) & P(c0(x)) /\\ ~P(x) & ~P(x))\n"
        "certified: contradiction\n"
        "certificate: Herbrand witness with 2 instances at depth 1\n"
        "check [herbrand witness is a propositional contradiction]: "
        "pass (2 instances at depth 1)\n"
        "check [star output is the star of a lattice-literal matrix]: "
        "pass (star_translate of the lattice matrix)\n"
        "check [square-meet law a^2 /\\ (~a)^2 = 0 on every chain]: "
        "pass (3 ranks on 1 chains)\n"
        "consistent: True\n")
    _stages_parse_back(text)


def test_eval_reads_the_vocabulary_once(tmp_path, monkeypatch):
    from fuzzyfo import syntax
    vocab = tmp_path / "v.voc"
    vocab.write_text("pred P/1\nconst c\n")
    structure = tmp_path / "m.struct"
    structure.write_text("domain 1\nconst c = 0\npred P : #2\n")
    calls = []
    parse_vocabulary = syntax.parse_vocabulary
    monkeypatch.setattr(syntax, "parse_vocabulary",
                        lambda text: calls.append(text) or parse_vocabulary(text))
    text = ok(["eval", "--vocab", str(vocab), "--formula", "P(c)", "--chain", "luk:3",
               "--structure", str(structure)])
    assert "value: 2" in text
    assert len(calls) == 1


def test_bsr_command():
    text = ok(["bsr", "--formula", "exists x. forall y. (P(x) /\\ ~P(y))"])
    assert "decided: False" in text


def test_bsr_reads_a_prefix_that_is_not_spelled_first():
    assert run(["bsr", "--formula", "(exists x. P(x)) /\\ forall y. ~P(y)"]) == (0, (
        "formula: exists x. P(x) /\\ forall y. ~P(y)\n"
        "outcome: decided\n"
        "decided: False\n"
        "reason: unsatisfiable at the Bernays-Schonfinkel bound 1\n"
        "bounds: single domain size 1\n"))


def test_bsr_refuses_an_exists_under_a_forall():
    assert run(["bsr", "--formula", "forall x. exists y. R(x, y)"]) == (1, (
        "error: not a Bernays-Schonfinkel sentence: an exists under a forall\n"))


@pytest.mark.parametrize("formula, contradiction", [
    ("0", True), ("1", False), ("P(c) /\\ 0", True), ("forall x. (P(x) -> 1)", False),
    ("forall x. (P(x) /\\ 0)", True), ("exists x. (P(x) \\/ 1)", False)])
@pytest.mark.parametrize("chain", ["enum:3", "luk:4"])
def test_reduce_verifies_truth_constants(formula, contradiction, chain):
    # 0 and 1 are their own squares, so the star keeps them
    text = ok(["reduce", "--formula", formula, "--verify", "--chain", chain])
    kind = "contradiction" if contradiction else "non-contradiction"
    assert f"certified: {kind}\n" in text and "consistent: True\n" in text


@pytest.mark.parametrize("formula", ["0", "1", "P(c) /\\ 0", "~P(c) \\/ 1"])
def test_truth_constants_are_lattice_literal_combinations(formula):
    assert "lattice-literal-combination: True\n" in ok(["parse", "--formula", formula])


def test_reduce_with_verification():
    text = ok(["reduce", "--formula", "exists x. (P(x) /\\ ~P(x))",
               "--verify", "--chain", "enum:4"])
    assert "certified: contradiction" in text
    assert "consistent: True" in text


def test_verify_reduction_command():
    text = ok(["verify-reduction", "--formula", "forall x. P(x)", "--chain", "luk:3"])
    assert "certified: non-contradiction" in text


def test_enum_chains_command():
    text = ok(["enum-chains", "--size", "3"])
    assert "count: 2" in text


def test_check_lemma1_command():
    text = ok(["check-lemma1", "--enum", "5"])
    assert "result: all chains pass" in text
    assert "chains-checked: 53" in text  # 1+2+6+22 enumerated + 2*11 named


def test_phi_report_command():
    text = ok(["phi-report", "--max-k", "3"])
    assert "k=2: 3 0" in text
    assert "k=3: 7 1/2" in text


def test_phi_report_up_to_the_cap():
    text = ok(["phi-report", "--max-k", "64"])
    assert "k=64: 18446744073709551615 61/63" in text
    code, text = run(["phi-report", "--max-k", "65"])
    assert code == 1
    assert text == "error: max_k 65 above cap 64\n"


def test_phi_witness_command():
    text = ok(["phi-witness", "--n", "5"])
    assert "N=5: 31/32" in text


def test_records_format():
    text = ok(["--format", "records", "phi-witness", "--n", "2"])
    assert all(":" in line for line in text.strip().splitlines())


def test_unknown_flag_exit_1():
    code, text = run(["parse", "--wibble"])
    assert code == 1
    assert "error:" in text


def test_unreadable_file_exit_1():
    code, text = run(["parse", "--formula-file", "/nonexistent/file.fof"])
    assert code == 1


def test_budget_refusal_exit_1():
    os.environ["FUZZYFO_BUDGET"] = "2"
    try:
        code, text = run(["decide", "--set", "taut0", "--chain", "luk:3",
                          "--max-domain", "2", "--formula", PHI])
    finally:
        del os.environ["FUZZYFO_BUDGET"]
    assert code == 1
    assert "exceeds budget" in text


def test_output_file(tmp_path):
    out = tmp_path / "report.txt"
    code, text = run(["--output", str(out), "enum-chains", "--size", "2"])
    assert code == 0 and text == ""
    assert "count: 1" in out.read_text()


DETERMINISM_COMMANDS = [
    ["parse", "--formula", PHI],
    ["decide", "--set", "satpos", "--chain", "luk:3", "--max-domain", "2", "--formula", PHI],
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
]


@pytest.mark.parametrize("argv", DETERMINISM_COMMANDS, ids=lambda a: a[0])
def test_byte_identical_reports(argv):
    first = run(argv)
    second = run(argv)
    assert first == second
    assert first[0] == 0


def test_parser_is_built_once_and_keeps_no_state_between_runs():
    assert build_parser() is build_parser()
    ok(["decide", "--set", "satpos", "--chain", "luk:3", "--max-domain", "1",
        "--formula", "P(c)"])
    code, text = run(["decide", "--set", "satpos", "--max-domain", "1", "--formula", "P(c)"])
    assert code == 1
    assert text == "error: provide at least one --chain spec\n"


def _eval_struct(tmp_path, struct_text, formula):
    structure = tmp_path / "m.struct"
    structure.write_text(struct_text)
    return run(["eval", "--formula", formula, "--chain", "luk:3", "--structure", str(structure)])


def test_eval_rejects_rank_outside_chain(tmp_path):
    code, text = _eval_struct(tmp_path, "domain 1\nconst c = 0\npred P : #7\n", "P(c)")
    assert code == 1
    assert text == "error: pred P: value #7 is not a rank #0..#2 of the size-3 chain\n"


def test_eval_rejects_rank_outside_chain_under_tnorm(tmp_path):
    code, text = _eval_struct(tmp_path, "domain 1\nconst c = 0\npred P : #7\n", "P(c) & P(c)")
    assert code == 1
    assert text == "error: pred P: value #7 is not a rank #0..#2 of the size-3 chain\n"


def test_eval_pred_line_trailing_comment(tmp_path):
    code, text = _eval_struct(tmp_path, "domain 1\nconst c = 0\npred P : #1   # one half\n",
                              "P(c) & P(c)")
    assert code == 0, text
    assert "value: 0" in text


def test_eval_rejects_other_values_outside_domain_or_chain(tmp_path):
    cases = [
        ("domain 2\nconst c = 2\npred P : #1 #0\n", "const c = 2 is outside the domain 0..1"),
        ("domain 1\nconst c = 0\nfun f : 3\npred P : #1\n", "fun f: value 3"),
        ("domain 1\nconst c = 0\npred P : 1/2\n", "pred P: value 1/2 is not a rank"),
        ("domain 1\nconst c = 0\npred P : 1/0\n", "zero denominator"),
        ("domain 0\npred P : #1\n", "domain size must be at least 1"),
    ]
    for struct_text, message in cases:
        code, text = _eval_struct(tmp_path, struct_text, "P(f(c))" if "fun" in struct_text
                                  else "P(c)")
        assert code == 1, struct_text
        assert text.startswith("error: ") and message in text and text.count("\n") == 1


@pytest.mark.parametrize("struct_text, message", [
    ("domain 1\nconst c = 0\npred P : 1/2/3\n", "line 3: pred P: bad value '1/2/3'"),
    ("domain 1\nconst c = x\npred P : #1\n", "line 2: const c: bad value 'x'"),
    ("domain 1\nconst c = 0\npred P : #x\n", "line 3: pred P: bad value '#x'"),
    ("domain 1\nconst c = 0\nfun f : a\npred P : #1\n", "line 3: fun f: bad value 'a'"),
    ("domain x\nconst c = 0\npred P : #1\n", "line 1: domain: bad value 'x'"),
    ("domain 1\nconst c = 0\npred P : 1/0\n", "line 3: pred P: bad value '1/0': zero denominator"),
    ("domain 1\nconst c 0\npred P : #1\n", "line 2: expected 'const <name> = <element>'"),
    ("domain 1\nconst c = 0\npred : #1\n", "line 3: expected 'pred <name> : <values>'"),
    # integers are ASCII decimal: \u0662 and \u0661 are ARABIC-INDIC DIGITS TWO and ONE
    ("domain \u0662\npred P : #1 #1\n", "line 1: domain: bad value '\u0662'"),
    ("domain 2\nconst c = 1_0\npred P : #1 #1\n", "line 2: const c: bad value '1_0'"),
    ("domain 2\nconst c = 0\npred P : #\u0662 #1\n", "line 3: pred P: bad value '#\u0662'"),
    ("domain 2\nconst c = 0\npred P : +1 1\n", "line 3: pred P: bad value '+1'"),
    ("domain 2\nconst c = 0\nfun f : \u0661 0\npred P : #1 #1\n",
     "line 3: fun f: bad value '\u0661'"),
])
def test_eval_names_the_line_and_symbol_of_a_bad_token(tmp_path, struct_text, message):
    code, text = _eval_struct(tmp_path, struct_text, "P(f(c))" if "fun" in struct_text else "P(c)")
    assert (code, text) == (1, f"error: {message}\n")


@pytest.mark.parametrize("struct_text, message", [
    ("domain 1\nconst c = 0\npred P : #1\ndomain 2\n",
     "line 4: domain is already declared on line 1"),
    ("domain 2\nconst c = 0\nconst c = 1\npred P : #1 #2\n",
     "line 3: const c is already declared on line 2"),
    ("domain 2\nconst c = 0\nfun f : 1 0\nfun f : 0 0\npred P : #1 #2\n",
     "line 4: fun f is already declared on line 3"),
    ("domain 2\nconst c = 0\npred P : #1 #1\npred P : #2 #2\n",
     "line 4: pred P is already declared on line 3"),
])
def test_eval_rejects_a_repeated_declaration(tmp_path, struct_text, message):
    code, text = _eval_struct(tmp_path, struct_text, "P(f(c))" if "fun" in struct_text else "P(c)")
    assert (code, text) == (1, f"error: {message}\n")


def test_eval_uses_formula_arity_on_singleton_domain(tmp_path):
    code, text = _eval_struct(tmp_path, "domain 1\nconst c = 0\npred R : #2\n", "R(c, c)")
    assert code == 0, text
    assert "value: 2" in text


def test_deep_negation_is_a_parse_error():
    code, text = run(["bsr", "--formula", "~" * 3000 + "P(c)"])
    assert code == 1
    assert text == "error: nesting deeper than 100 levels at position 100\n"


def test_deep_parentheses_are_a_parse_error():
    code, text = run(["bsr", "--formula", "(" * 600 + "P(c)" + ")" * 600])
    assert code == 1
    assert text == "error: nesting deeper than 100 levels at position 100\n"


def test_long_chains_are_a_parse_error():
    for op in (" /\\ ", " -> ", " <-> "):
        code, text = run(["parse", "--formula", op.join(["P"] * 101)])
        assert code == 1 and text.startswith("error: nesting deeper than 100 levels")
        assert text.count("\n") == 1


def test_nesting_at_the_limit_runs_every_transform():
    text = ok(["bsr", "--formula", "~" * 98 + "P(c)"])
    assert "decided: True" in text
    ok(["reduce", "--verify", "--chain", "luk:3", "--formula",
        "(" * 100 + " /\\ ".join(["P(c)"] * 99) + ")" * 100])


def test_other_exceptions_are_internal_errors(monkeypatch):
    from fuzzyfo import decision

    def broken(phi, budget):
        raise KeyError("boom")

    monkeypatch.setattr(decision, "bsr_decide", broken)
    assert run(["bsr", "--formula", "P(c)"]) == (2, "internal error: KeyError: 'boom'\n")

    class Stop(BaseException):
        pass

    def stopped(phi, budget):
        raise Stop()

    monkeypatch.setattr(decision, "bsr_decide", stopped)
    with pytest.raises(Stop):
        run(["bsr", "--formula", "P(c)"])


def test_inconsistent_verification_exits_2_on_one_line(monkeypatch):
    from fuzzyfo import reduction

    monkeypatch.setattr(reduction, "check_square_meet_law", lambda chain: 1)
    code, text = run(["reduce", "--formula", "exists x. (P(x) /\\ ~P(x))", "--verify",
                      "--chain", "luk:3"])
    assert code == 2
    assert text == (
        "internal consistency failure: certificate 'Bernays-Schonfinkel: unsatisfiable at "
        "the Bernays-Schonfinkel bound 1' failed check [square-meet law a^2 /\\ (~a)^2 = 0 "
        "on every chain] (fails at rank 1 of chain 0 (size 3))\n")


def test_uncertifiable_input_exits_1_naming_the_bounds():
    # a B2 model needs domain 3 and the Herbrand search finds no witness to
    # depth 2: an honest "unknown within these bounds", not a defect
    argv = ["verify-reduction", "--formula", "forall x. exists y. (R(x,y) /\\ ~R(y,x))",
            "--chain", "luk:3"]
    assert run(argv) == (1, (
        "error: cannot certify the input either way within bounds: Herbrand search exhausted "
        "at term depth 0..2 and no B2 model with domain <= 2 "
        "(raise them with --max-depth and --max-domain)\n"))
    assert "certified: non-contradiction\n" in ok(argv + ["--max-domain", "3"])


def test_uncertifiable_relational_input_names_only_the_domain_bound(monkeypatch):
    # depth 0 decides a relational input, so no --max-depth can help; its 4
    # table entries exceed the budget 3, and a and b need domain 2
    monkeypatch.setenv("FUZZYFO_BUDGET", "3")
    assert run(["verify-reduction", "--formula", "R(a, b) /\\ ~R(b, a)", "--chain", "luk:3",
                "--max-domain", "1"]) == (1, (
        "error: cannot certify the input either way within bounds: Herbrand search decided "
        "at single domain size 2 (Bernays-Schonfinkel: satisfiable at the Bernays-Schonfinkel "
        "bound 2) and no B2 model with domain <= 1 (raise it with --max-domain)\n"))


@pytest.mark.parametrize("command", [["verify-reduction"], ["reduce", "--verify"]],
                         ids=lambda argv: argv[0])
def test_model_above_max_domain_certifies_a_non_contradiction(command):
    # the B2 model sits at the Bernays-Schonfinkel bound 2, above --max-domain 1
    text = ok(command + ["--formula", "P(a) /\\ ~P(b)", "--chain", "luk:3", "--max-domain", "1"])
    assert text.endswith(
        "certified: non-contradiction\n"
        "certificate: Bernays-Schonfinkel: satisfiable at the Bernays-Schonfinkel bound 2\n"
        "check [B2 model of the purely universal form exists]: pass (domain 2)\n"
        "check [lifted model gives star output top value on size-3 chain]: pass (value 2)\n"
        "consistent: True\n")


@pytest.mark.parametrize("spec", ["luk:2049", "godel:2049", "luk:1000000000"])
def test_named_chain_sizes_above_the_cap_exit_1(spec):
    code, text = run(["decide", "--set", "sat1", "--chain", spec, "--formula", "P(c)"])
    assert code == 1
    assert text == (f"error: size violated at ({spec.split(':')[1]},): "
                    f"named chains are capped at 2048 elements\n")


@pytest.mark.parametrize("argv, bound", [
    (["decide", "--set", "satpos", "--formula", "P(c)"], "0"),
    (["decide", "--set", "tautlt1", "--formula", "1"], "-2"),
    (["decide", "--set", "taut0", "--formula", "0"], "0"),
    (["reduce", "--verify", "--formula", "P(c) /\\ ~P(c)"], "-1"),
    (["verify-reduction", "--formula", "P(c)"], "0"),
], ids=["decide", "decide-settled-top", "decide-settled-bottom", "reduce", "verify-reduction"])
def test_max_domain_below_1_exit_1(argv, bound):
    code, text = run(argv + ["--chain", "luk:3", "--max-domain", bound])
    assert (code, text) == (1, f"error: max domain must be at least 1, got {bound}\n")


@pytest.mark.parametrize("command", [
    ["decide", "--set", "satpos", "--formula", "P(c)"],
    ["reduce", "--verify", "--formula", "P(c) /\\ ~P(c)"],
    ["verify-reduction", "--formula", "P(c)"],
], ids=lambda argv: argv[0])
@pytest.mark.parametrize("size", ["0", "1", "-3"])
def test_enum_chain_spec_below_size_2_exit_1(command, size):
    code, text = run(command + ["--chain", f"enum:{size}"])
    assert (code, text) == (1, f"error: size {size} below minimum 2\n")
    assert run(["enum-chains", "--size", "1"]) == (1, "error: size 1 below minimum 2\n")


@pytest.mark.parametrize("spec", [
    "luk:abc", "luk:", "enum:x", "godel:3.5", "luk:3,luk:4", "luk: 3", "luk:\u0663", "luk",
])
def test_chain_spec_size_must_be_a_decimal_integer(spec):
    # \u0663 is ARABIC-INDIC DIGIT THREE, which int() would read as 3
    code, text = run(["decide", "--set", "satpos", "--formula", "P(c)", "--chain", spec])
    assert (code, text) == (1, f"error: chain spec {spec!r}: size must be a decimal integer\n")


@pytest.mark.parametrize("n", ["0", "-1", "-7"])
def test_phi_witness_below_1_exit_1(n):
    assert run(["phi-witness", "--n", n]) == (1, f"error: n {n} below minimum 1\n")


def test_phi_witness_honours_the_budget(monkeypatch):
    # rows 1..n walk Phi's body for at most sum N^2 = n(n+1)(2n+1)/6 pairs
    monkeypatch.setenv("FUZZYFO_BUDGET", "55")
    assert "N=5: 31/32" in ok(["phi-witness", "--n", "5"])
    assert run(["phi-witness", "--n", "6"]) == (
        1, "error: search space of 91 Phi body evaluations exceeds budget 55\n")
    # the default budget of 10^7 stops at n = 311, before any row is computed
    monkeypatch.delenv("FUZZYFO_BUDGET")
    start = time.perf_counter()
    assert run(["phi-witness", "--n", "311"]) == (
        1, "error: search space of 10075156 Phi body evaluations exceeds budget 10000000\n")
    assert time.perf_counter() - start < 1


@pytest.mark.parametrize("max_k", ["1", "0", "-1"])
def test_phi_report_below_2_exit_1(max_k):
    assert run(["phi-report", "--max-k", max_k]) == \
        (1, f"error: max_k {max_k} below minimum 2\n")


def test_check_lemma1_above_the_named_cap_exits_before_building():
    start = time.perf_counter()
    code, text = run(["check-lemma1", "--enum", "7", "--luk", "3000"])
    assert (code, text) == (1, "error: --luk 3000 above the named-chain cap 2048\n")
    assert time.perf_counter() - start < 0.5  # no chain enumerated or built


@pytest.mark.parametrize("argv", [["enum-chains", "--size", "8"], ["check-lemma1", "--enum", "8"]])
def test_chain_enumeration_above_the_fixed_cap_exits_1(argv):
    start = time.perf_counter()
    code, text = run(argv)
    assert (code, text) == (
        1, "error: size 8 above cap 7: the table space grows too fast to enumerate\n")
    assert time.perf_counter() - start < 0.5


@pytest.mark.parametrize("argv", [
    ["decide", "--set", "sat1", "--chain", "enum:8", "--formula", "P(c)"],
    ["check-lemma1", "--enum", "8", "--luk", "2"],
])
def test_chain_enumeration_above_the_cap_builds_no_table(monkeypatch, argv):
    # every size is checked before the smaller ones are enumerated
    built = []
    build = chains.make_chain_from_table
    monkeypatch.setattr(chains, "make_chain_from_table", lambda *a: built.append(a) or build(*a))
    assert run(argv) == (
        1, "error: size 8 above cap 7: the table space grows too fast to enumerate\n")
    assert built == []


@pytest.mark.parametrize("argv", [["enum-chains", "--size", "3"], ["check-lemma1"]])
def test_chain_enumeration_cap_is_not_an_option(argv):
    code, text = run(argv + ["--cap", "9"])
    assert code == 1
    assert "error: unrecognized arguments: --cap 9" in text


@pytest.mark.parametrize("size", [257, 300])
def test_chain_file_above_256_ranks_exit_1(tmp_path, size):
    # refused on the header line, before the rows are read
    path = tmp_path / "big.chain"
    path.write_text(f"chain {size}\n0 0\n")
    code, text = run(["decide", "--set", "sat1", "--formula", "P(c)",
                      "--chain", f"file:{path}"])
    assert (code, text) == (
        1, f"error: size violated at ({size},): table chains are capped at 256 ranks\n")


R_SENTENCE = ("exists x. (R(x,x) <-> ~R(x,x)) & "
              "forall x. exists y. (R(x,y) <-> (R(y,x) & R(y,x)))")


def test_r_sentence_search_to_domain_3_is_fast():
    # 4^9 structures at domain 3, searched chunk by chunk
    start = time.perf_counter()
    text = ok(["decide", "--set", "sat1", "--chain", "luk:4", "--max-domain", "3",
               "--formula", R_SENTENCE])
    assert time.perf_counter() - start < 0.5
    assert "outcome: exhausted\n" in text


def test_seven_atom_chain_contradiction_verifies_on_luk3():
    # the verifier proves the star output 0 through Lemma 1 instead of
    # searching its 3^7 + 3^14 structures to domain 2
    links = " /\\ ".join(f"(~P{i}(c) \\/ P{i + 1}(c))" for i in range(6))
    formula = f"P0(c) /\\ {links} /\\ ~P6(c)"
    start = time.perf_counter()
    text = ok(["reduce", "--verify", "--chain", "luk:3", "--formula", formula])
    assert time.perf_counter() - start < 3
    assert "certified: contradiction\n" in text
    assert text.endswith("consistent: True\n")


# -- structure files and chain specs through `eval` ---------------------------

EVAL_FORMULAS = [
    "P(c)", "P(c) & P(c)", "forall x. P(x)", "exists x. (P(x) -> P(f(x)))",
    "R(c, c)", "~P(f(c)) \\/ Q", "forall x. exists y. (R(x, y) <-> P(y))",
]
_odd_values = st.one_of(
    st.integers(-1, 20).map(lambda k: f"#{k}"),
    st.tuples(st.integers(-3, 5), st.integers(-2, 5)).map(lambda pq: f"{pq[0]}/{pq[1]}"),
    st.integers(-1, 4).map(str),
    st.sampled_from(["#", "#x", "x", "1/2/3", "0.5", "=", ":"]),
)
_garbage_lines = st.one_of(
    st.integers(-1, 3).map(lambda n: f"domain {n}"),
    st.tuples(st.sampled_from("cd"), st.integers(-1, 4)).map(lambda cv: f"const {cv[0]} = {cv[1]}"),
    st.lists(st.integers(-1, 4).map(str), max_size=9).map(lambda vs: "fun f : " + " ".join(vs)),
    st.tuples(st.sampled_from("PQR"), st.lists(_odd_values, max_size=9)).map(
        lambda pv: f"pred {pv[0]} : " + " ".join(pv[1])),
    st.text(alphabet="domainctfuprd #:=/-019", max_size=12),
)


@st.composite
def _structure_lines(draw):
    """Well-formed tables for the formulas' symbols, then at most one defect."""
    n = draw(st.integers(1, 3))

    def row(count, value):
        return " ".join(draw(st.lists(value, min_size=count, max_size=count)))
    element = st.integers(0, n - 1).map(str)
    rank = st.integers(0, 3).map(lambda k: f"#{k}")
    lines = [f"domain {n}", f"const c = {draw(element)}", f"fun f : {row(n, element)}",
             f"pred P : {row(n, rank)}", f"pred Q : {row(1, rank)}", f"pred R : {row(n * n, rank)}"]
    defect = draw(st.sampled_from(["none", "none", "drop", "value", "line"]))
    i = draw(st.integers(0, len(lines) - 1))
    if defect == "drop":
        del lines[i]
    elif defect == "value":
        head = lines[i].rpartition(" ")[0]
        lines[i] = f"{head} {draw(st.one_of(_odd_values, st.integers(-1, n + 1).map(str)))}"
    elif defect == "line":
        lines.insert(i, draw(_garbage_lines))
    return lines


_chain_specs = st.one_of(
    st.tuples(st.sampled_from(["luk", "godel"]), st.integers(2, 16)).map(
        lambda kk: f"{kk[0]}:{kk[1]}"),
    st.sampled_from([f"{kind}:{k}" for kind in ("luk", "godel") for k in (-3, -1, 0, 1, 2049, 10**9)]
                    + [f"enum:{k}" for k in range(-1, 5)]),
)


@settings(max_examples=300, deadline=None)
@given(st.one_of(_structure_lines(), st.lists(_garbage_lines, max_size=6)),
       st.sampled_from(EVAL_FORMULAS), _chain_specs)
def test_eval_answers_in_the_chain_or_fails_on_one_line(tmp_path_factory, lines, formula, spec):
    structure = tmp_path_factory.getbasetemp() / "fuzz.struct"
    structure.write_text("\n".join(lines) + "\n")
    code, text = run(["eval", "--formula", formula, "--chain", spec,
                      "--structure", str(structure)])
    assert code in (0, 1), text
    assert "Traceback" not in text
    if code == 1:
        assert text.startswith("error: ") and text.count("\n") == 1, text
    else:
        report = dict(line.split(": ", 1) for line in text.splitlines())
        assert 0 <= int(report["value"]) < int(report["chain-size"]), text


# -- the whole CLI under fuzzing ---------------------------------------------

PREDICATE_FREE = ["0", "1", "~0", "0 -> 1", "1 & 1", "forall x. 1", "exists x. (0 <-> ~1)"]
_fuzz_specs = st.one_of(
    st.tuples(st.sampled_from(["luk", "godel"]), st.integers(2, 20)).map(
        lambda kk: f"{kk[0]}:{kk[1]}"),
    st.integers(2, 4).map(lambda k: f"enum:{k}"),
    st.sampled_from(["luk:abc", "luk:", "godel:3.5", "luk:3,luk:4", "luk:1", "godel:-2",
                     "enum:1", "enum:x", "foo:3", "luk", "file:"]),
)


_formula_tokens = st.sampled_from([
    "forall", "exists", "x", "y", ".", "(", ")", ",", "~", "&", "/\\", "\\/", "->", "<->",
    "0", "1", "P", "Q", "R", "f", "g", "c", "d", "P(x)", "R(x, y)", "f(c)", "g(c, d)",
])
_stray = st.sampled_from(["$", "@", "#", "_", "'", "{", "\\", "/", "-", "<", ">", ":", "\t",
                          "\n", "\u0662", "\u00e9", "\x00", "9" * 5])
# names read as a function and as a constant: inferred parsing lets both through
_clashes = st.sampled_from(["P(f(c), f)", "P(f) /\\ Q(f(c))", "forall x. R(x, g) -> R(g(x, x), x)",
                            "exists y. P(c(y)) \\/ P(c)"])
_pieces = st.one_of(_formula_tokens, _formula_tokens, _stray, _clashes)


@st.composite
def _raw_formula(draw):
    """Formula text that need not parse: grammar tokens, stray characters and
    clashing names, strung together or spliced into a printed sentence."""
    if draw(st.booleans()):
        parts = draw(st.lists(_pieces, max_size=14))
        return "".join(part + draw(st.sampled_from(["", " "])) for part in parts)
    text = format_formula(draw(sentences()))
    for _ in range(draw(st.integers(0, 3))):
        i = draw(st.integers(0, len(text)))
        j = draw(st.integers(i, min(len(text), i + 3)))
        text = text[:i] + draw(st.one_of(_pieces, st.just(""))) + text[j:]
    return text


# integer options: small, on either side of the enumeration cap 7, of
# phi-report's cap 64 and of the named-chain cap 2048, negative and huge
_int_options = st.one_of(
    st.integers(-2, 9), st.sampled_from([1, 2, 7, 8, 64, 65, 2048, 2049]),
    st.integers(max_value=-1), st.integers(min_value=10 ** 6),
).map(str) | st.sampled_from(["9" * 4300, "9" * 4301])
_INT_COMMANDS = {"enum-chains": ["--size"], "check-lemma1": ["--enum", "--luk"],
                 "phi-report": ["--max-k"], "phi-witness": ["--n"]}


@st.composite
def _fuzz_argv(draw):
    """argv of decide, reduce --verify, verify-reduction, bsr, eval, parse,
    star, herbrand or one of the integer-option commands; eval's structure
    file text last."""
    text = draw(st.one_of(sentences().map(format_formula), st.sampled_from(PREDICATE_FREE),
                          _raw_formula()))
    spec = draw(_fuzz_specs)
    command = draw(st.sampled_from(["decide", "reduce", "verify-reduction", "bsr", "eval",
                                    "parse", "star", "herbrand", *_INT_COMMANDS]))
    if command in _INT_COMMANDS:
        argv = [command] + [arg for option in _INT_COMMANDS[command]
                            for arg in (option, draw(_int_options))]
        return argv + (["--tables"] if command == "enum-chains" and draw(st.booleans()) else []), None
    if command == "verify-reduction":
        return ["verify-reduction", "--chain", spec, "--max-domain", draw(_int_options),
                "--max-depth", draw(_int_options), "--formula", text], None
    if command == "decide":
        return ["decide", "--set", draw(st.sampled_from(["taut0", "satpos", "sat1", "tautlt1"])),
                "--chain", spec, "--max-domain", str(draw(st.integers(1, 3))),
                "--formula", text], None
    if command == "reduce":
        return ["reduce", "--verify", "--chain", spec, "--formula", text], None
    if command in ("bsr", "parse", "star"):
        return [command, "--formula", text], None
    if command == "herbrand":
        return ["herbrand", "--depth", str(draw(st.integers(0, 3))), "--formula", text], None
    return ["eval", "--chain", spec, "--formula", text], "\n".join(draw(_structure_lines())) + "\n"


@settings(max_examples=300, deadline=None)
@given(_fuzz_argv())
def test_cli_answers_in_the_chain_or_fails_on_one_line(tmp_path_factory, argv_and_structure):
    """Any command on any sentence, formula text and chain spec: exit 0 with
    every value inside the chain, or exit 1 with one `error:` line; never a
    traceback.  The budget bounds every search, so each example runs in well
    under a second."""
    argv, structure_text = argv_and_structure
    if structure_text is not None:
        structure = tmp_path_factory.getbasetemp() / "fuzz-cli.struct"
        structure.write_text(structure_text)
        argv = argv + ["--structure", str(structure)]
    out, err = io.StringIO(), io.StringIO()
    with pytest.MonkeyPatch.context() as mp, contextlib.redirect_stdout(out), \
            contextlib.redirect_stderr(err):
        mp.setenv("FUZZYFO_BUDGET", "20000")
        code = main(argv)
    out, err = out.getvalue(), err.getvalue()
    assert "Traceback" not in out + err
    assert code in (0, 1), (argv, err)
    if code == 1:
        assert out == "" and err.startswith("error: ") and err.count("\n") == 1, (argv, err)
    else:
        assert err == ""
        report = dict(line.split(": ", 1) for line in out.splitlines() if ": " in line)
        if "value" in report:
            assert 0 <= int(report["value"]) < int(report["chain-size"]), (argv, out)


# -- strict integer inputs -----------------------------------------------------

@pytest.mark.parametrize("argv, option, value", [
    (["decide", "--set", "sat1", "--formula", "P(c)", "--chain", "luk:3"], "--max-domain", "\u0662"),
    (["verify-reduction", "--formula", "P(c)", "--chain", "luk:3"], "--max-depth", " 2"),
    (["herbrand", "--formula", "P(f(c))"], "--depth", "1_0"),
    (["enum-chains"], "--size", "+3"),
    (["check-lemma1"], "--enum", "3.0"),
    (["check-lemma1"], "--luk", "\uff14"),
    (["phi-report"], "--max-k", "0x8"),
    (["phi-witness"], "--n", ""),
], ids=lambda v: v if isinstance(v, str) and v.startswith("--") else None)
def test_integer_options_are_ascii_decimal(argv, option, value):
    # \u0662 is ARABIC-INDIC DIGIT TWO and \uff14 FULLWIDTH DIGIT FOUR, which int() reads
    assert run(argv + [option, value]) == (
        1, f"error: argument {option}: {value!r} is not a decimal integer\n")


def test_integer_option_longer_than_the_digit_cap_exit_1():
    code, text = run(["phi-witness", "--n", "1" * 5000])
    assert (code, text) == (1, "error: argument --n: 5000 digits, above the cap of 4300\n")


@pytest.mark.parametrize("raw, message", [
    (" \u0665 ", "FUZZYFO_BUDGET: ' \u0665 ' is not a decimal integer"),
    ("1e6", "FUZZYFO_BUDGET: '1e6' is not a decimal integer"),
    ("-5", "FUZZYFO_BUDGET must be at least 1, got '-5'"),
    ("0", "FUZZYFO_BUDGET must be at least 1, got '0'"),
], ids=["arabic-indic", "float", "negative", "zero"])
def test_budget_is_a_positive_ascii_decimal(monkeypatch, raw, message):
    monkeypatch.setenv("FUZZYFO_BUDGET", raw)
    assert run(["decide", "--set", "satpos", "--formula", "P(c)", "--chain", "luk:3"]) == (
        1, f"error: {message}\n")


@pytest.mark.parametrize("kind, cap", [("luk", 2048), ("godel", 2048), ("enum", 7)])
def test_chain_spec_size_past_the_digit_cap_names_spec_and_cap(kind, cap):
    # int() itself refuses more than 4300 digits, with a message naming neither
    code, text = run(["decide", "--set", "satpos", "--formula", "P(c)",
                      "--chain", f"{kind}:{'1' * 5000}"])
    assert (code, text) == (
        1, f"error: chain spec '{kind}:111111111111...': its 5000-digit size is outside 2..{cap}\n")


# \u0662 and \u0661 are ARABIC-INDIC DIGITS TWO and ONE, which int() reads
@pytest.mark.parametrize("chain_text, message", [
    ("chain \u0662\n0 0\n0 1\n", "chain file must start with 'chain <size>'"),
    ("chain 1_0\n", "chain file must start with 'chain <size>'"),
    ("chain 2\n0 0\n0 \u0661\n", "bad table row: '0 \u0661'"),
])
def test_chain_file_integers_are_ascii_decimal(tmp_path, chain_text, message):
    path = tmp_path / "x.chain"
    path.write_text(chain_text)
    assert run(["decide", "--set", "sat1", "--formula", "P(c)", "--chain", f"file:{path}"]) == (
        1, f"error: {message}\n")


@pytest.mark.parametrize("vocab_text, line", [
    ("pred P/\u0661\n", "line 1: cannot parse 'pred P/\u0661'"),
    ("pred P/1\nfun f/\u0661\n", "line 2: cannot parse 'fun f/\u0661'"),
])
def test_vocabulary_file_arities_are_ascii_decimal(tmp_path, vocab_text, line):
    path = tmp_path / "x.vocab"
    path.write_text(vocab_text)
    assert run(["parse", "--formula", "P(c)", "--vocab", str(path)]) == (1, f"error: {line}\n")


def test_eval_prices_the_walk_against_the_budget(tmp_path, monkeypatch):
    # domain 11 and two nested quantifiers: 121 assignments
    monkeypatch.setenv("FUZZYFO_BUDGET", "100")
    assert _eval_struct(tmp_path, "domain 11\npred Q : #1\n", "forall x. forall y. Q") == (
        1, "error: search space of 121 assignments at quantifier depth 2 exceeds budget 100\n")
    assert _eval_struct(tmp_path, "domain 10\npred Q : #1\n", "forall x. forall y. Q") == (
        0, "formula: forall x. forall y. Q\nchain-size: 3\nvalue: 1\n")
    # a huge domain is refused at the first binder, before any power is built
    monkeypatch.delenv("FUZZYFO_BUDGET")
    start = time.perf_counter()
    code, text = _eval_struct(tmp_path, f"domain {10 ** 4000}\npred Q : #1\n",
                              "forall x. exists y. forall z. Q")
    assert time.perf_counter() - start < 0.5
    assert code == 1 and text.endswith(
        " assignments at quantifier depth 1 exceeds budget 10000000\n"), text


def test_counts_too_long_to_print_are_named_by_size(tmp_path):
    # str() refuses integers past 4,300 digits; the messages name their size
    assert run(["decide", "--set", "sat1", "--chain", "luk:2048", "--max-domain", "1",
                "--formula", balanced_join([f"P{i}" for i in range(1400)])]) == (
        1, "error: search space of about 10^4635 structures exceeds budget 10000000\n")
    vocab = tmp_path / "p2.voc"
    vocab.write_text("pred P/2\n")
    structure = tmp_path / "m.struct"
    structure.write_text(f"domain {10 ** 2999}\npred P : #1 #1 #1 #1\n")
    assert run(["eval", "--vocab", str(vocab), "--chain", "luk:3", "--formula", "P(x, x)",
                "--structure", str(structure)]) == (
        1, "error: pred P: expected about 10^5998 values, got 4\n")


def test_a_vocabulary_arity_is_refused_before_its_power_is_built(tmp_path):
    # 10^3000000 has a million decimal digits; a 2-value row cannot match it
    vocab = tmp_path / "big.voc"
    vocab.write_text("pred P/3000000\npred Q/0\n")
    structure = tmp_path / "m.struct"
    structure.write_text("domain 10\npred P : #0 #1\npred Q : #1\n")
    start = time.perf_counter()
    assert run(["eval", "--vocab", str(vocab), "--chain", "luk:3", "--formula", "Q",
                "--structure", str(structure)]) == (
        1, "error: pred P: expected 10^3000000 values, got 2\n")
    assert time.perf_counter() - start < 0.1


def test_check_lemma1_prices_its_named_chains_before_building(monkeypatch):
    # sizes 2..500 would build two chains of two k x k tables each
    monkeypatch.setenv("FUZZYFO_BUDGET", "100")
    start = time.perf_counter()
    assert run(["check-lemma1", "--enum", "2", "--luk", "500"]) == (
        1, "error: search space of 167166996 chain table entries exceeds budget 100\n")
    assert time.perf_counter() - start < 0.1
    monkeypatch.delenv("FUZZYFO_BUDGET")
    assert "chains-checked: 79" in ok(["check-lemma1", "--enum", "2", "--luk", "40"])


@pytest.mark.parametrize("command", [
    ["parse"], ["bsr"], ["herbrand"], ["reduce"], ["decide", "--set", "sat1", "--chain", "luk:3"],
    ["star"],
], ids=lambda argv: argv[0])
def test_a_name_used_as_function_and_constant_is_refused(command):
    # inferred parsing reads `f(c)` as a function and a bare `f` as a constant
    assert run(command + ["--formula", "P(f(c), f)"]) == (
        1, "error: predicate/function/constant names must be disjoint\n")


# -- input files under fuzzing -------------------------------------------------

_odd_integers = st.sampled_from(["\u0662", "1_0", "+1", "-1", "00", "0x1", "\uff14", "1" * 5000])
_file_integers = st.one_of(st.integers(-1, 300).map(str), _odd_integers)


@st.composite
def _chain_file(draw):
    """A chain header and rows: a named chain's table, perhaps with one odd entry."""
    size = draw(st.integers(2, 5))
    rows = [[min(x, y) for y in range(size)] for x in range(size)]
    if draw(st.booleans()):
        rows[draw(st.integers(0, size - 1))][draw(st.integers(0, size - 1))] = draw(_file_integers)
    header = draw(st.one_of(st.just(str(size)), st.just(str(size)), _file_integers))
    lines = [f"chain {header}"]
    kept = draw(st.sampled_from([size, size, size - 1]))
    lines += [" ".join(map(str, row)) for row in rows[:kept]]
    return lines


@st.composite
def _vocab_lines(draw):
    """A vocabulary for the parse formulas, then perhaps an odd arity or line."""
    lines = ["pred P/1", "pred R/2", "fun f/1", "const c", "const d"]
    i = draw(st.integers(0, 2))
    defect = draw(st.sampled_from(["none", "arity", "line"]))
    if defect == "arity":
        lines[i] = f"{lines[i].partition('/')[0]}/{draw(_file_integers)}"
    elif defect == "line":
        lines.insert(i, draw(st.one_of(
            st.sampled_from(["relational", "# note", "pred P/1 # ok", "fun c/1", "pred/1"]),
            st.text(alphabet="predfunconstl /#0123\u0662_", max_size=12))))
    return lines


@st.composite
def _file_argv(draw):
    """argv of eval, decide --chain file: or parse --vocab, and the file's text."""
    command = draw(st.sampled_from(["eval", "decide", "parse"]))
    if command == "eval":
        lines = draw(_structure_lines())
        if draw(st.booleans()):
            i = draw(st.integers(0, len(lines) - 1))
            lines[i] = f"{lines[i].rpartition(' ')[0]} {draw(_file_integers)}"
        return ["eval", "--chain", "luk:4", "--formula", draw(st.sampled_from(EVAL_FORMULAS)),
                "--structure"], lines
    if command == "decide":
        return ["decide", "--set", draw(st.sampled_from(["taut0", "sat1"])), "--formula",
                "forall x. P(x)", "--chain"], draw(_chain_file())
    formula = draw(st.sampled_from(["P(c)", "forall x. R(x, f(x))", "P(f(c)) /\\ R(c, d)"]))
    return ["parse", "--formula", formula, "--vocab"], draw(_vocab_lines())


@settings(max_examples=300, deadline=None)
@given(_file_argv())
def test_input_files_answer_or_fail_on_one_line(tmp_path_factory, argv_and_lines):
    """Structure, chain and vocabulary files with odd integers: an answer, or
    one line of error; never a traceback."""
    argv, lines = argv_and_lines
    path = tmp_path_factory.getbasetemp() / "fuzz.input"
    path.write_text("\n".join(lines) + "\n")
    target = f"file:{path}" if argv[0] == "decide" else str(path)
    code, text = run(argv + [target])
    assert code in (0, 1, 2), text
    assert "Traceback" not in text
    if code:
        assert text.count("\n") == 1, (lines, text)
        assert text.startswith("error: " if code == 1 else "internal "), (lines, text)


# -- the verifier proves: contradiction families at any size ----------------------

CHAIN_30 = "P0(c) /\\ " + " /\\ ".join(
    f"(~P{i}(c) \\/ P{i + 1}(c))" for i in range(29)) + " /\\ ~P29(c)"
F_60 = "forall x. ((~P(x) \\/ P(f(x))) /\\ P(c) /\\ ~P(" + "f(" * 60 + "c" + ")" * 60 + "))"


@pytest.mark.parametrize("spec", ["luk:3", "enum:4", "luk:2048"])
@pytest.mark.parametrize("argv, certificate", [
    (["--formula", CHAIN_30],
     "Bernays-Schonfinkel: unsatisfiable at the Bernays-Schonfinkel bound 1"),
    (["--formula", F_60, "--max-depth", "60"], "Herbrand witness with 60 instances at depth 59"),
], ids=["30-atom-chain", "f60"])
def test_contradiction_families_verify_in_under_a_second(argv, certificate, spec):
    # the bounded searches the proof checks replace refused 8 atoms on luk:3
    # and n = 24 on luk:2 as over the budget
    start = time.perf_counter()
    text = ok(["reduce", "--verify", "--chain", spec] + argv)
    assert time.perf_counter() - start < 1
    assert f"certified: contradiction\ncertificate: {certificate}\n" in text
    assert text.endswith("consistent: True\n")
