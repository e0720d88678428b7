import os

import pytest
from hypothesis import given, settings, strategies as st

from fuzzyfo.cli import build_parser, run

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


def test_bsr_command():
    text = ok(["bsr", "--formula", "exists x. forall y. (P(x) /\\ ~P(y))"])
    assert "decided: False" in text


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
    from fuzzyfo.decision import Verdict

    monkeypatch.setattr(reduction, "taut0_bounded",
                        lambda K, phi, max_domain, budget: Verdict("refuted", value=1))
    code, text = run(["reduce", "--formula", "exists x. (P(x) /\\ ~P(x))", "--verify",
                      "--chain", "luk:3"])
    assert code == 2
    assert text == (
        "internal consistency failure: certificate 'Bernays-Schonfinkel: unsatisfiable at "
        "the Bernays-Schonfinkel bound 1' failed check [no TAUT0 refutation of the star "
        "output] (refuted)\n")


@pytest.mark.parametrize("spec", ["luk:2049", "godel:2049", "luk:1000000000"])
def test_named_chain_sizes_above_the_cap_exit_1(spec):
    code, text = run(["decide", "--set", "sat1", "--chain", spec, "--formula", "P(c)"])
    assert code == 1
    assert text == (f"error: size violated at ({spec.split(':')[1]},): "
                    f"named chains are capped at 2048 elements\n")


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
