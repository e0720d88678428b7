import pytest
from hypothesis import given, settings, strategies as st

from fuzzyfo.syntax import (
    Atom, BOTTOM, Biimpl, Const, Exists, Forall, FragmentError, Impl, Join,
    Meet, Neg, ParseError, StrongConj, TOP, TruthConst, Var, App, Vocabulary,
    VocabularyError, classical_nnf, classify, format_formula, format_term,
    free_vars, herbrand_universe, parse, parse_vocabulary, skolemize,
    split_universal_prefix, star_translate, substitute, vocabulary_of,
)

VOCAB = Vocabulary(
    predicates={"P": 1, "Q": 1, "R": 2},
    functions={"f": 1, "g": 2},
    constants=frozenset({"c", "d"}),
)

REL_VOCAB = Vocabulary(predicates={"P": 1, "R": 2}, constants=frozenset({"c"}), relational=True)


def test_parse_forall_meet_literal():
    phi = parse("forall x. (P(x) /\\ ~P(x))", VOCAB)
    assert phi == Forall("x", Meet(Atom("P", (Var("x"),)), Neg(Atom("P", (Var("x"),)))))


def test_parse_phi_shape():
    phi = parse("exists x. (P(x) <-> ~P(x)) & forall x. exists y. (P(x) <-> (P(y) & P(y)))",
                Vocabulary(predicates={"P": 1}))
    assert isinstance(phi, StrongConj)
    assert isinstance(phi.left, Exists)
    assert isinstance(phi.right, Forall)
    assert isinstance(phi.right.body, Exists)
    inner = phi.right.body.body
    assert isinstance(inner, Biimpl)
    assert isinstance(inner.right, StrongConj)


def test_parse_unbalanced_parenthesis():
    with pytest.raises(ParseError) as exc:
        parse("P(g(x,y)", VOCAB)
    assert "parenthesis" in str(exc.value)


def test_parse_errors():
    with pytest.raises(ParseError):
        parse("P(c, d)", VOCAB)  # arity mismatch
    with pytest.raises(ParseError):
        parse("S(c)", VOCAB)  # undeclared predicate
    with pytest.raises(ParseError):
        parse("P(f(c))", REL_VOCAB)  # function under relational flag


def test_parse_renames_bound_variables_apart():
    phi = parse("(forall x. P(x)) /\\ (forall x. Q(x))", VOCAB)
    assert phi.left.var == "x"
    assert phi.right.var == "x_1"


def test_precedence():
    phi = parse("P(c) & Q(c) \\/ P(d) -> Q(d)", VOCAB)
    assert isinstance(phi, Impl)
    assert isinstance(phi.left, Join)
    assert isinstance(phi.left.left, StrongConj)


def test_quantifier_scope_is_prefix_level():
    phi = parse("forall x. P(x) /\\ Q(c)", VOCAB)
    assert isinstance(phi, Meet)
    assert isinstance(phi.left, Forall)


def test_print_parse_round_trip_on_samples():
    samples = [
        "forall x. (P(x) /\\ ~P(x))",
        "exists x. (P(x) <-> ~P(x)) & forall x. exists y. (P(x) <-> (P(y) & P(y)))",
        "P(c) -> (Q(d) \\/ ~P(f(c)))",
        "forall x. exists y. (R(x, y) & ~R(y, x))",
        "(P(c) /\\ Q(c)) \\/ 0",
        "~(P(c) -> 1)",
    ]
    for text in samples:
        phi = parse(text, VOCAB)
        assert parse(format_formula(phi), VOCAB) == phi


@st.composite
def formulas(draw, depth=3):
    if depth == 0 or draw(st.booleans()):
        name = draw(st.sampled_from(["P", "Q"]))
        arg = draw(st.sampled_from([Const("c"), Const("d"), Var("u")]))
        return Atom(name, (arg,))
    kind = draw(st.sampled_from(["neg", "meet", "join", "impl", "biimpl", "sconj",
                                 "forall", "exists"]))
    if kind == "neg":
        return Neg(draw(formulas(depth=depth - 1)))
    if kind in ("forall", "exists"):
        body = draw(formulas(depth=depth - 1))
        cls = Forall if kind == "forall" else Exists
        return cls("u", body)
    left = draw(formulas(depth=depth - 1))
    right = draw(formulas(depth=depth - 1))
    cls = {"meet": Meet, "join": Join, "impl": Impl, "biimpl": Biimpl, "sconj": StrongConj}[kind]
    return cls(left, right)


@given(formulas())
def test_print_parse_round_trip_random(phi):
    from fuzzyfo.syntax import rename_apart
    phi = rename_apart(phi)
    assert parse(format_formula(phi), VOCAB) == phi


def test_star_translate_meet_of_literals():
    phi = parse("P(c) /\\ ~P(c)", VOCAB)
    starred = star_translate(phi)
    p = Atom("P", (Const("c"),))
    assert starred == Meet(StrongConj(p, p), StrongConj(Neg(p), Neg(p)))


def test_star_translate_under_quantifier():
    phi = parse("forall x. (P(x) \\/ ~Q(x))", VOCAB)
    starred = star_translate(phi)
    assert isinstance(starred, Forall)
    assert isinstance(starred.body, Join)
    assert isinstance(starred.body.left, StrongConj)


def test_star_translate_fragment_errors():
    with pytest.raises(FragmentError):
        star_translate(parse("~(P(c) /\\ Q(c))", VOCAB))
    with pytest.raises(FragmentError):
        star_translate(parse("P(c) -> Q(c)", VOCAB))
    with pytest.raises(FragmentError):
        star_translate(BOTTOM)  # truth constants are not literals here


@given(formulas())
def test_star_preserves_free_variables(phi):
    try:
        starred = star_translate(phi)
    except FragmentError:
        return
    assert free_vars(starred) == free_vars(phi)


def test_star_commutes_with_meet():
    left = parse("P(c)", VOCAB)
    right = parse("~Q(d)", VOCAB)
    assert star_translate(Meet(left, right)) == Meet(star_translate(left), star_translate(right))


def test_classify_examples():
    assert classify(parse("P(c) /\\ (~Q(c) \\/ P(c))", VOCAB)).is_lattice_literal_combination
    flags = classify(parse("forall x. forall y. (P(x) \\/ ~P(y))", VOCAB))
    assert flags.is_purely_universal and flags.is_relational
    flags = classify(parse("forall x. exists y. P(f(x))", VOCAB))
    assert not flags.is_purely_universal
    assert not flags.is_relational


def test_classical_nnf_examples():
    assert format_formula(classical_nnf(parse("~(P(c) /\\ Q(c))", VOCAB))) == "~P(c) \\/ ~Q(c)"
    assert format_formula(classical_nnf(parse("~(forall x. P(x))", VOCAB))) == "exists x. ~P(x)"
    assert format_formula(classical_nnf(parse("P(c) -> Q(c)", VOCAB))) == "~P(c) \\/ Q(c)"


def test_classical_nnf_quantifier_free_is_lattice_literal():
    for text in ["P(c) -> (Q(c) <-> ~P(d))", "~(P(c) & ~Q(c))", "~~P(c)"]:
        nnf = classical_nnf(parse(text, VOCAB))
        assert classify(nnf).is_lattice_literal_combination


def _fold(phi):
    if isinstance(phi, Meet):
        if phi.left == TOP:
            return phi.right
        if phi.right == TOP:
            return phi.left
        if BOTTOM in (phi.left, phi.right):
            return BOTTOM
    if isinstance(phi, Join):
        if phi.left == BOTTOM:
            return phi.right
        if phi.right == BOTTOM:
            return phi.left
        if TOP in (phi.left, phi.right):
            return TOP
    return phi


def nnf_reference(phi):
    """Classical NNF as the mirrored pos/neg pair (and the Meet/Join-mirrored
    folding of truth constants) that `classical_nnf` replaced."""

    def pos(phi):
        if isinstance(phi, (Atom, TruthConst)):
            return phi
        if isinstance(phi, Neg):
            return neg(phi.body)
        if isinstance(phi, (Meet, StrongConj)):
            return _fold(Meet(pos(phi.left), pos(phi.right)))
        if isinstance(phi, Join):
            return _fold(Join(pos(phi.left), pos(phi.right)))
        if isinstance(phi, Impl):
            return _fold(Join(neg(phi.left), pos(phi.right)))
        if isinstance(phi, Biimpl):
            return _fold(Meet(
                _fold(Join(neg(phi.left), pos(phi.right))),
                _fold(Join(neg(phi.right), pos(phi.left))),
            ))
        if isinstance(phi, Forall):
            return Forall(phi.var, pos(phi.body))
        return Exists(phi.var, pos(phi.body))

    def neg(phi):
        if isinstance(phi, Atom):
            return Neg(phi)
        if isinstance(phi, TruthConst):
            return BOTTOM if phi.top else TOP
        if isinstance(phi, Neg):
            return pos(phi.body)
        if isinstance(phi, (Meet, StrongConj)):
            return _fold(Join(neg(phi.left), neg(phi.right)))
        if isinstance(phi, Join):
            return _fold(Meet(neg(phi.left), neg(phi.right)))
        if isinstance(phi, Impl):
            return _fold(Meet(pos(phi.left), neg(phi.right)))
        if isinstance(phi, Biimpl):
            return _fold(Join(
                _fold(Meet(pos(phi.left), neg(phi.right))),
                _fold(Meet(pos(phi.right), neg(phi.left))),
            ))
        if isinstance(phi, Forall):
            return Exists(phi.var, neg(phi.body))
        return Forall(phi.var, neg(phi.body))

    return pos(phi)


nnf_inputs = st.recursive(
    st.sampled_from([Atom("P", (Var("u"),)), Atom("Q", (Const("c"),)), Atom("R", (Var("u"), Var("v"))),
                     TOP, BOTTOM]),
    lambda sub: st.one_of(
        sub.map(Neg),
        st.tuples(st.sampled_from([Forall, Exists]), st.sampled_from("uv"), sub).map(
            lambda t: t[0](t[1], t[2])),
        st.tuples(st.sampled_from([StrongConj, Meet, Join, Impl, Biimpl]), sub, sub).map(
            lambda t: t[0](t[1], t[2])),
    ),
    max_leaves=16,
)


@settings(max_examples=500)
@given(nnf_inputs)
def test_classical_nnf_is_the_pos_neg_pair(phi):
    assert classical_nnf(phi) == nnf_reference(phi)
    assert classical_nnf(Neg(phi)) == nnf_reference(Neg(phi))


def test_skolemize_forall_exists():
    phi = parse("forall x. exists y. R(x, y)", VOCAB)
    out, vocab = skolemize(phi, VOCAB)
    prefix, matrix = split_universal_prefix(out)
    assert prefix == ["x"]
    assert matrix == Atom("R", (Var("x"), App("sk_0", (Var("x"),))))
    assert vocab.functions["sk_0"] == 1


def test_skolemize_exists_to_constant():
    phi = parse("exists x. P(x)", VOCAB)
    out, vocab = skolemize(phi, VOCAB)
    assert out == Atom("P", (Const("sk_0"),))
    assert "sk_0" in vocab.constants


def test_skolemize_relational_violation():
    phi = parse("forall x. exists y. R(x, y)", REL_VOCAB)
    with pytest.raises(VocabularyError):
        skolemize(phi, REL_VOCAB)


def test_herbrand_universe_examples():
    v1 = Vocabulary(predicates={"P": 1}, constants=frozenset({"c"}))
    assert [format_term(t) for t in herbrand_universe(v1, 3)] == ["c"]
    v2 = v1.with_function("f", 1)
    assert [format_term(t) for t in herbrand_universe(v2, 2)] == ["c", "f(c)", "f(f(c))"]
    v3 = Vocabulary(predicates={"P": 1}, functions={"f": 1}, constants=frozenset({"c", "d"}))
    assert [format_term(t) for t in herbrand_universe(v3, 1)] == ["c", "d", "f(c)", "f(d)"]


def test_herbrand_universe_monotone_and_duplicate_free():
    v = Vocabulary(predicates={"P": 1}, functions={"f": 1, "g": 2}, constants=frozenset({"c"}))
    previous = []
    for d in range(3):
        terms = herbrand_universe(v, d)
        assert len(terms) == len(set(terms))
        assert terms[:len(previous)] == previous
        previous = terms


def test_herbrand_universe_adds_default_constant():
    v = Vocabulary(predicates={"P": 1}, functions={"f": 1})
    terms = herbrand_universe(v, 1)
    assert [format_term(t) for t in terms] == ["c0", "f(c0)"]


def test_vocabulary_file():
    vocab = parse_vocabulary("# demo\npred P/1\npred R/2\nfun f/1\nconst c\n")
    assert vocab.predicates == {"P": 1, "R": 2}
    assert vocab.functions == {"f": 1}
    assert vocab.constants == frozenset({"c"})
    rel = parse_vocabulary("pred P/1\nrelational\n")
    assert rel.relational
    with pytest.raises(VocabularyError):
        parse_vocabulary("pred P/1\nfun f/1\nrelational\n")
    with pytest.raises(VocabularyError):
        parse_vocabulary("predicate P 1\n")


def test_vocabulary_of():
    phi = parse("forall x. (R(x, f(c)) /\\ P(d))", VOCAB)
    vocab = vocabulary_of(phi)
    assert vocab.predicates == {"R": 2, "P": 1}
    assert vocab.functions == {"f": 1}
    assert vocab.constants == frozenset({"c", "d"})


def test_substitute_is_capture_free_on_renamed_input():
    phi = parse("forall x. R(x, y)", VOCAB)
    out = substitute(phi, {"y": Var("x_9")})
    assert out == Forall("x", Atom("R", (Var("x"), Var("x_9"))))
