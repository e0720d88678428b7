import itertools

import pytest
from hypothesis import assume, example, given, settings, strategies as st

from fuzzyfo import syntax
from fuzzyfo.syntax import (
    Atom, BOTTOM, Biimpl, Const, Exists, Forall, FragmentError, Impl, Join,
    Meet, Neg, ParseError, StrongConj, TOP, TruthConst, Var, App, Vocabulary,
    VocabularyError, MAX_NESTING, children, classical_nnf, ensure_constant,
    format_formula, format_term, free_vars, herbrand_levels, herbrand_universe,
    herbrand_universe_sizes, is_lattice_literal_combination, is_quantifier_free, is_sentence,
    parse, parse_vocabulary, prenex, pull_universals, rebuild, skolemize, star_translate,
    subformulas, substitute, vocabulary_of,
)

VOCAB = Vocabulary(
    predicates={"P": 1, "Q": 1, "R": 2},
    functions={"f": 1, "g": 2},
    constants=frozenset({"c", "d"}),
)

REL_VOCAB = Vocabulary(predicates={"P": 1, "R": 2}, constants=frozenset({"c"}), relational=True)
P_C = Atom("P", (Const("c"),))


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


@pytest.mark.parametrize("text, char, position", [("P(c)  $", "$", 4), ("P(\u00e9)", "\u00e9", 2)])
def test_unexpected_character_position(text, char, position):
    # the position is where the scan stopped: blanks before the character count
    with pytest.raises(ParseError) as exc:
        parse(text)
    assert str(exc.value) == f"unexpected character {char!r} at position {position}"
    assert exc.value.position == position


@pytest.mark.parametrize("text, vocab, message", [
    ("P(c) /\\ P(c, d)", None, "predicate P used with arities 1 and 2 at position 8"),
    ("Q /\\ Q(c)", None, "predicate Q used with arities 0 and 1 at position 5"),
    ("P(f(c)) \\/ P(f(c, d))", None, "function f used with arities 1 and 2 at position 13"),
    ("S(c)", VOCAB, "undeclared predicate S at position 0"),
    ("P(c, d)", VOCAB, "predicate P expects 1 arguments, got 2 at position 0"),
    ("Q(c) /\\ Q", VOCAB, "predicate Q expects 1 arguments, got 0 at position 8"),
    ("forall x. R(x, h(x))", VOCAB, "undeclared function h at position 15"),
    ("P(f(g(c)))", VOCAB, "function g expects 2 arguments, got 1 at position 4"),
    ("P(f(c))", REL_VOCAB, "function symbol f not permitted in relational vocabulary at position 2"),
    # the relational check comes before the declaration check
    ("P(h(c, c))", REL_VOCAB,
     "function symbol h not permitted in relational vocabulary at position 2"),
])
def test_arity_and_declaration_messages(text, vocab, message):
    # one check serves predicates and functions, inferred and declared
    with pytest.raises(ParseError) as exc:
        parse(text, vocab)
    assert str(exc.value) == message


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
def formulas(draw, depth=3, args=(Const("c"), Const("d"), Var("u"))):
    if depth == 0 or draw(st.booleans()):
        name = draw(st.sampled_from(["P", "Q"]))
        arg = draw(st.sampled_from(args))
        return Atom(name, (arg,))
    kind = draw(st.sampled_from(["neg", "meet", "join", "impl", "biimpl", "sconj",
                                 "forall", "exists"]))
    if kind == "neg":
        return Neg(draw(formulas(depth - 1, args)))
    if kind in ("forall", "exists"):
        body = draw(formulas(depth - 1, args))
        cls = Forall if kind == "forall" else Exists
        return cls("u", body)
    left = draw(formulas(depth - 1, args))
    right = draw(formulas(depth - 1, args))
    cls = {"meet": Meet, "join": Join, "impl": Impl, "biimpl": Biimpl, "sconj": StrongConj}[kind]
    return cls(left, right)


def rename_apart(phi):
    """The reference renamer, a second walk over a built formula: every binder
    distinct, in preorder, as x, x_1, x_2, .. past the free variables."""
    used: dict[str, int] = {}
    for v in free_vars(phi):
        used[v] = used.get(v, 0)

    def fresh(base: str) -> str:
        if base not in used:
            used[base] = 0
            return base
        while True:
            used[base] += 1
            cand = f"{base}_{used[base]}"
            if cand not in used:
                used[cand] = 0
                return cand

    def walk(phi, env: dict[str, str]):
        if isinstance(phi, Atom):
            return substitute(phi, {k: Var(v) for k, v in env.items()})
        if isinstance(phi, (Forall, Exists)):
            new = fresh(phi.var)
            return type(phi)(new, walk(phi.body, {**env, phi.var: new}))
        return rebuild(phi, lambda sub: walk(sub, env))

    return walk(phi, {})


@given(formulas())
def test_print_parse_round_trip_random(phi):
    phi = rename_apart(phi)
    assert parse(format_formula(phi), VOCAB) == phi


NODE_KINDS = [Atom, TruthConst, Neg, StrongConj, Meet, Join, Impl, Biimpl, Forall, Exists]
TERMS = [Const("c"), Var("u"), App("f", (Var("v"),)), App("g", (Const("d"), Var("u")))]


@st.composite
def rooted(draw, kind, depth=3):
    """A formula whose root node is of the given kind, with subformulas of any kind."""
    def sub():
        kinds = NODE_KINDS if depth > 1 else [Atom, TruthConst]
        return draw(rooted(draw(st.sampled_from(kinds)), depth - 1))
    if kind is Atom:
        return Atom(draw(st.sampled_from("PQ")), (draw(st.sampled_from(TERMS)),))
    if kind is TruthConst:
        return TruthConst(draw(st.booleans()))
    if kind is Neg:
        return Neg(sub())
    if kind in (Forall, Exists):
        return kind(draw(st.sampled_from("uv")), sub())
    return kind(sub(), sub())


PINNED_PREC = {Biimpl: 1, Impl: 2, Join: 3, Meet: 4, StrongConj: 5}
PINNED_TEXT = {Biimpl: "<->", Impl: "->", Join: "\\/", Meet: "/\\", StrongConj: "&"}


def pinned_format(phi):
    """The reference printer: literal tables, and a quantifier body of a binary
    node parenthesised by its own case."""
    def go(phi, parent_prec):
        if isinstance(phi, Atom):
            if phi.args:
                return f"{phi.pred}({', '.join(format_term(a) for a in phi.args)})"
            return phi.pred
        if isinstance(phi, TruthConst):
            return "1" if phi.top else "0"
        if isinstance(phi, Neg):
            return f"~{go(phi.body, 6)}"
        if isinstance(phi, (Forall, Exists)):
            q = "forall" if isinstance(phi, Forall) else "exists"
            if isinstance(phi.body, (Atom, TruthConst, Neg, Forall, Exists)):
                return f"{q} {phi.var}. {go(phi.body, 6)}"
            return f"{q} {phi.var}. ({go(phi.body, 0)})"
        prec = PINNED_PREC[type(phi)]
        if isinstance(phi, Impl):
            text = f"{go(phi.left, prec + 1)} {PINNED_TEXT[type(phi)]} {go(phi.right, prec)}"
        else:
            text = f"{go(phi.left, prec)} {PINNED_TEXT[type(phi)]} {go(phi.right, prec + 1)}"
        if prec < parent_prec:
            return f"({text})"
        return text

    return go(phi, 0)


@pytest.mark.parametrize("kind", NODE_KINDS, ids=lambda kind: kind.__name__)
@settings(max_examples=60)
@given(data=st.data())
def test_the_printer_matches_the_reference_printer(kind, data):
    body = data.draw(rooted(kind))
    for quantifier in (Forall, Exists):
        phi = quantifier("u", body)
        for psi in (body, phi, Neg(phi), Impl(phi, body), StrongConj(body, phi)):
            assert format_formula(psi) == pinned_format(psi)


@given(formulas().filter(is_sentence))
def test_parse_names_binders_like_the_reference_renamer(phi):
    assert parse(format_formula(phi), VOCAB) == rename_apart(phi)


# declares the names the renamer would give a second binder u
U_VOCAB = Vocabulary(predicates={"P": 1, "Q": 1}, constants=frozenset({"c", "u_1", "u_2"}))


@given(formulas(args=(Const("c"), Const("u_1"), Const("u_2"), Var("u"))))
def test_a_renamed_binder_skips_the_declared_constants(phi):
    p = parse(format_formula(phi), U_VOCAB)
    assert parse(format_formula(p), U_VOCAB) == p


def _round_trips(phi):
    return parse(format_formula(phi)) == phi


def test_a_renamed_binder_skips_the_names_of_the_text():
    x, x_1, x_2 = Var("x"), Const("x_1"), Var("x_2")
    phi = parse("(forall x. P(x)) /\\ forall x. Q(x, x_1)")
    assert phi == Meet(Forall("x", Atom("P", (x,))), Forall("x_2", Atom("Q", (x_2, x_1))))
    assert _round_trips(phi)
    assert parse("~forall u. forall u. P(u)", U_VOCAB) == Neg(
        Forall("u", Forall("u_3", Atom("P", (Var("u_3"),)))))


def test_a_free_variable_read_after_a_binder_leaves_its_name():
    # no lookahead: scope alone keeps the bound and the free x apart
    phi = parse("(forall x. P(x)) /\\ Q(x)", VOCAB)
    assert phi == Meet(Forall("x", Atom("P", (Var("x"),))), Atom("Q", (Var("x"),)))
    assert parse(format_formula(phi), VOCAB) == phi
    assert parse("Q(x) /\\ forall x. P(x)", VOCAB).right.var == "x_1"


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
    assert star_translate(BOTTOM) == BOTTOM  # 0 and 1 are their own squares


def test_truth_constants_pass_through_the_star():
    phi = parse("forall x. (P(x) /\\ 1) \\/ 0", VOCAB)
    assert is_lattice_literal_combination(Join(Meet(P_C, TOP), BOTTOM))
    p = Atom("P", (Var("x"),))
    assert star_translate(phi) == Join(Forall("x", Meet(StrongConj(p, p), TOP)), BOTTOM)


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
    assert is_lattice_literal_combination(parse("P(c) /\\ (~Q(c) \\/ P(c))", VOCAB))
    phi = parse("forall x. forall y. (P(x) \\/ ~P(y))", VOCAB)
    assert prenex(phi) == ([], ["x", "y"], phi.body.body) and not vocabulary_of(phi).functions
    phi = parse("forall x. exists y. P(f(x))", VOCAB)
    assert not is_quantifier_free(prenex(phi)[2])
    assert vocabulary_of(phi).functions


def test_classical_nnf_examples():
    assert format_formula(classical_nnf(parse("~(P(c) /\\ Q(c))", VOCAB))) == "~P(c) \\/ ~Q(c)"
    assert format_formula(classical_nnf(parse("~(forall x. P(x))", VOCAB))) == "exists x. ~P(x)"
    assert format_formula(classical_nnf(parse("P(c) -> Q(c)", VOCAB))) == "~P(c) \\/ Q(c)"


def test_classical_nnf_quantifier_free_is_lattice_literal():
    for text in ["P(c) -> (Q(c) <-> ~P(d))", "~(P(c) & ~Q(c))", "~~P(c)"]:
        nnf = classical_nnf(parse(text, VOCAB))
        assert is_lattice_literal_combination(nnf)


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
    exists, forall_vars, matrix = prenex(out)
    assert (exists, forall_vars) == ([], ["x"]) and out == Forall("x", matrix)
    assert matrix == Atom("R", (Var("x"), App("sk_0", (Var("x"),))))
    assert vocab.functions["sk_0"] == 1


def test_skolemize_exists_to_constant():
    phi = parse("exists x. P(x)", VOCAB)
    out, vocab = skolemize(phi, VOCAB)
    assert out == Atom("P", (Const("sk_0"),))
    assert "sk_0" in vocab.constants


def test_skolem_names_skip_the_bound_variables():
    phi = parse("exists y. forall sk_0. (R(y, sk_0) /\\ ~R(sk_0, y))")
    out, vocab = skolemize(phi, vocabulary_of(phi))
    sk_0, sk_1 = Var("sk_0"), Const("sk_1")
    assert out == Forall("sk_0", Meet(Atom("R", (sk_1, sk_0)), Neg(Atom("R", (sk_0, sk_1)))))
    assert vocab.constants == frozenset({"sk_1"})
    assert _round_trips(phi) and _round_trips(out)


def test_skolemize_relational_violation():
    phi = parse("forall x. exists y. R(x, y)", REL_VOCAB)
    with pytest.raises(VocabularyError):
        skolemize(phi, REL_VOCAB)


def test_skolemize_refuses_a_free_variable():
    phi = parse("exists y. R(x, y)", VOCAB)
    with pytest.raises(FragmentError) as exc:
        skolemize(phi, VOCAB)
    assert str(exc.value) == "skolemize expects a sentence"


def skolemize_reference(phi, vocab):
    """The reference Skolemizer: it substitutes each existential's Skolem term
    into the rest of the sentence and walks on, so k existentials cost k + 1
    walks."""
    if free_vars(phi):
        raise FragmentError("skolemize expects a sentence")
    taken = vocab.all_names() | {s.var for s in subformulas(phi) if isinstance(s, (Forall, Exists))}
    counter = 0

    def fresh_name():
        nonlocal counter
        while f"sk_{counter}" in taken:
            counter += 1
        name = f"sk_{counter}"
        taken.add(name)
        counter += 1
        return name

    new_vocab = vocab

    def walk(phi, universals):
        nonlocal new_vocab
        if isinstance(phi, Forall):
            return Forall(phi.var, walk(phi.body, universals + (phi.var,)))
        if isinstance(phi, Exists):
            if universals:
                if vocab.relational:
                    raise VocabularyError(
                        f"Skolemizing 'exists {phi.var}' under universals {list(universals)} "
                        "needs a function symbol, which the relational vocabulary forbids"
                    )
                name = fresh_name()
                new_vocab = new_vocab.with_function(name, len(universals))
                term = App(name, tuple(Var(v) for v in universals))
            else:
                name = fresh_name()
                new_vocab = new_vocab.with_constants([name])
                term = Const(name)
            return walk(substitute(phi.body, {phi.var: term}), universals)
        return rebuild(phi, lambda sub: walk(sub, universals))

    return walk(phi, ()), new_vocab


def _outcome(skolemizer, phi, vocab):
    try:
        return skolemizer(phi, vocab)
    except (FragmentError, VocabularyError) as exc:
        return type(exc), str(exc)


# the formulas' symbols, once with and once without function symbols allowed
PQ_VOCABS = [Vocabulary(predicates={"P": 1, "Q": 1}, constants=frozenset({"c", "d"}),
                        relational=relational) for relational in (False, True)]
X = Var("x")


@settings(max_examples=300)
@given(formulas().filter(is_sentence))
@example(Exists("x", Forall("x", Atom("P", (X,)))))
@example(Exists("x", Exists("x", Atom("P", (X,)))))
@example(Forall("x", Exists("x", Atom("P", (X,)))))
def test_skolemize_agrees_with_the_reference(phi):
    nnf = classical_nnf(phi)
    for vocab in PQ_VOCABS:
        assert _outcome(skolemize, nnf, vocab) == _outcome(skolemize_reference, nnf, vocab)


def test_skolem_terms_are_not_captured_by_a_shadowing_existential():
    # y's Skolem term names the outer x; the reference substituted it under
    # the inner `exists x`, whose own Skolem term then replaced that x
    phi = Forall("x", Exists("y", Exists("x", Atom("P", (Var("y"),)))))
    out, vocab = skolemize(phi, PQ_VOCABS[0])
    assert out == Forall("x", Atom("P", (App("sk_0", (X,)),)))
    assert vocab.functions == {"sk_0": 1, "sk_1": 1}
    assert skolemize_reference(phi, PQ_VOCABS[0])[0] == Forall(
        "x", Atom("P", (App("sk_0", (App("sk_1", (X,)),)),)))


def test_skolemize_substitutes_only_atoms(monkeypatch):
    # one walk: the Skolem terms travel down in an environment and reach the
    # atoms, instead of being substituted into each existential's body
    seen = []
    substitute = syntax.substitute
    monkeypatch.setattr(syntax, "substitute",
                        lambda phi, env: seen.append(type(phi)) or substitute(phi, env))
    phi = parse("exists y. forall x. (R(x, y) /\\ ~R(y, x))", VOCAB)
    out, _ = skolemize(phi, VOCAB)
    assert out == parse("forall x. (R(x, sk_0) /\\ ~R(sk_0, x))", VOCAB.with_constants(["sk_0"]))
    assert seen and set(seen) == {Atom}


def pull_universals_reference(phi):
    """The reference prenexer for exists-free NNF input: every forall moves to
    the prefix in walk order, and nothing is folded."""
    prefix = []

    def strip(phi):
        if isinstance(phi, Forall):
            prefix.append(phi.var)
            return strip(phi.body)
        if isinstance(phi, (Meet, Join)):
            return type(phi)(strip(phi.left), strip(phi.right))
        return phi

    matrix = strip(phi)
    for v in reversed(prefix):
        matrix = Forall(v, matrix)
    return matrix


def _distinct_binders(phi):
    binders = [s.var for s in subformulas(phi) if isinstance(s, (Forall, Exists))]
    return len(binders) == len(set(binders))


@settings(max_examples=300)
@given(formulas().filter(is_sentence))
def test_pull_universals_agrees_with_the_reference_on_the_reductions_input(phi):
    # what the reduction passes: Skolemized NNF, exists-free and (the formulas
    # hold none) without truth constants; NNF may repeat a binder at <->
    universal, _ = skolemize(classical_nnf(rename_apart(phi)), PQ_VOCABS[0])
    assume(_distinct_binders(universal))
    assert pull_universals(universal) == pull_universals_reference(universal)


def test_pull_universals_lifts_the_exists_no_forall_scopes_first():
    phi = parse("(forall x. P(x)) /\\ exists y. (Q(y) \\/ forall z. exists w. R(z, w))", VOCAB)
    assert format_formula(pull_universals(phi)) == (
        "exists y. forall x. forall z. (P(x) /\\ (Q(y) \\/ exists w. R(z, w)))")
    phi = parse("(exists u. P(u)) \\/ (forall x. exists v. Q(v)) \\/ exists w. Q(w)", VOCAB)
    assert format_formula(pull_universals(phi)) == (
        "exists u. exists w. forall x. (P(u) \\/ exists v. Q(v) \\/ Q(w))")


def test_pull_universals_folds_the_truth_constants_it_uncovers():
    assert pull_universals(parse("P(c) \\/ forall x. 0", VOCAB)) == Forall("x", P_C)
    assert pull_universals(parse("P(c) /\\ exists x. 0", VOCAB)) == Exists("x", BOTTOM)
    phi = parse("(forall x. (P(x) \\/ 1)) /\\ exists y. Q(y)", VOCAB)
    assert pull_universals(classical_nnf(phi)) == Exists("y", Forall("x", Atom("Q", (Var("y"),))))


def test_pull_universals_renames_a_repeated_binder_apart():
    # merging the two binders would read (forall x. P(x)) \\/ forall x. ~P(x)
    # as the valid forall x. (P(x) \\/ ~P(x))
    p, x_1 = Atom("P", (X,)), Var("x_1")
    assert pull_universals(Join(Forall("x", p), Forall("x", Neg(p)))) == Forall(
        "x", Forall("x_1", Join(p, Neg(Atom("P", (x_1,))))))
    assert pull_universals(Meet(Exists("x", p), Exists("x", Neg(p)))) == Exists(
        "x", Exists("x_1", Meet(p, Neg(Atom("P", (x_1,))))))
    assert pull_universals(Exists("x", Forall("x", p))) == Exists(
        "x", Forall("x_1", Atom("P", (x_1,))))
    # the new name avoids every name phi uses, binders, variables and symbols
    phi = Join(Forall("x", p), Meet(Forall("x", Atom("Q", (X, Const("x_1")))), Exists("x_2", TOP)))
    assert format_formula(pull_universals(phi)) == (
        "exists x_2. forall x. forall x_3. (P(x) \\/ Q(x_3, x_1))")
    # an exists under a forall stays, so its name may repeat one in the prefix
    phi = Forall("y", Meet(Exists("x", p), Forall("x", Neg(p))))
    assert pull_universals(phi) == Forall("y", Forall("x", Meet(Exists("x", p), Neg(p))))


@pytest.mark.parametrize("text", ["((forall x. P(x)) <-> Q(c)) <-> P(d)",
                                  "~(((exists x. P(x)) <-> Q(c)) <-> forall y. Q(y))"])
def test_pull_universals_renames_the_binders_nnf_copies(text):
    # NNF writes each side of <-> twice, so a nested <-> repeats its binders
    phi = classical_nnf(parse(text, VOCAB))
    assert not _distinct_binders(phi)
    form = matrix = pull_universals(phi)
    prefix = []
    while isinstance(matrix, (Forall, Exists)):
        prefix.append(matrix.var)
        matrix = matrix.body
    assert is_sentence(form) and _distinct_binders(form) and is_quantifier_free(matrix)
    assert len(prefix) == sum(isinstance(s, (Forall, Exists)) for s in subformulas(phi))


def _wrap(exists, forall_vars, matrix):
    """The exists*-forall* sentence over prenex's parts, built apart from pull_universals."""
    for quantifier, names in ((Forall, forall_vars), (Exists, exists)):
        for v in reversed(names):
            matrix = quantifier(v, matrix)
    return matrix


_P = Atom("P", (X,))
# the inputs the pull_universals examples above feed it
PULL_UNIVERSALS_INPUTS = [
    parse("(forall x. P(x)) /\\ exists y. (Q(y) \\/ forall z. exists w. R(z, w))", VOCAB),
    parse("(exists u. P(u)) \\/ (forall x. exists v. Q(v)) \\/ exists w. Q(w)", VOCAB),
    parse("P(c) \\/ forall x. 0", VOCAB),
    parse("P(c) /\\ exists x. 0", VOCAB),
    classical_nnf(parse("(forall x. (P(x) \\/ 1)) /\\ exists y. Q(y)", VOCAB)),
    Join(Forall("x", _P), Forall("x", Neg(_P))),
    Meet(Exists("x", _P), Exists("x", Neg(_P))),
    Exists("x", Forall("x", _P)),
    Join(Forall("x", _P), Meet(Forall("x", Atom("Q", (X, Const("x_1")))), Exists("x_2", TOP))),
    Forall("y", Meet(Exists("x", _P), Forall("x", Neg(_P)))),
    classical_nnf(parse("((forall x. P(x)) <-> Q(c)) <-> P(d)", VOCAB)),
    classical_nnf(parse("~(((exists x. P(x)) <-> Q(c)) <-> forall y. Q(y))", VOCAB)),
]


@pytest.mark.parametrize("phi", PULL_UNIVERSALS_INPUTS, ids=format_formula)
def test_prenex_parts_rebuild_to_pull_universals(phi):
    exists, forall_vars, matrix = prenex(phi)
    assert _wrap(exists, forall_vars, matrix) == pull_universals(phi)
    # the matrix keeps no forall, and an exists only under one
    assert not any(isinstance(s, Forall) for s in subformulas(matrix))
    assert forall_vars or not any(isinstance(s, Exists) for s in subformulas(matrix))


def test_prenex_hands_back_a_prenex_inputs_matrix_itself():
    phi = parse("forall x. forall y. ((P(x) /\\ Q(y)) \\/ ~R(x, y))", VOCAB)
    assert prenex(phi)[2] is phi.body.body
    phi = parse("exists y. forall x. (P(x) /\\ exists z. R(x, z))", VOCAB)
    assert prenex(phi) == (["y"], ["x"], phi.body.body)
    assert prenex(phi)[2] is phi.body.body


@settings(max_examples=300)
@given(nnf_inputs)
def test_prenex_of_a_prenex_form_builds_nothing(phi):
    exists, forall_vars, matrix = prenex(classical_nnf(phi))
    again = prenex(_wrap(exists, forall_vars, matrix))
    assert again == (exists, forall_vars, matrix) and again[2] is matrix


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


def test_the_default_constant_skips_the_used_names():
    phi = parse("forall x. P(c0(x))")
    assert _round_trips(phi)
    terms = herbrand_universe(vocabulary_of(phi), 1)
    assert [format_term(t) for t in terms] == ["c1", "c0(c1)"]
    taken = Vocabulary(predicates={"c1": 0}, functions={"c0": 1, "c2": 2})
    assert ensure_constant(taken).constants == frozenset({"c3"})


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


@pytest.mark.parametrize("vocab", [
    Vocabulary(predicates={"P": 1}),
    Vocabulary(predicates={"P": 1}, functions={"f": 1}, constants=frozenset({"c", "d"})),
    Vocabulary(predicates={"P": 1}, functions={"h": 3}, constants=frozenset({"c"})),
    VOCAB,
], ids=["no-symbols", "unary", "ternary", "unary-binary"])
def test_herbrand_universe_sizes_count_the_universe(vocab):
    sizes = herbrand_universe_sizes(vocab)
    for depth in range(4):
        assert next(sizes) == len(herbrand_universe(vocab, depth))


# -- the term universe, level by level ---------------------------------------

def _term_depth(t):
    return 1 + max(_term_depth(a) for a in t.args) if isinstance(t, App) else 0


def _filtered_universe(vocab, depth):
    """The reference: at each depth, every argument tuple over the shallower
    terms, filtered to those holding a term one level down."""
    vocab = ensure_constant(vocab)
    by_depth = [sorted((Const(c) for c in vocab.constants), key=format_term)]
    for d in range(1, depth + 1):
        shallower = [t for lvl in by_depth for t in lvl]
        level = [App(f, args) for f in sorted(vocab.functions)
                 for args in itertools.product(shallower, repeat=vocab.functions[f])
                 if max(_term_depth(a) for a in args) == d - 1]
        by_depth.append(sorted(level, key=format_term))
    return [t for lvl in by_depth for t in lvl]


@pytest.mark.parametrize("vocab", [
    Vocabulary(predicates={"P": 1}, constants=frozenset({"c"})),
    Vocabulary(predicates={"P": 1}, functions={"f": 1}, constants=frozenset({"c", "d"})),
    Vocabulary(predicates={"P": 1}, functions={"f": 1, "g": 2}, constants=frozenset({"c"})),
    Vocabulary(predicates={"P": 1}, functions={"h": 3}, constants=frozenset({"c"})),
], ids=["constant", "unary", "unary-binary", "ternary"])
def test_herbrand_levels_equal_the_filtered_universe(vocab):
    for depth in range(4):
        assert herbrand_universe(vocab, depth) == _filtered_universe(vocab, depth)
    for depth, level in zip(range(4), herbrand_levels(vocab)):
        assert all(_term_depth(t) == depth for t in level)


def test_herbrand_levels_stop_at_the_nesting_limit():
    unary = Vocabulary(predicates={"P": 1}, functions={"f": 1}, constants=frozenset({"c"}))
    levels = herbrand_levels(unary)
    assert [len(next(levels)) for _ in range(MAX_NESTING + 1)] == [1] * (MAX_NESTING + 1)
    with pytest.raises(ValueError, match="term depth 101 exceeds the nesting limit 100"):
        next(levels)
    assert len(herbrand_universe(unary, MAX_NESTING)) == MAX_NESTING + 1
    # without function symbols there is one level, at any depth
    constants = Vocabulary(predicates={"P": 1}, constants=frozenset({"c", "d"}))
    assert len(list(herbrand_levels(constants))) == 1
    assert len(herbrand_universe(constants, 10 ** 6)) == 2
    with pytest.raises(ValueError, match="depth must be at least 0, got -1"):
        herbrand_universe(constants, -1)


# -- the structural recursion --------------------------------------------------

def test_children_and_rebuild_follow_each_node_kind():
    p, q = Atom("P", (Var("x"),)), Atom("Q")
    assert children(p) == children(TOP) == ()
    assert children(Neg(p)) == children(Forall("x", p)) == (p,)
    assert children(Impl(p, q)) == (p, q)
    swap = {p: q, q: p}.get
    assert rebuild(Exists("x", p), swap) == Exists("x", q)
    assert rebuild(Biimpl(p, q), swap) == Biimpl(q, p)
    assert rebuild(p, swap) == p


@pytest.mark.parametrize("node", [Var("x"), Const("c"), "P(c)", None])
def test_children_and_rebuild_reject_a_non_formula(node):
    with pytest.raises(TypeError, match="not a formula"):
        children(node)
    with pytest.raises(TypeError, match="not a formula"):
        rebuild(node, lambda sub: sub)
