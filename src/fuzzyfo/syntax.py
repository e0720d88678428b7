"""First-order syntax: vocabularies, terms, formulas, parsing and transforms.

Grammar (ASCII), binding tightest first:  `~`/quantifier prefixes, `&`
(strong conjunction), `/\\`, `\\/`, `->` (right associative), `<->`.  The
binary connectives' precedence is their order in `_CONNECTIVES`, loosest first.
Quantifiers take the next prefix-level formula as body, so
`forall x. P(x) /\\ Q(c)` is `(forall x. P(x)) /\\ Q(c)`.
Predicates start uppercase; functions, constants and variables lowercase.
"""

from __future__ import annotations

import itertools
import re
from dataclasses import dataclass, field, replace
from typing import Callable, Container, Iterable, Iterator, Optional, Union


class ParseError(ValueError):
    def __init__(self, message: str, position: int):
        super().__init__(f"{message} at position {position}")
        self.position = position


class FragmentError(ValueError):
    """A formula lies outside the fragment an operation requires."""


class VocabularyError(ValueError):
    """Symbol clash, arity mismatch, or a function symbol in a relational vocabulary."""


# int() refuses longer digit strings (sys.int_info.default_max_str_digits)
MAX_DIGITS = 4300


def decimal(text: str) -> int:
    """An integer input: ASCII digits after an optional `-`, at most MAX_DIGITS.

    int() would also read spaces, underscores, a `+` and other scripts' digits.
    """
    digits = text.removeprefix("-")
    if not (digits.isascii() and digits.isdigit()):
        raise ValueError(f"{text!r} is not a decimal integer")
    if len(digits) > MAX_DIGITS:
        raise ValueError(f"{len(digits)} digits, above the cap of {MAX_DIGITS}")
    return int(text)


# -- vocabulary ----------------------------------------------------------

@dataclass(frozen=True)
class Vocabulary:
    predicates: dict[str, int] = field(default_factory=dict)
    functions: dict[str, int] = field(default_factory=dict)
    constants: frozenset[str] = field(default_factory=frozenset)
    relational: bool = False

    def __post_init__(self):
        names = list(self.predicates) + list(self.functions) + list(self.constants)
        if len(names) != len(set(names)):
            raise VocabularyError("predicate/function/constant names must be disjoint")
        if self.relational and self.functions:
            raise VocabularyError("relational vocabulary cannot declare function symbols")
        for f, ar in self.functions.items():
            if ar < 1:
                raise VocabularyError(f"function {f} must have arity >= 1")

    def with_constants(self, names: Iterable[str]) -> "Vocabulary":
        return replace(self, constants=self.constants | frozenset(names))

    def with_function(self, name: str, arity: int) -> "Vocabulary":
        if self.relational:
            raise VocabularyError(
                f"cannot add function {name}/{arity} to a relational vocabulary"
            )
        funcs = dict(self.functions)
        funcs[name] = arity
        return replace(self, functions=funcs)

    def all_names(self) -> set[str]:
        return set(self.predicates) | set(self.functions) | set(self.constants)


def parse_vocabulary(text: str) -> Vocabulary:
    """Vocabulary file: lines `pred P/2`, `fun f/1`, `const c`, `relational`."""
    preds: dict[str, int] = {}
    funcs: dict[str, int] = {}
    consts: set[str] = set()
    relational = False
    for lineno, raw in enumerate(text.splitlines(), 1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if line == "relational":
            relational = True
            continue
        m = re.fullmatch(rf"(pred|fun)\s+(\w+)/([0-9]{{1,{MAX_DIGITS}}})", line)
        if m:
            (preds if m.group(1) == "pred" else funcs)[m.group(2)] = int(m.group(3))
            continue
        m = re.fullmatch(r"const\s+(\w+)", line)
        if m:
            consts.add(m.group(1))
            continue
        raise VocabularyError(f"line {lineno}: cannot parse {raw!r}")
    return Vocabulary(preds, funcs, frozenset(consts), relational)


def _fresh_name(pattern: str, start: int, taken: Container[str]) -> str:
    """The first pattern.format(k), k = start, start + 1, .., not in taken."""
    return next(name for k in itertools.count(start) if (name := pattern.format(k)) not in taken)


# -- terms and formulas --------------------------------------------------

@dataclass(frozen=True)
class Var:
    name: str


@dataclass(frozen=True)
class Const:
    name: str


@dataclass(frozen=True)
class App:
    func: str
    args: tuple["Term", ...]


Term = Union[Var, Const, App]


@dataclass(frozen=True)
class Atom:
    pred: str
    args: tuple[Term, ...] = ()


@dataclass(frozen=True)
class TruthConst:
    top: bool


@dataclass(frozen=True)
class Neg:
    body: "Formula"


@dataclass(frozen=True)
class StrongConj:
    left: "Formula"
    right: "Formula"


@dataclass(frozen=True)
class Meet:
    left: "Formula"
    right: "Formula"


@dataclass(frozen=True)
class Join:
    left: "Formula"
    right: "Formula"


@dataclass(frozen=True)
class Impl:
    left: "Formula"
    right: "Formula"


@dataclass(frozen=True)
class Biimpl:
    left: "Formula"
    right: "Formula"


@dataclass(frozen=True)
class Forall:
    var: str
    body: "Formula"


@dataclass(frozen=True)
class Exists:
    var: str
    body: "Formula"


Formula = Union[Atom, TruthConst, Neg, StrongConj, Meet, Join, Impl, Biimpl, Forall, Exists]

# each binary connective's text and node, loosest first: its place, from 1, is its precedence
_CONNECTIVES = {"<->": Biimpl, "->": Impl, "\\/": Join, "/\\": Meet, "&": StrongConj}

BOTTOM = TruthConst(False)
TOP = TruthConst(True)

_BINARY = tuple(_CONNECTIVES.values())
_PREC = {node: prec for prec, node in enumerate(_BINARY, 1)}
_OPTXT = {node: text for text, node in _CONNECTIVES.items()}
_QUANT = (Forall, Exists)


def children(phi: Formula) -> tuple[Formula, ...]:
    """The direct subformulas of phi."""
    if isinstance(phi, _BINARY):
        return phi.left, phi.right
    if isinstance(phi, (Atom, TruthConst)):
        return ()
    if isinstance(phi, (Neg,) + _QUANT):
        return (phi.body,)
    raise TypeError(f"not a formula: {phi!r}")


def rebuild(phi: Formula, f: Callable[[Formula], Formula]) -> Formula:
    """phi with f applied to each direct subformula."""
    if isinstance(phi, _BINARY):
        return type(phi)(f(phi.left), f(phi.right))
    if isinstance(phi, (Atom, TruthConst)):
        return phi
    if isinstance(phi, Neg):
        return Neg(f(phi.body))
    if isinstance(phi, _QUANT):
        return type(phi)(phi.var, f(phi.body))
    raise TypeError(f"not a formula: {phi!r}")


def term_vars(*terms: Term) -> set[str]:
    return {s.name for s in _walk_terms(*terms) if isinstance(s, Var)}


def free_vars(phi: Formula) -> set[str]:
    if isinstance(phi, Atom):
        return term_vars(*phi.args)
    if isinstance(phi, _QUANT):
        return free_vars(phi.body) - {phi.var}
    out: set[str] = set()
    for sub in children(phi):
        out |= free_vars(sub)
    return out


def is_sentence(phi: Formula) -> bool:
    return not free_vars(phi)


def subformulas(phi: Formula) -> Iterator[Formula]:
    yield phi
    for sub in children(phi):
        yield from subformulas(sub)


def is_literal(phi: Formula) -> bool:
    return isinstance(phi, Atom) or (isinstance(phi, Neg) and isinstance(phi.body, Atom))


def is_lattice_literal_combination(phi: Formula) -> bool:
    """phi is built from literals and truth constants by /\\ and \\/ alone."""
    if isinstance(phi, (Meet, Join)):
        return all(map(is_lattice_literal_combination, children(phi)))
    return is_literal(phi) or isinstance(phi, TruthConst)


def is_quantifier_free(phi: Formula) -> bool:
    return not any(isinstance(s, _QUANT) for s in subformulas(phi))


def quantifier_depth(phi: Formula) -> int:
    """The most quantifiers on one path from phi's root to a leaf."""
    return isinstance(phi, _QUANT) + max(map(quantifier_depth, children(phi)), default=0)


def _walk_terms(*terms: Term) -> Iterator[Term]:
    """The terms and their subterms, in preorder."""
    for t in terms:
        yield t
        if isinstance(t, App):
            yield from _walk_terms(*t.args)


def vocabulary_of(phi: Formula) -> Vocabulary:
    """The minimal vocabulary of the symbols occurring in a formula."""
    preds: dict[str, int] = {}
    funcs: dict[str, int] = {}
    consts: set[str] = set()
    for sub in subformulas(phi):
        if isinstance(sub, Atom):
            preds.setdefault(sub.pred, len(sub.args))
            for t in _walk_terms(*sub.args):
                if isinstance(t, Const):
                    consts.add(t.name)
                elif isinstance(t, App):
                    funcs.setdefault(t.func, len(t.args))
    return Vocabulary(preds, funcs, frozenset(consts))


# -- substitution --------------------------------------------------------

def subst_term(t: Term, env: dict[str, Term]) -> Term:
    if isinstance(t, Var):
        return env.get(t.name, t)
    if isinstance(t, App):
        return App(t.func, tuple(subst_term(a, env) for a in t.args))
    return t


def substitute(phi: Formula, env: dict[str, Term]) -> Formula:
    """Capture-free substitution; assumes bound variables are renamed apart."""
    if isinstance(phi, Atom):
        return Atom(phi.pred, tuple(subst_term(t, env) for t in phi.args))
    if isinstance(phi, _QUANT):
        inner = {k: v for k, v in env.items() if k != phi.var}
        return type(phi)(phi.var, substitute(phi.body, inner))
    return rebuild(phi, lambda sub: substitute(sub, env))


# -- parser --------------------------------------------------------------

_TOKEN_RE = re.compile(
    r"\s*(?:(?P<forall>forall\b)|(?P<exists>exists\b)"
    # the alternatives are tried in _CONNECTIVES' order, so `<->` wins over `->`
    rf"|(?P<op>{'|'.join(map(re.escape, _CONNECTIVES))})"
    r"|(?P<neg>~)|(?P<lpar>\()|(?P<rpar>\))|(?P<comma>,)|(?P<dot>\.)"
    r"|(?P<truth>[01])|(?P<name>[A-Za-z_][A-Za-z0-9_]*)|(?P<bad>\S))"
)


def _tokenize(text: str) -> list[tuple[str, str, int]]:
    tokens = []
    for m in _TOKEN_RE.finditer(text):
        kind = m.lastgroup
        if kind == "bad":
            raise ParseError(f"unexpected character {m.group(kind)!r}", m.start())
        tokens.append((kind, m.group(kind), m.start(kind)))
    tokens.append(("eof", "", len(text)))
    return tokens


# Formulas and terms may nest at most this deep, counting each connective,
# quantifier and function application on a path, and each open parenthesis;
# Herbrand universes stop at this term depth too.  So the recursive walks
# (NNF, star, printing, evaluation, grounding) stay well inside Python's
# default recursion limit.
MAX_NESTING = 100


class _Parser:
    def __init__(self, tokens, vocab: Optional[Vocabulary], infer: bool):
        self.tokens = tokens
        self.i = 0
        self.vocab = vocab
        self.infer = infer
        # predicates start uppercase and functions lowercase, so one table holds both
        self.inferred: dict[str, int] = {}
        self.scope: dict[str, str] = {}  # bound name as written -> its name in the formula
        self.taken: set[str] = set()  # names of the binders and free variables so far
        # a renamed binder also avoids every name in the text and the vocabulary
        self.written = {text for kind, text, _ in tokens if kind == "name"}
        if not infer:
            self.written |= vocab.all_names()
        self.open = 0  # constructs still open around the current token
        self.height = 0  # height of the formula or term parsed last

    def _nested(self, pos: int, parse):
        """parse() inside one more construct, opened at pos."""
        self.open += 1
        if self.open > MAX_NESTING:
            raise ParseError(f"nesting deeper than {MAX_NESTING} levels", pos)
        result = parse()
        self.open -= 1
        return result

    def _rise(self, height: int, pos: int) -> None:
        """Record the height of the node just built at pos."""
        if height > MAX_NESTING:
            raise ParseError(f"nesting deeper than {MAX_NESTING} levels", pos)
        self.height = height

    def _check_arity(self, kind: str, name: str, arity: int, pos: int) -> None:
        """Check a predicate's or function's arity against its first use
        (inferred mode) or against the vocabulary."""
        if self.infer:
            first = self.inferred.setdefault(name, arity)
            if first != arity:
                raise ParseError(f"{kind} {name} used with arities {first} and {arity}", pos)
            return
        declared = self.vocab.predicates if kind == "predicate" else self.vocab.functions
        if name not in declared:
            raise ParseError(f"undeclared {kind} {name}", pos)
        if declared[name] != arity:
            raise ParseError(f"{kind} {name} expects {declared[name]} arguments, got {arity}", pos)

    def _bind(self, var: str) -> str:
        """A binder's name: var unless a binder or free variable has it, else the
        first var_k (k = 1, 2, ..) that is neither taken nor written."""
        if var in self.taken:
            var = _fresh_name(var + "_{}", 1, self.taken | self.written)
        self.taken.add(var)
        return var

    def peek(self):
        return self.tokens[self.i]

    def next(self):
        tok = self.tokens[self.i]
        self.i += 1
        return tok

    def expect(self, kind: str, what: str):
        tok = self.next()
        if tok[0] != kind:
            raise ParseError(f"expected {what}", tok[2])
        return tok

    def formula(self, min_prec: int = 1) -> Formula:
        """Precedence climbing over the binary connectives binding at least min_prec."""
        lhs = self.unary()
        while True:
            _, text, pos = self.peek()
            node = _CONNECTIVES.get(text)
            if node is None or _PREC[node] < min_prec:
                return lhs
            prec = _PREC[node]
            self.next()
            height = self.height
            if node is Impl:  # right associative: the right operand nests
                rhs = self._nested(pos, lambda: self.formula(prec))
            else:
                rhs = self.formula(prec + 1)
            lhs = node(lhs, rhs)
            self._rise(1 + max(height, self.height), pos)

    def unary(self) -> Formula:
        kind, text, pos = self.peek()
        if kind == "neg":
            self.next()
            body = self._nested(pos, self.unary)
            self._rise(self.height + 1, pos)
            return Neg(body)
        if kind in ("forall", "exists"):
            self.next()
            var = self.expect("name", "variable name")[1]
            if not var[0].islower():
                raise ParseError("bound variables must be lowercase", pos)
            self.expect("dot", "'.' after quantified variable")
            name = self._bind(var)
            outer, self.scope = self.scope, {**self.scope, var: name}
            body = self._nested(pos, self.unary)
            self.scope = outer
            self._rise(self.height + 1, pos)
            return Forall(name, body) if kind == "forall" else Exists(name, body)
        if kind == "lpar":
            self.next()
            inner = self._nested(pos, self.formula)
            tok = self.next()
            if tok[0] != "rpar":
                raise ParseError("unbalanced parenthesis", tok[2])
            return inner
        if kind == "truth":
            self.next()
            self.height = 1
            return TOP if text == "1" else BOTTOM
        if kind == "name":
            if text[0].isupper():
                return self.atom()
            raise ParseError(f"expected a formula, found term symbol {text!r}", pos)
        raise ParseError("expected a formula", pos)

    def atom(self) -> Atom:
        name_tok = self.next()
        name = name_tok[1]
        args: tuple[Term, ...] = ()
        self.height = 0
        if self.peek()[0] == "lpar":
            args = self.arg_list()
        self._rise(self.height + 1, name_tok[2])
        self._check_arity("predicate", name, len(args), name_tok[2])
        return Atom(name, args)

    def arg_list(self) -> tuple[Term, ...]:
        self.expect("lpar", "'('")
        args = [self.term()]
        height = self.height
        while self.peek()[0] == "comma":
            self.next()
            args.append(self.term())
            height = max(height, self.height)
        tok = self.next()
        if tok[0] != "rpar":
            raise ParseError("unbalanced parenthesis", tok[2])
        self.height = height
        return tuple(args)

    def term(self) -> Term:
        tok = self.next()
        kind, text, pos = tok
        if kind != "name" or not text[0].islower():
            raise ParseError("expected a term", pos)
        if self.peek()[0] == "lpar":
            args = self._nested(pos, self.arg_list)
            self._rise(self.height + 1, pos)
            if not self.infer and self.vocab.relational:
                raise ParseError(
                    f"function symbol {text} not permitted in relational vocabulary", pos)
            self._check_arity("function", text, len(args), pos)
            return App(text, args)
        self.height = 1
        if not self.infer and text in self.vocab.constants:
            return Const(text)
        if text in self.scope:
            return Var(self.scope[text])
        if self.infer:
            return Const(text)
        self.taken.add(text)  # a free variable: later binders avoid its name
        return Var(text)


def parse(text: str, vocab: Optional[Vocabulary] = None) -> Formula:
    """Parse a formula; with vocab=None symbols are inferred from use."""
    tokens = _tokenize(text)
    p = _Parser(tokens, vocab, infer=vocab is None)
    phi = p.formula()
    tok = p.peek()
    if tok[0] != "eof":
        raise ParseError(f"unexpected trailing input {tok[1]!r}", tok[2])
    return phi


# -- printer -------------------------------------------------------------

_UNARY_PREC = len(_CONNECTIVES) + 1


def format_term(t: Term) -> str:
    if isinstance(t, (Var, Const)):
        return t.name
    return f"{t.func}({', '.join(format_term(a) for a in t.args)})"


def format_formula(phi: Formula) -> str:
    def go(phi: Formula, parent_prec: int) -> str:
        if isinstance(phi, Atom):
            if phi.args:
                return f"{phi.pred}({', '.join(format_term(a) for a in phi.args)})"
            return phi.pred
        if isinstance(phi, TruthConst):
            return "1" if phi.top else "0"
        if isinstance(phi, Neg):
            return f"~{go(phi.body, _UNARY_PREC)}"
        if isinstance(phi, _QUANT):
            q = "forall" if isinstance(phi, Forall) else "exists"
            return f"{q} {phi.var}. {go(phi.body, _UNARY_PREC)}"
        prec = _PREC[type(phi)]
        # -> is right associative: its left operand, not its right, is parenthesised at prec
        left, right = (prec + 1, prec) if isinstance(phi, Impl) else (prec, prec + 1)
        text = f"{go(phi.left, left)} {_OPTXT[type(phi)]} {go(phi.right, right)}"
        if prec < parent_prec:
            return f"({text})"
        return text

    return go(phi, 0)


# -- star translation ----------------------------------------------------

def star_translate(phi: Formula) -> Formula:
    """Square every literal; commutes with meet, join and both quantifiers.

    Only defined on literals and 0, 1 under /\\, \\/, forall, exists.  0 and 1 are
    their own squares on every chain and in B2, so Lemma 1 and the lift hold.
    """
    if is_literal(phi):
        return StrongConj(phi, phi)
    if isinstance(phi, (Meet, Join, TruthConst) + _QUANT):
        return rebuild(phi, star_translate)
    raise FragmentError(
        f"star translation undefined on node {format_formula(phi)!r}: "
        "only literals and 0, 1 combined with /\\, \\/ and quantifiers are allowed"
    )


# -- classical negation normal form --------------------------------------

def _fold(phi: Formula) -> Formula:
    """Drop a truth constant operand of /\\ or \\/: a unit yields the other, a zero itself."""
    if isinstance(phi, (Meet, Join)):
        for const, other in ((phi.left, phi.right), (phi.right, phi.left)):
            if isinstance(const, TruthConst):
                return other if const.top == isinstance(phi, Meet) else const
    return phi


def classical_nnf(phi: Formula) -> Formula:
    """Classical negation normal form.

    Strong conjunction is read as classical conjunction; implication and
    biimplication are expanded; negations are pushed to atoms.  The result
    contains only literals, truth constants, /\\, \\/ and quantifiers.
    """

    def nnf(phi: Formula, positive: bool) -> Formula:
        """phi, or its negation when not positive, in negation normal form."""
        if isinstance(phi, Atom):
            return phi if positive else Neg(phi)
        if isinstance(phi, TruthConst):
            return phi if positive else TruthConst(not phi.top)
        if isinstance(phi, Neg):
            return nnf(phi.body, not positive)
        if isinstance(phi, Biimpl):
            return nnf(Meet(Impl(phi.left, phi.right), Impl(phi.right, phi.left)), positive)
        if isinstance(phi, _QUANT):
            quantifier = type(phi) if positive else _DUAL[type(phi)]
            return quantifier(phi.var, nnf(phi.body, positive))
        if isinstance(phi, _BINARY):
            # a -> b is ~a \/ b; negation swaps /\ and \/
            op = Join if isinstance(phi, (Join, Impl)) else Meet
            left = nnf(phi.left, positive != isinstance(phi, Impl))
            return _fold((op if positive else _DUAL[op])(left, nnf(phi.right, positive)))
        raise TypeError(f"not a formula: {phi!r}")

    return nnf(phi, True)


_DUAL = {Meet: Join, Join: Meet, Forall: Exists, Exists: Forall}


# -- Skolemization -------------------------------------------------------

def skolemize(phi: Formula, vocab: Vocabulary) -> tuple[Formula, Vocabulary]:
    """Replace every existential in an NNF sentence by a fresh Skolem symbol.

    Skolem names are sk_0, sk_1, ... in left-to-right order (skipping names
    the vocabulary or a binder of phi already uses).  Raises VocabularyError
    when a relational vocabulary would need a Skolem function of arity >= 1.
    One walk: env maps each bound variable in scope to its term, a universal
    to itself and an existential to its Skolem term.
    """
    if free_vars(phi):
        raise FragmentError("skolemize expects a sentence")
    taken = vocab.all_names() | {s.var for s in subformulas(phi) if isinstance(s, _QUANT)}
    new_vocab = vocab

    def walk(phi: Formula, env: dict[str, Term], universals: tuple[str, ...]) -> Formula:
        nonlocal new_vocab
        if isinstance(phi, Atom):
            return substitute(phi, env)
        if isinstance(phi, Forall):
            body = walk(phi.body, {**env, phi.var: Var(phi.var)}, universals + (phi.var,))
            return Forall(phi.var, body)
        if isinstance(phi, Exists):
            if universals and vocab.relational:
                raise VocabularyError(
                    f"Skolemizing 'exists {phi.var}' under universals {list(universals)} "
                    "needs a function symbol, which the relational vocabulary forbids"
                )
            name = _fresh_name("sk_{}", 0, taken)
            taken.add(name)
            if universals:
                new_vocab = new_vocab.with_function(name, len(universals))
                term: Term = App(name, tuple(Var(v) for v in universals))
            else:
                new_vocab = new_vocab.with_constants([name])
                term = Const(name)
            return walk(phi.body, {**env, phi.var: term}, universals)
        return rebuild(phi, lambda sub: walk(sub, env, universals))

    return walk(phi, {}, ()), new_vocab


def prenex(phi: Formula) -> tuple[list[str], list[str], Formula]:
    """An NNF formula's exists*-forall* prenex form as (exists variables, forall
    variables, matrix), in one walk over /\\ and \\/.

    Each forall, and each exists that no forall scopes, moves to the prefix in
    walk order.  /\\ and \\/ are folded, leaving no truth constant below the
    matrix's root, and rebuilt only when an operand changes: a prenex input's
    matrix is returned itself.  NNF copies both sides of `<->`, so a binder whose
    name the prefix has is renamed apart, to the first unused var_k (k = 1, 2, ..).
    On an open formula a lifted binder can capture a free variable of its name.
    """
    prefix: dict[str, type] = {}
    taken: set[str] = set()

    def strip(sub: Formula, scoped: bool) -> Formula:
        if isinstance(sub, Forall) or (isinstance(sub, Exists) and not scoped):
            if sub.var in prefix:
                if not taken:  # phi's binders, free variables and symbols
                    taken.update({s.var for s in subformulas(phi) if isinstance(s, _QUANT)},
                                 free_vars(phi), vocabulary_of(phi).all_names())
                var = _fresh_name(sub.var + "_{}", 1, taken | prefix.keys())
                sub = type(sub)(var, substitute(sub.body, {sub.var: Var(var)}))
            prefix[sub.var] = type(sub)
            return strip(sub.body, scoped or isinstance(sub, Forall))
        if isinstance(sub, (Meet, Join)):
            left, right = strip(sub.left, scoped), strip(sub.right, scoped)
            return _fold(sub if left is sub.left and right is sub.right else type(sub)(left, right))
        return sub

    matrix = strip(phi, False)
    return ([v for v, q in prefix.items() if q is Exists],
            [v for v, q in prefix.items() if q is Forall], matrix)


def pull_universals(phi: Formula) -> Formula:
    """The exists*-forall* prenex form of an NNF formula, built from `prenex`'s parts."""
    exists, forall_vars, matrix = prenex(phi)
    for v in reversed(forall_vars):
        matrix = Forall(v, matrix)
    for v in reversed(exists):
        matrix = Exists(v, matrix)
    return matrix


# -- Herbrand universe ---------------------------------------------------

def ensure_constant(vocab: Vocabulary) -> Vocabulary:
    """Guarantee a nonempty set of constants (Herbrand convention): the first of
    c0, c1, .. that the vocabulary does not use."""
    if vocab.constants:
        return vocab
    return vocab.with_constants([_fresh_name("c{}", 0, vocab.all_names())])


def herbrand_universe_sizes(vocab: Vocabulary) -> Iterator[int]:
    """The sizes of `herbrand_universe(vocab, d)` for d = 0, 1, .., unbuilt.

    |U_0| counts the constants and |U_d| = |U_0| + the sum over each
    function f of |U_{d-1}|^arity(f).
    """
    vocab = ensure_constant(vocab)
    size = len(vocab.constants)
    while True:
        yield size
        size = len(vocab.constants) + sum(size ** a for a in vocab.functions.values())


def herbrand_levels(vocab: Vocabulary) -> Iterator[list[Term]]:
    """The closed terms of each exact depth 0, 1, .., each level sorted by text.

    Level d+1 applies each function to the argument tuples holding a level-d
    term, split at the first such position: shallower terms before it, terms
    of depth <= d after it.  So every term is built once and none is filtered
    out.  Without function symbols only level 0 is yielded.  Raises
    ValueError instead of building a level deeper than MAX_NESTING.
    """
    vocab = ensure_constant(vocab)
    level: list[Term] = sorted((Const(c) for c in vocab.constants), key=format_term)
    shallower: list[Term] = []
    for depth in itertools.count(1):
        yield level
        if not vocab.functions:
            return
        if depth > MAX_NESTING:
            raise ValueError(f"term depth {depth} exceeds the nesting limit {MAX_NESTING}")
        upto = shallower + level
        new: list[Term] = []
        for f in sorted(vocab.functions):
            arity = vocab.functions[f]
            for i in range(arity):
                pools = [shallower] * i + [level] + [upto] * (arity - 1 - i)
                new += (App(f, args) for args in itertools.product(*pools))
        new.sort(key=format_term)
        shallower, level = upto, new


def herbrand_universe(vocab: Vocabulary, depth: int) -> list[Term]:
    """All closed terms of nesting depth <= depth, by depth then lexicographically."""
    if depth < 0:
        raise ValueError(f"depth must be at least 0, got {depth}")
    # past MAX_NESTING the levels run out or raise, so a larger depth changes nothing
    levels = itertools.islice(herbrand_levels(vocab), min(depth, MAX_NESTING + 1) + 1)
    return [t for level in levels for t in level]
