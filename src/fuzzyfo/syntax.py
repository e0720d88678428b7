"""First-order syntax: vocabularies, terms, formulas, parsing and transforms.

Grammar (ASCII), binding tightest first:  `~`/quantifier prefixes, `&`
(strong conjunction), `/\\`, `\\/`, `->` (right associative), `<->`.
Quantifiers take the next prefix-level formula as body, so
`forall x. P(x) /\\ Q(c)` is `(forall x. P(x)) /\\ Q(c)`.
Predicates start uppercase; functions, constants and variables lowercase.
"""

from __future__ import annotations

import itertools
import re
from dataclasses import dataclass, field, replace
from typing import Iterable, Iterator, Optional, Union


class ParseError(ValueError):
    def __init__(self, message: str, position: int):
        super().__init__(f"{message} at position {position}")
        self.position = position


class FragmentError(ValueError):
    """A formula lies outside the fragment an operation requires."""


class VocabularyError(ValueError):
    """Symbol clash, arity mismatch, or a function symbol in a relational vocabulary."""


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
        m = re.fullmatch(r"pred\s+(\w+)/(\d+)", line)
        if m:
            preds[m.group(1)] = int(m.group(2))
            continue
        m = re.fullmatch(r"fun\s+(\w+)/(\d+)", line)
        if m:
            funcs[m.group(1)] = int(m.group(2))
            continue
        m = re.fullmatch(r"const\s+(\w+)", line)
        if m:
            consts.add(m.group(1))
            continue
        raise VocabularyError(f"line {lineno}: cannot parse {raw!r}")
    return Vocabulary(preds, funcs, frozenset(consts), relational)


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

BOTTOM = TruthConst(False)
TOP = TruthConst(True)

_BINARY = (StrongConj, Meet, Join, Impl, Biimpl)
_QUANT = (Forall, Exists)


def term_vars(t: Term) -> set[str]:
    if isinstance(t, Var):
        return {t.name}
    if isinstance(t, Const):
        return set()
    out: set[str] = set()
    for a in t.args:
        out |= term_vars(a)
    return out


def term_depth(t: Term) -> int:
    if isinstance(t, App):
        return 1 + max(term_depth(a) for a in t.args)
    return 0


def free_vars(phi: Formula) -> set[str]:
    if isinstance(phi, Atom):
        out: set[str] = set()
        for t in phi.args:
            out |= term_vars(t)
        return out
    if isinstance(phi, TruthConst):
        return set()
    if isinstance(phi, Neg):
        return free_vars(phi.body)
    if isinstance(phi, _BINARY):
        return free_vars(phi.left) | free_vars(phi.right)
    if isinstance(phi, _QUANT):
        return free_vars(phi.body) - {phi.var}
    raise TypeError(f"not a formula: {phi!r}")


def is_sentence(phi: Formula) -> bool:
    return not free_vars(phi)


def subformulas(phi: Formula) -> Iterator[Formula]:
    yield phi
    if isinstance(phi, Neg):
        yield from subformulas(phi.body)
    elif isinstance(phi, _BINARY):
        yield from subformulas(phi.left)
        yield from subformulas(phi.right)
    elif isinstance(phi, _QUANT):
        yield from subformulas(phi.body)


def atoms_of(phi: Formula) -> list[Atom]:
    """Distinct atoms in first-occurrence order."""
    seen: dict[Atom, None] = {}
    for sub in subformulas(phi):
        if isinstance(sub, Atom):
            seen.setdefault(sub)
    return list(seen)


def is_literal(phi: Formula) -> bool:
    return isinstance(phi, Atom) or (isinstance(phi, Neg) and isinstance(phi.body, Atom))


@dataclass(frozen=True)
class Classification:
    is_literal: bool
    is_lattice_literal_combination: bool
    is_purely_universal: bool
    is_relational: bool
    is_sentence: bool


def _is_lattice_literal(phi: Formula) -> bool:
    if is_literal(phi):
        return True
    if isinstance(phi, (Meet, Join)):
        return _is_lattice_literal(phi.left) and _is_lattice_literal(phi.right)
    return False


def is_quantifier_free(phi: Formula) -> bool:
    return not any(isinstance(s, _QUANT) for s in subformulas(phi))


def split_universal_prefix(phi: Formula) -> tuple[list[str], Formula]:
    prefix: list[str] = []
    while isinstance(phi, Forall):
        prefix.append(phi.var)
        phi = phi.body
    return prefix, phi


def classify(phi: Formula) -> Classification:
    _, matrix = split_universal_prefix(phi)
    relational = not any(
        isinstance(t, App)
        for s in subformulas(phi)
        if isinstance(s, Atom)
        for arg in s.args
        for t in _walk_terms(arg)
    )
    return Classification(
        is_literal=is_literal(phi),
        is_lattice_literal_combination=_is_lattice_literal(phi),
        is_purely_universal=is_quantifier_free(matrix),
        is_relational=relational,
        is_sentence=is_sentence(phi),
    )


def _walk_terms(t: Term) -> Iterator[Term]:
    yield t
    if isinstance(t, App):
        for a in t.args:
            yield from _walk_terms(a)


def vocabulary_of(phi: Formula, relational: bool = False) -> Vocabulary:
    """The minimal vocabulary of the symbols occurring in a formula."""
    preds: dict[str, int] = {}
    funcs: dict[str, int] = {}
    consts: set[str] = set()
    for sub in subformulas(phi):
        if isinstance(sub, Atom):
            preds.setdefault(sub.pred, len(sub.args))
            for arg in sub.args:
                for t in _walk_terms(arg):
                    if isinstance(t, Const):
                        consts.add(t.name)
                    elif isinstance(t, App):
                        funcs.setdefault(t.func, len(t.args))
    if relational and funcs:
        raise VocabularyError("formula uses function symbols in a relational context")
    return Vocabulary(preds, funcs, frozenset(consts), relational)


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
    if isinstance(phi, TruthConst):
        return phi
    if isinstance(phi, Neg):
        return Neg(substitute(phi.body, env))
    if isinstance(phi, _BINARY):
        return type(phi)(substitute(phi.left, env), substitute(phi.right, env))
    if isinstance(phi, _QUANT):
        inner = {k: v for k, v in env.items() if k != phi.var}
        return type(phi)(phi.var, substitute(phi.body, inner))
    raise TypeError(f"not a formula: {phi!r}")


# -- parser --------------------------------------------------------------

_TOKEN_RE = re.compile(
    r"\s*(?:(?P<forall>forall\b)|(?P<exists>exists\b)"
    r"|(?P<biimpl><->)|(?P<impl>->)|(?P<meet>/\\)|(?P<join>\\/)"
    r"|(?P<amp>&)|(?P<neg>~)|(?P<lpar>\()|(?P<rpar>\))|(?P<comma>,)|(?P<dot>\.)"
    r"|(?P<zero>0)|(?P<one>1)|(?P<name>[A-Za-z_][A-Za-z0-9_]*))"
)


def _tokenize(text: str) -> list[tuple[str, str, int]]:
    tokens = []
    pos = 0
    while pos < len(text):
        m = _TOKEN_RE.match(text, pos)
        if not m or m.end() == pos:
            rest = text[pos:].lstrip()
            if not rest:
                break
            raise ParseError(f"unexpected character {rest[0]!r}", pos)
        kind = m.lastgroup
        tokens.append((kind, m.group(kind), m.start(kind)))
        pos = m.end()
    tokens.append(("eof", "", len(text)))
    return tokens


# token kind -> (precedence, node); a higher precedence binds tighter
_BINARY_TOKENS = {"biimpl": (1, Biimpl), "impl": (2, Impl), "join": (3, Join),
                  "meet": (4, Meet), "amp": (5, StrongConj)}

# Formulas and terms may nest at most this deep, counting each connective,
# quantifier and function application on a path, and each open parenthesis.
# The parser and every recursive transform (NNF, star, printing, evaluation)
# stay well inside Python's default recursion limit below it.
MAX_NESTING = 100


class _Parser:
    def __init__(self, tokens, vocab: Optional[Vocabulary], infer: bool):
        self.tokens = tokens
        self.i = 0
        self.vocab = vocab
        self.infer = infer
        self.inferred_preds: dict[str, int] = {}
        self.inferred_funcs: dict[str, int] = {}
        self.bound_stack: list[str] = []
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
            kind, _, pos = self.peek()
            if kind not in _BINARY_TOKENS or _BINARY_TOKENS[kind][0] < min_prec:
                return lhs
            prec, node = _BINARY_TOKENS[kind]
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
            self.bound_stack.append(var)
            body = self._nested(pos, self.unary)
            self._rise(self.height + 1, pos)
            self.bound_stack.pop()
            return Forall(var, body) if kind == "forall" else Exists(var, body)
        if kind == "lpar":
            self.next()
            inner = self._nested(pos, self.formula)
            tok = self.next()
            if tok[0] != "rpar":
                raise ParseError("unbalanced parenthesis", tok[2])
            return inner
        if kind == "zero":
            self.next()
            self.height = 1
            return BOTTOM
        if kind == "one":
            self.next()
            self.height = 1
            return TOP
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
        if self.infer:
            arity = self.inferred_preds.setdefault(name, len(args))
            if arity != len(args):
                raise ParseError(
                    f"predicate {name} used with arities {arity} and {len(args)}", name_tok[2]
                )
        else:
            if name not in self.vocab.predicates:
                raise ParseError(f"undeclared predicate {name}", name_tok[2])
            if self.vocab.predicates[name] != len(args):
                raise ParseError(
                    f"predicate {name} expects {self.vocab.predicates[name]} arguments, got {len(args)}",
                    name_tok[2],
                )
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
            if self.infer:
                arity = self.inferred_funcs.setdefault(text, len(args))
                if arity != len(args):
                    raise ParseError(
                        f"function {text} used with arities {arity} and {len(args)}", pos
                    )
            else:
                if self.vocab.relational:
                    raise ParseError(
                        f"function symbol {text} not permitted in relational vocabulary", pos
                    )
                if text not in self.vocab.functions:
                    raise ParseError(f"undeclared function {text}", pos)
                if self.vocab.functions[text] != len(args):
                    raise ParseError(
                        f"function {text} expects {self.vocab.functions[text]} arguments, got {len(args)}",
                        pos,
                    )
            return App(text, args)
        self.height = 1
        if self.infer:
            if text in self.bound_stack:
                return Var(text)
            return Const(text)
        if text in self.vocab.constants:
            return Const(text)
        return Var(text)


def rename_apart(phi: Formula) -> Formula:
    """Rename bound variables so every binder is distinct: x, x_1, x_2, ..."""
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

    def walk(phi: Formula, env: dict[str, str]) -> Formula:
        if isinstance(phi, Atom):
            return substitute(phi, {k: Var(v) for k, v in env.items()})
        if isinstance(phi, TruthConst):
            return phi
        if isinstance(phi, Neg):
            return Neg(walk(phi.body, env))
        if isinstance(phi, _BINARY):
            return type(phi)(walk(phi.left, env), walk(phi.right, env))
        if isinstance(phi, _QUANT):
            new = fresh(phi.var)
            inner = dict(env)
            inner[phi.var] = new
            return type(phi)(new, walk(phi.body, inner))
        raise TypeError(f"not a formula: {phi!r}")

    return walk(phi, {})


def parse(text: str, vocab: Optional[Vocabulary] = None) -> Formula:
    """Parse a formula; with vocab=None symbols are inferred from use."""
    tokens = _tokenize(text)
    p = _Parser(tokens, vocab, infer=vocab is None)
    phi = p.formula()
    tok = p.peek()
    if tok[0] != "eof":
        raise ParseError(f"unexpected trailing input {tok[1]!r}", tok[2])
    return rename_apart(phi)


# -- printer -------------------------------------------------------------

_PREC = {Biimpl: 1, Impl: 2, Join: 3, Meet: 4, StrongConj: 5}
_OPTXT = {Biimpl: "<->", Impl: "->", Join: "\\/", Meet: "/\\", StrongConj: "&"}
_UNARY_PREC = 6


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
            if _is_unary_shape(phi.body):
                return f"{q} {phi.var}. {go(phi.body, _UNARY_PREC)}"
            return f"{q} {phi.var}. ({go(phi.body, 0)})"
        prec = _PREC[type(phi)]
        if isinstance(phi, Impl):
            text = f"{go(phi.left, prec + 1)} {_OPTXT[type(phi)]} {go(phi.right, prec)}"
        else:
            text = f"{go(phi.left, prec)} {_OPTXT[type(phi)]} {go(phi.right, prec + 1)}"
        if prec < parent_prec:
            return f"({text})"
        return text

    return go(phi, 0)


def _is_unary_shape(phi: Formula) -> bool:
    return isinstance(phi, (Atom, TruthConst, Neg, Forall, Exists))


# -- star translation ----------------------------------------------------

def star_translate(phi: Formula) -> Formula:
    """Square every literal; commutes with meet, join and both quantifiers.

    Only defined on combinations of literals under /\\, \\/, forall, exists.
    """
    if is_literal(phi):
        return StrongConj(phi, phi)
    if isinstance(phi, (Meet, Join)):
        return type(phi)(star_translate(phi.left), star_translate(phi.right))
    if isinstance(phi, _QUANT):
        return type(phi)(phi.var, star_translate(phi.body))
    raise FragmentError(
        f"star translation undefined on node {format_formula(phi)!r}: "
        "only literals combined with /\\, \\/ and quantifiers are allowed"
    )


# -- classical negation normal form --------------------------------------

def _fold(phi: Formula) -> Formula:
    """Drop truth constants from lattice combinations where possible."""
    if isinstance(phi, (Meet, Join)):
        unit, zero = (TOP, BOTTOM) if isinstance(phi, Meet) else (BOTTOM, TOP)
        if phi.left == unit:
            return phi.right
        if phi.right == unit:
            return phi.left
        if zero in (phi.left, phi.right):
            return zero
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
    the vocabulary already uses).  Raises VocabularyError when a relational
    vocabulary would need a Skolem function of arity >= 1.
    """
    if free_vars(phi):
        raise FragmentError("skolemize expects a sentence")
    taken = set(vocab.all_names())
    counter = 0

    def fresh_name() -> str:
        nonlocal counter
        while f"sk_{counter}" in taken:
            counter += 1
        name = f"sk_{counter}"
        taken.add(name)
        counter += 1
        return name

    new_vocab = vocab

    def walk(phi: Formula, universals: tuple[str, ...]) -> Formula:
        nonlocal new_vocab
        if isinstance(phi, (Atom, TruthConst)):
            return phi
        if isinstance(phi, Neg):
            return Neg(walk(phi.body, universals))
        if isinstance(phi, _BINARY):
            return type(phi)(walk(phi.left, universals), walk(phi.right, universals))
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
                term: Term = App(name, tuple(Var(v) for v in universals))
            else:
                name = fresh_name()
                new_vocab = new_vocab.with_constants([name])
                term = Const(name)
            return walk(substitute(phi.body, {phi.var: term}), universals)
        raise TypeError(f"not a formula: {phi!r}")

    return walk(phi, ()), new_vocab


def pull_universals(phi: Formula) -> Formula:
    """Move all universal quantifiers of an exists-free NNF formula to a prefix."""
    prefix: list[str] = []

    def strip(phi: Formula) -> Formula:
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


# -- Herbrand universe ---------------------------------------------------

DEFAULT_HERBRAND_CONSTANT = "c0"


def ensure_constant(vocab: Vocabulary) -> Vocabulary:
    """Guarantee a nonempty set of constants (Herbrand convention)."""
    if vocab.constants:
        return vocab
    return vocab.with_constants([DEFAULT_HERBRAND_CONSTANT])


def herbrand_universe(vocab: Vocabulary, depth: int) -> list[Term]:
    """All closed terms of nesting depth <= depth, by depth then lexicographically."""
    vocab = ensure_constant(vocab)
    by_depth: list[list[Term]] = [
        sorted((Const(c) for c in vocab.constants), key=format_term)
    ]
    universe: list[Term] = list(by_depth[0])
    for d in range(1, depth + 1):
        level: list[Term] = []
        shallower = [t for lvl in by_depth for t in lvl]
        for f in sorted(vocab.functions):
            arity = vocab.functions[f]
            for args in itertools.product(shallower, repeat=arity):
                if max(term_depth(a) for a in args) == d - 1:
                    level.append(App(f, args))
        level.sort(key=format_term)
        by_depth.append(level)
        universe.extend(level)
    return universe
