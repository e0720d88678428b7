"""Exact Tarski-style evaluation over finite-domain structures.

Domains are 0..domain_size-1; predicate values are chain ranks (finite
chains) or exact rationals (standard chain).  Quantifiers are min/max over
the domain, so all infima/suprema are attained.
"""

from __future__ import annotations

import itertools
import math
import re
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Callable, Iterator, Optional, Sequence, Union

from .chains import FiniteChain, StandardChain
from .syntax import (
    Atom, TruthConst, Neg, StrongConj, Meet, Join, Impl, Biimpl, Forall, Exists,
    Formula, Term, Var, Const, Vocabulary,
)

TruthValue = Union[int, Fraction]
Chain = Union[FiniteChain, StandardChain]


class EvalError(ValueError):
    """Uninterpreted symbol or unbound variable during evaluation."""


class BudgetExceededError(RuntimeError):
    def __init__(self, space: int, budget: int, unit: str = "structures"):
        super().__init__(f"search space of {space} {unit} exceeds budget {budget}")
        self.space = space
        self.budget = budget


class EvaluatorMismatchError(RuntimeError):
    """The compiled evaluator and the reference `eval` disagree: an implementation bug."""


DEFAULT_BUDGET = 10**7


@dataclass(frozen=True)
class Structure:
    """A finite-domain interpretation with total tables."""

    domain_size: int
    constants: dict[str, int] = field(default_factory=dict)
    functions: dict[str, dict[tuple[int, ...], int]] = field(default_factory=dict)
    predicates: dict[str, dict[tuple[int, ...], TruthValue]] = field(default_factory=dict)

    def describe(self) -> str:
        lines = [f"domain {self.domain_size}"]
        for c in sorted(self.constants):
            lines.append(f"const {c} = {self.constants[c]}")
        for f in sorted(self.functions):
            table = self.functions[f]
            vals = " ".join(str(table[k]) for k in sorted(table))
            lines.append(f"fun {f} : {vals}")
        for p in sorted(self.predicates):
            table = self.predicates[p]
            vals = " ".join(_format_value(table[k]) for k in sorted(table))
            lines.append(f"pred {p} : {vals}")
        return "\n".join(lines)


def _format_value(v: TruthValue) -> str:
    if isinstance(v, int):
        return f"#{v}"
    return f"{v.numerator}/{v.denominator}"


def eval_term(structure: Structure, t: Term, assignment: dict[str, int]) -> int:
    if isinstance(t, Var):
        if t.name not in assignment:
            raise EvalError(f"unbound variable {t.name}")
        return assignment[t.name]
    if isinstance(t, Const):
        if t.name not in structure.constants:
            raise EvalError(f"uninterpreted constant {t.name}")
        return structure.constants[t.name]
    if t.func not in structure.functions:
        raise EvalError(f"uninterpreted function {t.func}")
    return _entry(structure.functions, t.func,
                  tuple(eval_term(structure, a, assignment) for a in t.args))


def _entry(tables: dict, name: str, args: tuple):
    try:
        return tables[name][args]
    except KeyError:
        raise EvalError(f"{name} has no entry for the arguments {args}") from None


def eval(chain: Chain, structure: Structure, phi: Formula,
         assignment: Optional[dict[str, int]] = None) -> TruthValue:
    """Truth value of phi in the structure under the assignment.

    The structure is checked against the chain first (`check_structure`).
    On the standard chain the values are then scaled to integer ranks over
    their least common denominator d and evaluated in the Lukasiewicz chain
    {0, 1/d, .., 1}, a subalgebra of [0, 1]; the result is a Fraction.
    """
    check_structure(structure, chain)
    predicates = structure.predicates
    if chain.size is None:
        d = math.lcm(*(v.denominator for table in predicates.values() for v in table.values()))
        chain = StandardChain(d)
        predicates = {p: {key: v.numerator * (d // v.denominator) for key, v in table.items()}
                      for p, table in predicates.items()}

    def atom(p: Atom, a: dict[str, int]) -> TruthValue:
        if p.pred not in predicates:
            raise EvalError(f"uninterpreted predicate {p.pred}")
        return _entry(predicates, p.pred, tuple(eval_term(structure, t, a) for t in p.args))
    value = _walk(chain, phi, atom, range(structure.domain_size), assignment or {})
    return value if chain.size else Fraction(value, chain.top)


def eval_propositional(chain: Chain, valuation: dict[Atom, TruthValue], phi: Formula) -> TruthValue:
    """Truth value of a quantifier-free closed formula under a valuation of its atoms."""
    def atom(p: Atom, a: dict[str, int]) -> TruthValue:
        if p not in valuation:
            raise EvalError(f"no valuation for atom {p.pred}{p.args}")
        return valuation[p]
    return _walk(chain, phi, atom, None, {})


_BINARY = {StrongConj: "tnorm", Impl: "residuum", Meet: "meet", Join: "join", Biimpl: "biimpl"}


def _walk(chain: Chain, phi: Formula, atom: Callable, domain: Optional[range],
          a: dict[str, int]) -> TruthValue:
    """The one recursive evaluator behind `eval` and `eval_propositional`.

    `atom(p, a)` is the value of the atom p under the assignment a.  The
    connectives are the chain's operations (~ is its negation, x -> 0, and
    <-> its biimplication, the meet of the two residua).  Quantifiers are
    min/max over `domain`; with no domain they are refused.
    """
    if isinstance(phi, Atom):
        return atom(phi, a)
    if isinstance(phi, TruthConst):
        return chain.top if phi.top else chain.bot
    if isinstance(phi, Neg):
        return chain.neg(_walk(chain, phi.body, atom, domain, a))
    op = _BINARY.get(type(phi))
    if op is not None:
        return getattr(chain, op)(_walk(chain, phi.left, atom, domain, a),
                                  _walk(chain, phi.right, atom, domain, a))
    if domain is None:
        raise TypeError(f"quantifier-free formula expected, got {phi!r}")
    if isinstance(phi, (Forall, Exists)):
        pick = min if isinstance(phi, Forall) else max
        return pick(_walk(chain, phi.body, atom, domain, {**a, phi.var: d}) for d in domain)
    raise TypeError(f"not a formula: {phi!r}")


def structure_space_size(vocab: Vocabulary, chain: FiniteChain, domain_size: int) -> int:
    n = domain_size
    space = n ** len(vocab.constants)
    for f, arity in vocab.functions.items():
        space *= n ** (n ** arity)
    for p, arity in vocab.predicates.items():
        space *= chain.size ** (n ** arity)
    return space


@dataclass(frozen=True)
class FlatLayout:
    """Where each symbol's table sits in a flat tuple of values.

    The layout is [constants..., function tables..., predicate tables...],
    symbols sorted by name within each group and every table row-major over
    its argument tuples.  `itertools.product(*ranges)` therefore visits the
    structures in exactly the order of `enumerate_structures`.
    """

    domain_size: int
    const_names: tuple[str, ...]
    functions: tuple[tuple[str, int], ...]
    predicates: tuple[tuple[str, int], ...]
    offsets: dict[str, int]
    ranges: tuple[range, ...]

    def structure(self, values: Sequence[int]) -> Structure:
        n = self.domain_size

        def tables(symbols):
            return {name: dict(zip(itertools.product(range(n), repeat=arity),
                                   values[self.offsets[name]:self.offsets[name] + n ** arity]))
                    for name, arity in symbols}
        return Structure(n, dict(zip(self.const_names, values)),
                         tables(self.functions), tables(self.predicates))


def flat_layout(vocab: Vocabulary, chain: FiniteChain, domain_size: int,
                budget: int = DEFAULT_BUDGET) -> FlatLayout:
    """The flat layout of every structure for the vocabulary, after the budget check."""
    space = structure_space_size(vocab, chain, domain_size)
    if space > budget:
        raise BudgetExceededError(space, budget)
    n = domain_size
    const_names = tuple(sorted(vocab.constants))
    functions = tuple((f, vocab.functions[f]) for f in sorted(vocab.functions))
    predicates = tuple((p, vocab.predicates[p]) for p in sorted(vocab.predicates))
    offsets = {c: i for i, c in enumerate(const_names)}
    ranges = [range(n)] * len(const_names)
    for symbols, values in ((functions, range(n)), (predicates, range(chain.size))):
        for name, arity in symbols:
            offsets[name] = len(ranges)
            ranges += [values] * n ** arity
    return FlatLayout(n, const_names, functions, predicates, offsets, tuple(ranges))


def enumerate_structures(vocab: Vocabulary, chain: FiniteChain, domain_size: int,
                         budget: int = DEFAULT_BUDGET) -> Iterator[Structure]:
    """Every structure for the vocabulary, exactly once, deterministically.

    Order: constants (sorted by name) outermost, then function tables, then
    predicate tables, each table in row-major rank order.
    """
    layout = flat_layout(vocab, chain, domain_size, budget)
    for values in itertools.product(*layout.ranges):
        yield layout.structure(values)


# -- compiled evaluation ---------------------------------------------------

def compile_formula(phi: Formula, chain: FiniteChain,
                    layout: FlatLayout) -> Callable[[Sequence[int]], int]:
    """phi as a function of a flat value tuple in `layout`, over `chain`.

    Equal to `eval` on `layout.structure(values)` for every values tuple.  The
    formula becomes nested closures: one integer slot per binder, the chain's
    t-norm and residuum tables indexed directly, and the meet, join, strong
    conjunction, implication and both quantifiers cut short once the value is
    settled.  Raises EvalError here, not per structure, for what `eval` would
    reject on the first structure.
    """
    n = layout.domain_size
    dom = range(n)
    offsets = layout.offsets
    consts = set(layout.const_names)
    funcs = {f for f, _ in layout.functions}
    preds = {p for p, _ in layout.predicates}
    bot, top = chain.bot, chain.top
    tnorm, res = chain.tnorm_table, chain.residuum_table
    neg = tuple(row[bot] for row in res)
    env: list[int] = []

    # A term compiles to ("var", slot), ("const", offset) or ("app", closure).
    def term(t: Term, scope: dict[str, int]):
        if isinstance(t, Var):
            if t.name not in scope:
                raise EvalError(f"unbound variable {t.name}")
            return "var", scope[t.name]
        if isinstance(t, Const):
            if t.name not in consts:
                raise EvalError(f"uninterpreted constant {t.name}")
            return "const", offsets[t.name]
        if t.func not in funcs:
            raise EvalError(f"uninterpreted function {t.func}")
        return "app", lookup(offsets[t.func], [term(a, scope) for a in t.args])

    def getter(kind: str, x):
        if kind == "var":
            return lambda v: env[x]
        if kind == "const":
            return lambda v: v[x]
        return x

    def lookup(base: int, args: list):
        """A closure reading v[base + row-major index of the args' values]."""
        kinds = tuple(kind for kind, _ in args)
        xs = [x for _, x in args]
        if kinds == ():
            return lambda v: v[base]
        if kinds == ("var",):
            s0, = xs
            return lambda v: v[base + env[s0]]
        if kinds == ("const",):
            c0, = xs
            return lambda v: v[base + v[c0]]
        if kinds == ("var", "var"):
            s0, s1 = xs
            return lambda v: v[base + env[s0] * n + env[s1]]
        getters = [getter(kind, x) for kind, x in args]
        if len(getters) == 1:
            g0, = getters
            return lambda v: v[base + g0(v)]

        def read(v):
            i = 0
            for g in getters:
                i = i * n + g(v)
            return v[base + i]
        return read

    def formula(phi: Formula, scope: dict[str, int]):
        if isinstance(phi, Atom):
            if phi.pred not in preds:
                raise EvalError(f"uninterpreted predicate {phi.pred}")
            return lookup(offsets[phi.pred], [term(t, scope) for t in phi.args])
        if isinstance(phi, TruthConst):
            value = top if phi.top else bot
            return lambda v: value
        if isinstance(phi, Neg):
            body = formula(phi.body, scope)
            return lambda v: neg[body(v)]
        if isinstance(phi, (Forall, Exists)):
            slot = len(env)
            env.append(0)
            body = formula(phi.body, {**scope, phi.var: slot})
            if isinstance(phi, Forall):
                def forall(v):
                    best = top
                    for d in dom:
                        env[slot] = d
                        x = body(v)
                        if x < best:
                            if x == bot:
                                return bot
                            best = x
                    return best
                return forall

            def exists(v):
                best = bot
                for d in dom:
                    env[slot] = d
                    x = body(v)
                    if x > best:
                        if x == top:
                            return top
                        best = x
                return best
            return exists
        if not isinstance(phi, (StrongConj, Impl, Meet, Join, Biimpl)):
            raise TypeError(f"not a formula: {phi!r}")
        left = formula(phi.left, scope)
        if isinstance(phi, StrongConj) and phi.left == phi.right:
            # the squares the star translation puts on every literal
            square = tuple(tnorm[x][x] for x in range(chain.size))
            return lambda v: square[left(v)]
        right = formula(phi.right, scope)
        if isinstance(phi, StrongConj):
            def strong_conj(v):
                x = left(v)
                return bot if x == bot else tnorm[x][right(v)]
            return strong_conj
        if isinstance(phi, Impl):
            def impl(v):
                x = left(v)
                return top if x == bot else res[x][right(v)]
            return impl
        if isinstance(phi, Meet):
            def meet(v):
                x = left(v)
                if x == bot:
                    return bot
                y = right(v)
                return x if x < y else y
            return meet
        if isinstance(phi, Join):
            def join(v):
                x = left(v)
                if x == top:
                    return top
                y = right(v)
                return x if x > y else y
            return join

        def biimpl(v):
            x = left(v)
            y = right(v)
            a = res[x][y]
            b = res[y][x]
            return a if a < b else b
        return biimpl

    compiled = formula(phi, {})
    # `formula` refers to itself and holds the chain's tables: unlinked, they
    # are freed with the compiled closures, not at a later cyclic collection
    del formula
    return compiled


# -- structure file format -----------------------------------------------

def parse_structure_file(text: str, vocab: Optional[Vocabulary] = None) -> Structure:
    """Parse `domain <n>` / `const c = <i>` / `fun f : ...` / `pred P : ...` lines.

    Function and predicate tables are row-major over the argument tuples in
    lexicographic order; predicate values are ranks `#k` or rationals `p/q`.
    """
    domain_size = None
    constants: dict[str, int] = {}
    fun_rows: dict[str, list[int]] = {}
    pred_rows: dict[str, list[TruthValue]] = {}
    declared: dict[str, int] = {}  # "domain" or "<keyword> <name>" -> its line
    for lineno, raw in enumerate(text.splitlines(), 1):
        line = raw.strip()
        # on pred lines `#k` is a rank, so a comment there is a `#` standing alone
        line = (_PRED_COMMENT.split(line, 1)[0] if line.startswith("pred")
                else line.split("#", 1)[0]).strip()
        if not line:
            continue
        keyword, _, body = line.partition(" ")
        if keyword == "domain":
            domain_size = _parse_token(lineno, "domain", body.strip(), int)
        elif keyword == "const":
            name, eq, val = (part.strip() for part in body.partition("="))
            if not name or not eq:
                raise ValueError(f"line {lineno}: expected 'const <name> = <element>'")
            constants[name] = _parse_token(lineno, f"const {name}", val, int)
        elif keyword in ("fun", "pred"):
            name, colon, vals = (part.strip() for part in body.partition(":"))
            if not name or not colon:
                raise ValueError(f"line {lineno}: expected '{keyword} <name> : <values>'")
            parse_one = int if keyword == "fun" else _parse_value
            rows = fun_rows if keyword == "fun" else pred_rows
            rows[name] = [_parse_token(lineno, f"{keyword} {name}", v, parse_one)
                          for v in vals.split()]
        else:
            raise ValueError(f"line {lineno}: cannot parse {raw!r}")
        symbol = keyword if keyword == "domain" else f"{keyword} {name}"
        if symbol in declared:
            raise ValueError(f"line {lineno}: {symbol} is already declared on line {declared[symbol]}")
        declared[symbol] = lineno
    if domain_size is None:
        raise ValueError("structure file must declare 'domain <n>'")
    if domain_size < 1:
        raise ValueError(f"domain size must be at least 1, got {domain_size}")
    n = domain_size
    functions = {f: _table("fun", f, vals, n, vocab.functions if vocab else {})
                 for f, vals in fun_rows.items()}
    predicates = {p: _table("pred", p, vals, n, vocab.predicates if vocab else {})
                  for p, vals in pred_rows.items()}
    return Structure(n, constants, functions, predicates)


_PRED_COMMENT = re.compile(r"(?:^|\s)#(?=\s|$)")


def _table(kind: str, name: str, vals: list, n: int, arities: dict[str, int]) -> dict:
    """Key a row-major table by argument tuples; the vocabulary's arity wins."""
    if name in arities:
        arity = arities[name]
        if len(vals) != n ** arity:
            raise ValueError(f"{kind} {name}: expected {n ** arity} values, got {len(vals)}")
    else:
        arity = _infer_arity(len(vals), n, name)
    return dict(zip(itertools.product(range(n), repeat=arity), vals))


def check_structure(structure: Structure, chain: Chain) -> None:
    """Raise ValueError unless the tables are total and every value lies in
    the domain or the chain.

    Constants and function values must be int elements of the domain, and
    each table's keys exactly the argument tuples of one arity.  On a finite
    chain a predicate value must be a rank; on the standard chain, an int or
    Fraction in [0, 1].
    """
    n = structure.domain_size
    if not isinstance(n, int) or n < 1:
        raise ValueError(f"domain size must be an int of at least 1, got {n!r}")
    for c, v in sorted(structure.constants.items()):
        if not isinstance(v, int) or not 0 <= v < n:
            raise ValueError(f"const {c} = {v!r} is outside the domain 0..{n - 1}")
    for f, table in sorted(structure.functions.items()):
        _check_keys("fun", f, table, n)
        for v in table.values():
            if not isinstance(v, int) or not 0 <= v < n:
                raise ValueError(f"fun {f}: value {v!r} is outside the domain 0..{n - 1}")
    for p, table in sorted(structure.predicates.items()):
        _check_keys("pred", p, table, n)
        for v in table.values():
            if chain.size is None:
                if not isinstance(v, (int, Fraction)) or not 0 <= v <= 1:
                    raise ValueError(f"pred {p}: value {v} is not an int or Fraction "
                                     f"in [0, 1] of the standard chain")
            elif not isinstance(v, int) or not 0 <= v < chain.size:
                raise ValueError(f"pred {p}: value {_format_value(v)} is not a rank "
                                 f"#0..#{chain.size - 1} of the size-{chain.size} chain")


def _check_keys(kind: str, name: str, table: dict, n: int) -> None:
    first = next(iter(table), None)
    arity = len(first) if isinstance(first, tuple) else 0
    if set(table) != set(itertools.product(range(n), repeat=arity)):
        raise ValueError(f"{kind} {name}: the table's keys are not the {n ** arity} "
                         f"argument tuples of arity {arity} over the domain 0..{n - 1}")


def _infer_arity(count: int, n: int, name: str) -> int:
    if n == 1:
        # every arity gives a 1-entry table over a singleton domain
        if count != 1:
            raise ValueError(f"table for {name} has {count} entries over domain size 1")
        return 1
    arity = 0
    size = 1
    while size < count:
        size *= n
        arity += 1
    if size != count:
        raise ValueError(f"table for {name} has {count} entries, not a power of domain size {n}")
    return arity


def _parse_token(lineno: int, symbol: str, tok: str, parse_one: Callable):
    """parse_one(tok), or a one-line ValueError naming the line and the symbol."""
    try:
        return parse_one(tok)
    except (ValueError, ZeroDivisionError) as exc:
        reason = ": zero denominator" if isinstance(exc, ZeroDivisionError) else ""
        raise ValueError(f"line {lineno}: {symbol}: bad value {tok!r}{reason}") from None


def _parse_value(tok: str) -> TruthValue:
    """A rank `#k`, or a rational `p/q` or `p`."""
    if tok.startswith("#"):
        return int(tok[1:])
    num, slash, den = tok.partition("/")
    return Fraction(int(num), int(den) if slash else 1)


def format_structure_file(structure: Structure) -> str:
    return structure.describe() + "\n"
