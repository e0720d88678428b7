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
    Formula, Term, Var, Const, Vocabulary, decimal,
)

TruthValue = Union[int, Fraction]
Chain = Union[FiniteChain, StandardChain]


class EvalError(ValueError):
    """Uninterpreted symbol or unbound variable during evaluation."""


def _count_text(n: int) -> str:
    """n in decimal, or `about 10^k` where str() refuses its digits."""
    try:
        return str(n)
    except ValueError:
        k = int(math.log10(n))  # the float may be one off; exact powers settle it
        k += 10 ** (k + 1) <= n
        k -= 10 ** k > n
        return f"about 10^{k}"


def _power_text(base: int, exp: int) -> str:
    """base ** exp as `_count_text` names it or, when it has over 2^15 bits,
    as `base^exp` without building it."""
    if exp * (base.bit_length() - 1) >= 1 << 15:
        return f"{_count_text(base)}^{exp}"
    return _count_text(base ** exp)


class BudgetExceededError(RuntimeError):
    def __init__(self, space: int, budget: int, unit: str = "structures"):
        super().__init__(f"search space of {_count_text(space)} {unit} exceeds budget {budget}")
        self.space = space
        self.budget = budget


class EvaluatorMismatchError(RuntimeError):
    """A search's witness value disagrees with the reference `eval`: an implementation bug."""


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
    return _entry(structure.functions[t.func], t.func,
                  tuple(eval_term(structure, a, assignment) for a in t.args))


def _entry(table: dict, name: str, args: tuple):
    try:
        return table[args]
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
        table = predicates.get(p.pred)
        if table is None:
            raise EvalError(f"uninterpreted predicate {p.pred}")
        # a bound variable is read directly; anything else keeps eval_term's
        # errors.  A plain loop: a comprehension costs a frame per atom.
        key = ()
        for t in p.args:
            key += (a[t.name] if type(t) is Var and t.name in a else eval_term(structure, t, a),)
        return _entry(table, p.pred, key)
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
    min/max over `domain`; with no domain they are refused.  A fold stops
    once it is settled (bot for a min, top for a max): its first element
    has by then visited every subformula, so no error of a symbol or a
    variable goes unraised.
    """
    kind = type(phi)
    op = _BINARY.get(kind)
    if op is not None:
        return getattr(chain, op)(_walk(chain, phi.left, atom, domain, a),
                                  _walk(chain, phi.right, atom, domain, a))
    if kind is Atom:
        return atom(phi, a)
    if kind is Neg:
        return chain.neg(_walk(chain, phi.body, atom, domain, a))
    if kind is TruthConst:
        return chain.top if phi.top else chain.bot
    if domain is None:
        raise TypeError(f"quantifier-free formula expected, got {phi!r}")
    if kind is not Forall and kind is not Exists:
        raise TypeError(f"not a formula: {phi!r}")
    forall = kind is Forall
    value, settled = (chain.top, chain.bot) if forall else (chain.bot, chain.top)
    var, body, b = phi.var, phi.body, dict(a)  # one assignment per binder visit
    for d in domain:
        b[var] = d
        x = _walk(chain, body, atom, domain, b)
        if x < value if forall else x > value:
            value = x
            if x == settled:
                break
    return value


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


# -- byte-sliced evaluation ------------------------------------------------

# The most structures a chunk holds.
CHUNK_LIMIT = 4096
# Two ranks of a chain up to this size pack into one byte, four bits each.
MAX_SLICED_CHAIN = 16


def _pair_table(op: Callable[[int, int], int], k: int) -> bytes:
    """op over ranks below k, indexed by the packed byte (x << 4) | y."""
    table = bytearray(256)
    for x in range(k):
        for y in range(k):
            table[x << 4 | y] = op(x, y)
    return bytes(table)


_MIN = bytes(min(i >> 4, i & 15) for i in range(256))
_MAX = bytes(max(i >> 4, i & 15) for i in range(256))


def compile_chunks(phi: Formula, chain: FiniteChain, layout: FlatLayout,
                   ) -> Optional[tuple[tuple[range, ...], Callable[[Sequence[int]], bytes]]]:
    """phi over chunks of consecutive structures, as (prefix, evaluate).

    A chunk is the structures that share every slot but the longest
    trailing run of predicate slots with at most CHUNK_LIMIT structures.
    The j-th chunk is fixed by the j-th tuple of `itertools.product(*prefix)`,
    and `evaluate(that tuple)` gives phi's rank on each of its structures,
    in enumeration order, one byte each.  When no predicate slot fits in a
    chunk (a predicate-free space, or a CHUNK_LIMIT below the chain's size) every
    slot sits in the prefix and a chunk is one structure.  None only when
    the chain has more than MAX_SLICED_CHAIN ranks: two ranks no longer
    pack into one byte.

    phi's symbols must be those of the layout; an unbound variable raises
    EvalError here, the error `eval` raises on the first structure.
    Constants and function tables sit in the prefix, so terms are plain
    elements.  An atom is its slot's periodic digit pattern, or one rank
    repeated for a prefix slot.  Every table is the chain's own operation, as
    in `_walk` (`neg`, `square`, or the one `_BINARY` names), over its ranks:
    ~ and squares are one `bytes.translate`; every other connective and the
    quantifier folds pack both operands' ranks into one byte per structure
    and translate through a pair table, and stop once the value is settled.
    """
    k = chain.size
    if k > MAX_SLICED_CHAIN:
        return None
    ranges = layout.ranges
    first_pred = len(ranges) - sum(layout.domain_size ** arity for _, arity in layout.predicates)
    size, cut = 1, len(ranges)
    while cut > first_pred and size * k <= CHUNK_LIMIT:
        size *= k
        cut -= 1
    n = layout.domain_size
    later = range(1, n)
    offsets = layout.offsets
    fill = [bytes([r]) * size for r in range(k)]
    all_bot, all_top = fill[chain.bot], fill[chain.top]
    # cells[i] is the predicate slot first_pred + i over the current chunk;
    # the last slot's digit changes with every structure, the one before it
    # every k structures, and so on
    cells = [all_bot] * (cut - first_pred) + [
        b"".join(fill[r][:k ** p] for r in range(k)) * (size // k ** (p + 1))
        for p in reversed(range(len(ranges) - cut))]
    neg = bytes(map(chain.neg, range(k))).ljust(256, b"\0")
    square = bytes(map(chain.square, range(k))).ljust(256, b"\0")
    env: list[int] = []

    def pair(x: bytes, y: bytes, table: bytes) -> bytes:
        packed = int.from_bytes(x, "big") << 4 | int.from_bytes(y, "big")
        return packed.to_bytes(size, "big").translate(table)

    def index(base: int, args: Sequence[Term], scope: dict[str, int]):
        """A closure giving base + the row-major index of the args' elements."""
        getters = [term(t, scope) for t in args]

        def at(v):
            i = 0
            for get in getters:
                i = i * n + get(v)
            return base + i
        return at

    def term(t: Term, scope: dict[str, int]):
        if isinstance(t, Var):
            if t.name not in scope:
                raise EvalError(f"unbound variable {t.name}")
            slot = scope[t.name]
            return lambda v: env[slot]
        if isinstance(t, Const):
            return lambda v, at=offsets[t.name]: v[at]
        at = index(offsets[t.func], t.args, scope)
        return lambda v: v[at(v)]

    # connective -> (left value that settles the result, the result then)
    settles = {Meet: (all_bot, all_bot), StrongConj: (all_bot, all_bot),
               Impl: (all_bot, all_top), Join: (all_top, all_top), Biimpl: (None, None)}
    tables = {Meet: _MIN, Join: _MAX}  # the pair tables phi uses, each built once

    def formula(phi: Formula, scope: dict[str, int]):
        if isinstance(phi, Atom):
            at = index(offsets[phi.pred] - first_pred, phi.args, scope)
            return lambda v: cells[at(v)]
        if isinstance(phi, TruthConst):
            return lambda v, value=all_top if phi.top else all_bot: value
        if isinstance(phi, Neg):
            body = formula(phi.body, scope)
            return lambda v: body(v).translate(neg)
        if isinstance(phi, (Forall, Exists)):
            slot = len(env)
            env.append(0)
            body = formula(phi.body, {**scope, phi.var: slot})
            table, settled = (_MIN, all_bot) if isinstance(phi, Forall) else (_MAX, all_top)

            def fold(v):
                env[slot] = 0
                acc = body(v)
                for d in later:
                    if acc == settled:
                        break
                    env[slot] = d
                    acc = pair(acc, body(v), table)
                return acc
            return fold
        left = formula(phi.left, scope)
        if isinstance(phi, StrongConj) and phi.left == phi.right:
            return lambda v: left(v).translate(square)
        right = formula(phi.right, scope)
        kind = type(phi)
        if kind not in tables:
            tables[kind] = _pair_table(getattr(chain, _BINARY[kind]), k)
        table, (stop, settled) = tables[kind], settles[kind]

        def connective(v):
            x = left(v)
            return settled if x == stop else pair(x, right(v), table)
        return connective

    root = formula(phi, {})
    # `formula` and `term` refer to themselves and hold the chain's tables:
    # unlinked, they are freed with the closures, not at a later cyclic collection
    del formula, term

    def evaluate(prefix: Sequence[int]) -> bytes:
        cells[:cut - first_pred] = [fill[r] for r in prefix[first_pred:]]
        return root(prefix)
    return ranges[:cut], evaluate


def first_at_least(phi: Formula, vocab: Vocabulary, chain: FiniteChain, domain_size: int,
                   least: int, budget: int = DEFAULT_BUDGET) -> Optional[tuple[Structure, int]]:
    """(structure, rank) of the first structure, in `enumerate_structures`
    order, on which phi's rank is at least `least`, or None.

    The space is checked against the budget first (`flat_layout`).  It is
    evaluated chunk by chunk (`compile_chunks`) from its first structure on,
    or, on a chain above MAX_SLICED_CHAIN ranks, by the reference scan: each
    structure of `enumerate_structures` is built and valued by `eval`.
    """
    layout = flat_layout(vocab, chain, domain_size, budget)
    chunks = compile_chunks(phi, chain, layout)
    if chunks is None:
        for structure in enumerate_structures(vocab, chain, domain_size, budget):
            value = eval(chain, structure, phi)
            if value >= least:
                return structure, value
        return None
    prefixes, evaluate = chunks
    # byte r is 1 when rank r reaches `least`; a translate table has 256 bytes
    table = bytes(least).ljust(256, b"\1")
    for prefix in itertools.product(*prefixes):
        ranks = evaluate(prefix)
        i = ranks.translate(table).find(1)
        if i >= 0:
            rest = itertools.product(*layout.ranges[len(prefix):])
            return layout.structure(prefix + next(itertools.islice(rest, i, None))), ranks[i]
    return None


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
            domain_size = _parse_token(lineno, "domain", body.strip(), decimal)
        elif keyword == "const":
            name, eq, val = (part.strip() for part in body.partition("="))
            if not name or not eq:
                raise ValueError(f"line {lineno}: expected 'const <name> = <element>'")
            constants[name] = _parse_token(lineno, f"const {name}", val, decimal)
        elif keyword in ("fun", "pred"):
            name, colon, vals = (part.strip() for part in body.partition(":"))
            if not name or not colon:
                raise ValueError(f"line {lineno}: expected '{keyword} <name> : <values>'")
            parse_one = decimal if keyword == "fun" else _parse_value
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
        # for n > 1, n^arity >= 2^arity exceeds any row shorter than 2^arity,
        # so such an arity is refused before its power is built
        if (n > 1 and arity >= len(vals).bit_length()) or len(vals) != n ** arity:
            raise ValueError(
                f"{kind} {name}: expected {_power_text(n, arity)} values, got {len(vals)}")
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
    # n ** arity distinct keys, each an argument tuple: the keys are exactly
    # the tuples, and no set of either is built
    if len(table) != n ** arity or not all(
            map(table.__contains__, itertools.product(range(n), repeat=arity))):
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
        return decimal(tok[1:])
    num, slash, den = tok.partition("/")
    return Fraction(decimal(num), decimal(den) if slash else 1)
