"""Finite MTL-chains and the standard Lukasiewicz chain.

A finite chain lives on ranks 0..size-1 (0 = bottom, size-1 = top) with a
t-norm table; the residuum is always derived, never supplied.  The standard
chain works with exact rationals in [0, 1] (fractions.Fraction), never floats.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterator, Optional, Sequence

DEFAULT_ENUM_CAP = 7


class ChainValidationError(ValueError):
    """A supplied t-norm table violates one of the chain axioms."""

    def __init__(self, axiom: str, witness: tuple, message: str):
        super().__init__(f"{axiom} violated at {witness}: {message}")
        self.axiom = axiom
        self.witness = witness


class EnumerationCapError(ValueError):
    """Requested chain size is beyond the enumeration cap."""


@dataclass(frozen=True)
class FiniteChain:
    """A finite MTL-chain: ranks 0..size-1, t-norm table, derived residuum."""

    size: int
    tnorm_table: tuple[tuple[int, ...], ...]
    residuum_table: tuple[tuple[int, ...], ...]

    # -- basic structure -------------------------------------------------
    @property
    def bot(self) -> int:
        return 0

    @property
    def top(self) -> int:
        return self.size - 1

    def carrier(self) -> range:
        return range(self.size)

    # -- operations ------------------------------------------------------
    def tnorm(self, x: int, y: int) -> int:
        return self.tnorm_table[x][y]

    def residuum(self, x: int, y: int) -> int:
        return self.residuum_table[x][y]

    def meet(self, x: int, y: int) -> int:
        return min(x, y)

    def join(self, x: int, y: int) -> int:
        return max(x, y)

    def neg(self, x: int) -> int:
        return self.residuum_table[x][0]

    def square(self, x: int) -> int:
        return self.tnorm_table[x][x]

    def biimpl(self, x: int, y: int) -> int:
        return min(self.residuum_table[x][y], self.residuum_table[y][x])

    def describe(self) -> str:
        lines = [f"chain {self.size}"]
        for row in self.tnorm_table:
            lines.append(" ".join(str(v) for v in row))
        return "\n".join(lines)


def derived_ops(chain: FiniteChain) -> dict:
    """Negation, meet, join, square and biimplication as rank functions."""
    return {
        "neg": chain.neg,
        "meet": chain.meet,
        "join": chain.join,
        "square": chain.square,
        "biimpl": chain.biimpl,
    }


def _derive_residuum(size: int, tnorm: Sequence[Sequence[int]]) -> tuple[tuple[int, ...], ...]:
    # residuum[x][y] = max { z : tnorm[x][z] <= y }
    res = []
    for x in range(size):
        row = []
        for y in range(size):
            best = 0
            for z in range(size):
                if tnorm[x][z] <= y:
                    best = z
            row.append(best)
        res.append(tuple(row))
    return tuple(res)


def make_chain_from_table(size: int, tnorm: Sequence[Sequence[int]]) -> FiniteChain:
    """Validate all chain axioms for a user-supplied t-norm table.

    Raises ChainValidationError naming the violated axiom and a witness.
    """
    if size < 2:
        raise ChainValidationError("size", (size,), "chain needs at least 2 elements")
    if len(tnorm) != size or any(len(row) != size for row in tnorm):
        raise ChainValidationError("shape", (size,), "table must be size x size")
    for x in range(size):
        for y in range(size):
            v = tnorm[x][y]
            if not (0 <= v < size):
                raise ChainValidationError("range", (x, y), f"entry {v} outside 0..{size - 1}")
    for x in range(size):
        for y in range(x, size):
            if tnorm[x][y] != tnorm[y][x]:
                raise ChainValidationError(
                    "commutativity", (x, y), f"t[{x}][{y}]={tnorm[x][y]} != t[{y}][{x}]={tnorm[y][x]}"
                )
    for x in range(size):
        if tnorm[x][size - 1] != x:
            raise ChainValidationError(
                "identity", (x,), f"t[{x}][{size - 1}]={tnorm[x][size - 1]} != {x}"
            )
    for x in range(size - 1):
        for y in range(size):
            if tnorm[x][y] > tnorm[x + 1][y]:
                raise ChainValidationError(
                    "monotonicity", (x, x + 1, y),
                    f"t[{x}][{y}]={tnorm[x][y]} > t[{x + 1}][{y}]={tnorm[x + 1][y]}",
                )
    for x in range(size):
        for y in range(size):
            for z in range(size):
                left = tnorm[tnorm[x][y]][z]
                right = tnorm[x][tnorm[y][z]]
                if left != right:
                    raise ChainValidationError(
                        "associativity", (x, y, z), f"({x}*{y})*{z}={left} != {x}*({y}*{z})={right}"
                    )
    residuum = _derive_residuum(size, tnorm)
    # The residuation law is implied by monotonicity + the max definition,
    # but it is cheap to re-check and it is the law callers rely on.
    for x in range(size):
        for y in range(size):
            for z in range(size):
                if (tnorm[x][z] <= y) != (z <= residuum[x][y]):
                    raise ChainValidationError(
                        "residuation", (x, y, z),
                        f"t[{x}][{z}] <= {y} does not match {z} <= r[{x}][{y}]",
                    )
    table = tuple(tuple(row) for row in tnorm)
    return FiniteChain(size, table, residuum)


def make_lukasiewicz_chain(k: int) -> FiniteChain:
    """The k-element Lukasiewicz chain on ranks {0, .., k-1}.

    k counts elements (so k=2 is the Boolean chain B2).
    """
    if k < 2:
        raise ChainValidationError("size", (k,), "chain needs at least 2 elements")
    top = k - 1
    tnorm = tuple(tuple(max(0, x + y - top) for y in range(k)) for x in range(k))
    residuum = tuple(tuple(min(top, top - x + y) for y in range(k)) for x in range(k))
    return FiniteChain(k, tnorm, residuum)


def make_godel_chain(k: int) -> FiniteChain:
    """The k-element Godel chain (t-norm = min)."""
    if k < 2:
        raise ChainValidationError("size", (k,), "chain needs at least 2 elements")
    top = k - 1
    tnorm = tuple(tuple(min(x, y) for y in range(k)) for x in range(k))
    residuum = tuple(tuple(top if x <= y else y for y in range(k)) for x in range(k))
    return FiniteChain(k, tnorm, residuum)


def make_boolean_chain() -> FiniteChain:
    return make_lukasiewicz_chain(2)


def enumerate_mtl_chains(size: int, cap: int = DEFAULT_ENUM_CAP) -> Iterator[FiniteChain]:
    """Yield every MTL-chain of the given size, once, in lexicographic table order.

    The free entries are t[x][y] for 1 <= x <= y <= size-2 (row 0 and the top
    row/column are forced).  Backtracking assigns them in lexicographic
    position order with monotonicity pruning; completed tables are checked for
    associativity.
    """
    if size < 2:
        raise EnumerationCapError(f"size {size} below minimum 2")
    if size > cap:
        raise EnumerationCapError(
            f"size {size} above cap {cap}: the table space grows too fast to enumerate"
        )
    top = size - 1
    positions = [(x, y) for x in range(1, top) for y in range(x, top)]

    table = [[0] * size for _ in range(size)]
    for x in range(size):
        table[x][top] = x
        table[top][x] = x
        table[x][0] = 0
        table[0][x] = 0

    def assign(idx: int) -> Iterator[FiniteChain]:
        if idx == len(positions):
            try:
                yield make_chain_from_table(size, [row[:] for row in table])
            except ChainValidationError:
                pass
            return
        x, y = positions[idx]
        lo = max(table[x - 1][y] if x >= 1 else 0, table[x][y - 1] if y - 1 >= x else 0)
        hi = x  # t[x][y] <= t[x][top] = x and x <= y
        for v in range(lo, hi + 1):
            table[x][y] = v
            table[y][x] = v
            yield from assign(idx + 1)
        table[x][y] = 0
        table[y][x] = 0

    yield from assign(0)


def check_square_meet_law(chain: FiniteChain) -> Optional[int]:
    """Check a^2 /\\ (neg a)^2 = bottom for every rank.

    Returns None on success, else the least violating rank.
    """
    for a in chain.carrier():
        if min(chain.square(a), chain.square(chain.neg(a))) != chain.bot:
            return a
    return None


# -- standard Lukasiewicz chain on [0, 1] --------------------------------

ZERO = Fraction(0)
ONE = Fraction(1)


def _check_unit(x: Fraction) -> Fraction:
    if not (ZERO <= x <= ONE):
        raise ValueError(f"truth value {x} outside [0, 1]")
    return x


def std_mult(x: Fraction, y: Fraction) -> Fraction:
    return max(ZERO, x + y - 1)


def std_impl(x: Fraction, y: Fraction) -> Fraction:
    return min(ONE, 1 - x + y)


def std_neg(x: Fraction) -> Fraction:
    return 1 - x


def std_meet(x: Fraction, y: Fraction) -> Fraction:
    return min(x, y)


def std_join(x: Fraction, y: Fraction) -> Fraction:
    return max(x, y)


def std_square(x: Fraction) -> Fraction:
    return max(ZERO, 2 * x - 1)


def std_biimpl(x: Fraction, y: Fraction) -> Fraction:
    return 1 - abs(x - y)


class StandardChain:
    """The standard MV-chain on exact rationals in [0, 1].

    Offers the same operation surface as FiniteChain so the evaluator can use
    either interchangeably.  There is no finite carrier to enumerate.
    """

    size = None
    bot = ZERO
    top = ONE

    def tnorm(self, x: Fraction, y: Fraction) -> Fraction:
        return std_mult(_check_unit(x), _check_unit(y))

    def residuum(self, x: Fraction, y: Fraction) -> Fraction:
        return std_impl(_check_unit(x), _check_unit(y))

    def meet(self, x: Fraction, y: Fraction) -> Fraction:
        return std_meet(x, y)

    def join(self, x: Fraction, y: Fraction) -> Fraction:
        return std_join(x, y)

    def neg(self, x: Fraction) -> Fraction:
        return std_neg(_check_unit(x))

    def square(self, x: Fraction) -> Fraction:
        return std_square(_check_unit(x))

    def biimpl(self, x: Fraction, y: Fraction) -> Fraction:
        return std_biimpl(_check_unit(x), _check_unit(y))


STANDARD_CHAIN = StandardChain()


def embed_rank(chain: FiniteChain, rank: int) -> Fraction:
    """Embed a Lukasiewicz rank into [0, 1] as rank/(size-1)."""
    return Fraction(rank, chain.size - 1)


def is_lukasiewicz(chain: FiniteChain) -> bool:
    top = chain.size - 1
    return all(v == max(0, x + y - top)
               for x, row in enumerate(chain.tnorm_table) for y, v in enumerate(row))


# -- chain file format ---------------------------------------------------

def parse_chain_file(text: str) -> FiniteChain:
    """Parse the chain file format: `chain <size>` then the t-norm rows."""
    lines = [ln.strip() for ln in text.splitlines()]
    lines = [ln for ln in lines if ln and not ln.startswith("#")]
    if not lines or not lines[0].startswith("chain "):
        raise ValueError("chain file must start with 'chain <size>'")
    try:
        size = int(lines[0].split()[1])
    except (IndexError, ValueError):
        raise ValueError("chain file must start with 'chain <size>'")
    rows = lines[1:]
    if len(rows) != size:
        raise ValueError(f"expected {size} table rows, got {len(rows)}")
    table = []
    for ln in rows:
        try:
            table.append([int(tok) for tok in ln.split()])
        except ValueError:
            raise ValueError(f"bad table row: {ln!r}")
    return make_chain_from_table(size, table)


def format_chain_file(chain: FiniteChain) -> str:
    return chain.describe() + "\n"
