"""Finite MTL-chains and the standard Lukasiewicz chain.

A finite chain lives on ranks 0..size-1 (0 = bottom, size-1 = top) with a
t-norm table; the residuum is always derived, never supplied.  The standard
chain works with exact rationals in [0, 1] (fractions.Fraction), never floats.
"""

from __future__ import annotations

from bisect import bisect_right
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from itertools import repeat
from operator import le
from typing import Iterator, Optional, Sequence, Union

from .syntax import decimal

# The largest size `enumerate_mtl_chains` enumerates.  Its time grows about
# 8-10x per size (3 s at size 9) and no budget bounds it, so the limit is fixed.
DEFAULT_ENUM_CAP = 7

# `luk:k` and `godel:k` are their operations, closed forms in the ranks.
# Their two k x k tuple tables (8 bytes per entry: 23 MB at k = 1200, 67 MB
# at this cap, tracemalloc, Python 3.11) are built only when read:
# `describe`, `is_lukasiewicz` on a Godel chain, equality and hash.  The cap
# stays, so that chain-spec errors and reports do not change.
MAX_NAMED_CHAIN_SIZE = 2048

# A table-supplied chain is validated with one byte per rank.  Validation
# time is cubic in the size: 0.05-0.1 s at this cap (2-vCPU Linux host,
# Python 3.11).
MAX_TABLE_CHAIN_SIZE = 256

# 256 ones then 256 zeros: every threshold table the validator needs is a
# slice of it, so no table is built at import.
_STEP = b"\x01" * 256 + bytes(256)


class ChainValidationError(ValueError):
    """A supplied t-norm table violates one of the chain axioms."""

    def __init__(self, axiom: str, witness: tuple, message: str):
        super().__init__(f"{axiom} violated at {witness}: {message}")
        self.axiom = axiom
        self.witness = witness


class EnumerationCapError(ValueError):
    """Requested chain size is beyond the enumeration cap."""


@dataclass(frozen=True, eq=False)
class FiniteChain:
    """A finite MTL-chain: ranks 0..size-1, t-norm table, derived residuum.

    A named chain (`make_lukasiewicz_chain`, `make_godel_chain`) is a
    subclass whose operations are closed forms, each one call as the table
    lookups are; its two tables are built the first time something reads
    them, then kept.  Two chains are equal,
    and hash alike, when their sizes and tables are, whichever class holds
    them.
    """

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

    def __eq__(self, other) -> bool:
        if not isinstance(other, FiniteChain):
            return NotImplemented
        return (self.size, self.tnorm_table, self.residuum_table) == \
            (other.size, other.tnorm_table, other.residuum_table)

    def __hash__(self) -> int:
        return hash((self.size, self.tnorm_table, self.residuum_table))

    def describe(self) -> str:
        lines = [f"chain {self.size}"]
        for row in self.tnorm_table:
            lines.append(" ".join(str(v) for v in row))
        return "\n".join(lines)


def _derive_residuum(size: int, tnorm: Sequence[Sequence[int]]) -> tuple[tuple[int, ...], ...]:
    # residuum[x][y] = max { z : tnorm[x][z] <= y }.  Needs the identity and
    # monotonicity checks passed: then each row is nondecreasing and starts
    # at t[x][0] = t[0][x] <= t[0][top] = 0, so the max is the number of
    # z >= 1 with tnorm[x][z] <= y: a bisection of the row past its first entry.
    ranks = range(size)
    return tuple(tuple(map(bisect_right, repeat(row[1:], size), ranks)) for row in tnorm)


def _check_table_size(size: int) -> None:
    if size > MAX_TABLE_CHAIN_SIZE:
        raise ChainValidationError(
            "size", (size,), f"table chains are capped at {MAX_TABLE_CHAIN_SIZE} ranks")


def _first_difference(left: bytes, right: bytes) -> int:
    return next(i for i, (a, b) in enumerate(zip(left, right)) if a != b)


def make_chain_from_table(size: int, tnorm: Sequence[Sequence[int]]) -> FiniteChain:
    """Validate all chain axioms for a user-supplied t-norm table.

    Raises ChainValidationError naming the violated axiom and a witness: the
    first failing entry, pair or triple in row-major order, axioms checked in
    the order range, commutativity, identity, monotonicity, associativity,
    residuation.  A table has at most MAX_TABLE_CHAIN_SIZE ranks, so each row
    is held as `bytes`, one rank per byte, and each law is checked by C-level
    byte operations, the cubic ones a row at a time:

    - range, commutativity and monotonicity at once for the whole table:
      `max` of the flat table, the flat table against its transpose, and
      `map(operator.le, ...)` of the flat table against itself one row on;
    - associativity: for row x the rows t[t[x][y]], joined over y, equal the
      flat table translated through row x (t[x][t[y][z]] at (y, z));
    - residuation: row x translated through the "<= y" threshold table, for
      each y, equals a run of ones of length r[x][y] + 1.

    The index of a row's first difference gives the witness back, so the
    error is the one the entry-by-entry loops would raise.
    """
    if size < 2:
        raise ChainValidationError("size", (size,), "chain needs at least 2 elements")
    _check_table_size(size)
    if len(tnorm) != size or any(len(row) != size for row in tnorm):
        raise ChainValidationError("shape", (size,), "table must be size x size")
    try:
        rows = list(map(bytes, tnorm))  # refuses entries outside 0..255
        flat = b"".join(rows)
        in_range = max(flat) < size
    except ValueError:
        in_range = False
    if not in_range:
        x, y = next((x, y) for x, row in enumerate(tnorm)
                    for y, v in enumerate(row) if not 0 <= v < size)
        raise ChainValidationError("range", (x, y), f"entry {tnorm[x][y]} outside 0..{size - 1}")
    transpose = b"".join(map(bytes, zip(*rows)))
    if flat != transpose:
        # a difference below the diagonal repeats one in an earlier row, so y > x
        x, y = divmod(_first_difference(flat, transpose), size)
        raise ChainValidationError(
            "commutativity", (x, y), f"t[{x}][{y}]={tnorm[x][y]} != t[{y}][{x}]={tnorm[y][x]}"
        )
    top, ramp = size - 1, bytes(range(size))
    identity = flat[top::size]
    if identity != ramp:
        x = _first_difference(identity, ramp)
        raise ChainValidationError("identity", (x,), f"t[{x}][{top}]={tnorm[x][top]} != {x}")
    below, above = flat[:-size], flat[size:]  # row x against row x+1, for every x
    if not all(map(le, below, above)):
        x, y = divmod(next(i for i, (v, w) in enumerate(zip(below, above)) if v > w), size)
        raise ChainValidationError(
            "monotonicity", (x, x + 1, y),
            f"t[{x}][{y}]={tnorm[x][y]} > t[{x + 1}][{y}]={tnorm[x + 1][y]}",
        )
    pad = bytes(256 - size)
    for x, row in enumerate(rows):
        # at index y*size + z: left (x*y)*z, right x*(y*z)
        left = b"".join(map(rows.__getitem__, row))
        right = flat.translate(row + pad)
        if left != right:
            i = _first_difference(left, right)
            y, z = divmod(i, size)
            raise ChainValidationError(
                "associativity", (x, y, z), f"({x}*{y})*{z}={left[i]} != {x}*({y}*{z})={right[i]}"
            )
    residuum = _derive_residuum(size, rows)
    # The residuation law is implied by monotonicity + the max definition,
    # but it is cheap to re-check and it is the law callers rely on.
    at_most = [_STEP[255 - y:511 - y] for y in range(size)]  # v -> (v <= y)
    ones = [_STEP[255 - r:255 - r + size] for r in range(size)]  # z -> (z <= r)
    for x, row in enumerate(rows):
        # at index y*size + z: left (t[x][z] <= y), right (z <= r[x][y])
        left = b"".join(map(row.translate, at_most))
        right = b"".join(map(ones.__getitem__, residuum[x]))
        if left != right:
            y, z = divmod(_first_difference(left, right), size)
            raise ChainValidationError(
                "residuation", (x, y, z),
                f"t[{x}][{z}] <= {y} does not match {z} <= r[{x}][{y}]",
            )
    table = tuple(tuple(row) for row in tnorm)
    return FiniteChain(size, table, residuum)


def _check_named_size(k: int) -> None:
    if k < 2:
        raise ChainValidationError("size", (k,), "chain needs at least 2 elements")
    if k > MAX_NAMED_CHAIN_SIZE:
        raise ChainValidationError(
            "size", (k,), f"named chains are capped at {MAX_NAMED_CHAIN_SIZE} elements")


class _LukasiewiczChain(FiniteChain):
    """The Lukasiewicz chain on ranks 0..size-1: its operations are closed forms."""

    def __init__(self, size: int):
        object.__setattr__(self, "size", size)

    def tnorm(self, x: int, y: int) -> int:
        return max(0, x + y - self.size + 1)

    def residuum(self, x: int, y: int) -> int:
        return min(self.size - 1, self.size - 1 - x + y)

    def neg(self, x: int) -> int:
        return self.size - 1 - x

    def square(self, x: int) -> int:
        return max(0, 2 * x - self.size + 1)

    def biimpl(self, x: int, y: int) -> int:
        return self.size - 1 - abs(x - y)

    # row x of max(0, x+y-top) is the window at x of top zeros, then 0..top;
    # of min(top, top-x+y) it is the window at top-x of 0..top, then top tops
    @cached_property
    def tnorm_table(self) -> tuple[tuple[int, ...], ...]:
        k = self.size
        low = (0,) * (k - 1) + tuple(range(k))
        return tuple(low[x:x + k] for x in range(k))

    @cached_property
    def residuum_table(self) -> tuple[tuple[int, ...], ...]:
        k, top = self.size, self.size - 1
        high = tuple(range(k)) + (top,) * top
        return tuple(high[top - x:top - x + k] for x in range(k))


class _GodelChain(FiniteChain):
    """The Godel chain on ranks 0..size-1: its operations are closed forms."""

    def __init__(self, size: int):
        object.__setattr__(self, "size", size)

    def tnorm(self, x: int, y: int) -> int:
        return min(x, y)

    def residuum(self, x: int, y: int) -> int:
        return self.size - 1 if x <= y else y

    def neg(self, x: int) -> int:
        return 0 if x else self.size - 1

    def square(self, x: int) -> int:
        return x

    def biimpl(self, x: int, y: int) -> int:
        return self.size - 1 if x == y else min(x, y)

    # row x of min(x, y) is 0..x-1, then x; of (top if x <= y else y) it is
    # 0..x-1, then top
    @cached_property
    def tnorm_table(self) -> tuple[tuple[int, ...], ...]:
        k, ramp = self.size, tuple(range(self.size))
        return tuple(ramp[:x] + (x,) * (k - x) for x in range(k))

    @cached_property
    def residuum_table(self) -> tuple[tuple[int, ...], ...]:
        k, ramp = self.size, tuple(range(self.size))
        tops = (k - 1,) * k
        return tuple(ramp[:x] + tops[:k - x] for x in range(k))


def make_lukasiewicz_chain(k: int) -> FiniteChain:
    """The k-element Lukasiewicz chain on ranks {0, .., k-1}.

    k counts elements (so k=2 is the Boolean chain B2).
    """
    _check_named_size(k)
    return _LukasiewiczChain(k)


def make_godel_chain(k: int) -> FiniteChain:
    """The k-element Godel chain (t-norm = min)."""
    _check_named_size(k)
    return _GodelChain(k)


def make_boolean_chain() -> FiniteChain:
    return make_lukasiewicz_chain(2)


def enumerate_mtl_chains(size: int) -> Iterator[FiniteChain]:
    """An iterator over every MTL-chain of the given size, once, in lexicographic table order.

    The free entries are t[x][y] for 1 <= x <= y <= size-2 (row 0 and the top
    row/column are forced).  Backtracking assigns them in lexicographic
    position order with monotonicity pruning, and cuts a branch as soon as
    a completed row breaks associativity (`_associative_through`, two
    `bytes.translate` calls per smaller rank).  Every completed table is
    still validated in full by `make_chain_from_table`, which checks each
    law a row at a time on byte rows; the pruning already guarantees every
    law, so a table it rejects is a pruning bug and its error propagates.
    The size is checked when this is called, not when the first chain is asked for.
    """
    if size < 2:
        raise EnumerationCapError(f"size {size} below minimum 2")
    if size > DEFAULT_ENUM_CAP:
        raise EnumerationCapError(f"size {size} above cap {DEFAULT_ENUM_CAP}: "
                                  "the table space grows too fast to enumerate")
    top = size - 1
    positions = [(x, y) for x in range(1, top) for y in range(x, top)]

    # rows are bytearrays, so the pruning check can translate through them
    table = [bytearray(size) for _ in range(size)]
    for x in range(size):
        table[x][top] = x
        table[top][x] = x

    def assign(idx: int) -> Iterator[FiniteChain]:
        if idx == len(positions):
            # the chain copies the rows, so the live table can be passed
            yield make_chain_from_table(size, table)
            return
        x, y = positions[idx]
        lo = max(table[x - 1][y] if x >= 1 else 0, table[x][y - 1] if y - 1 >= x else 0)
        hi = x  # t[x][y] <= t[x][top] = x and x <= y
        for v in range(lo, hi + 1):
            table[x][y] = v
            table[y][x] = v
            if y < top - 1 or _associative_through(table, x):
                yield from assign(idx + 1)
        table[x][y] = 0
        table[y][x] = 0

    return assign(0)


def _associative_through(t: Sequence[Sequence[int]], x: int) -> bool:
    """(a*b)*c = a*(b*c) for every c and every a, b with max(a, b) = x.

    Needs rows 0..x complete: a*b, a and b are all at most x, so every
    product in the law is read from those rows.  Checked as each row is
    completed, this covers every triple with a, b below the top.  Rows are
    bytearrays, so p*(q*c) over every c is row q translated through row p,
    and t is commutative, as the enumerator assigns it, so (a*x)*c and
    (x*a)*c are both row t[x][a].
    """
    pad = bytes(256 - len(t[x]))
    rows, row_x = t[:x + 1], t[x]
    left = b"".join(map(t.__getitem__, row_x[:x + 1]))  # (a*x)*c over a, c
    through_x = row_x + pad
    return (left == b"".join([row_x.translate(row + pad) for row in rows])  # a*(x*c)
            and left == b"".join([row.translate(through_x) for row in rows]))  # x*(a*c)


def check_square_meet_law(chain: FiniteChain) -> Optional[int]:
    """Check a^2 /\\ (neg a)^2 = bottom for every rank.

    Returns None on success, else the least violating rank.
    """
    for a in chain.carrier():
        if min(chain.square(a), chain.square(chain.neg(a))) != chain.bot:
            return a
    return None


# -- standard Lukasiewicz chain on [0, 1] --------------------------------

class StandardChain:
    """The standard MV-chain on exact rationals in [0, 1].

    Offers the same operation surface as FiniteChain so the evaluator can use
    either interchangeably.  There is no finite carrier to enumerate.  The
    operations do not check their arguments: `semantics.check_structure`
    checks every value once, where a structure enters evaluation.

    With an integer `top` d the same operations act on the ranks 0..d of
    the subalgebra {0, 1/d, .., 1}, scaled by d: `semantics.eval` evaluates
    standard-chain structures this way, on integers.
    """

    size = None

    def __init__(self, top: Union[int, Fraction] = Fraction(1)):
        self.top = top
        self.bot = top - top  # 0, of top's type

    def tnorm(self, x, y):
        return max(self.bot, x + y - self.top)

    def residuum(self, x, y):
        return min(self.top, self.top - x + y)

    def meet(self, x, y):
        return min(x, y)

    def join(self, x, y):
        return max(x, y)

    def neg(self, x):
        return self.top - x

    def square(self, x):
        return max(self.bot, 2 * x - self.top)

    def biimpl(self, x, y):
        return self.top - abs(x - y)


STANDARD_CHAIN = StandardChain()


def is_lukasiewicz(chain: FiniteChain) -> bool:
    """Whether the chain's t-norm is max(0, x+y-top): a named Lukasiewicz
    chain by its class, any other chain by a scan of its table."""
    if isinstance(chain, _LukasiewiczChain):
        return True
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
        size = decimal(lines[0].split()[1])
    except (IndexError, ValueError):
        raise ValueError("chain file must start with 'chain <size>'")
    _check_table_size(size)  # before any row is read
    rows = lines[1:]
    if len(rows) != size:
        raise ValueError(f"expected {size} table rows, got {len(rows)}")
    table = []
    for ln in rows:
        try:
            table.append([decimal(tok) for tok in ln.split()])
        except ValueError:
            raise ValueError(f"bad table row: {ln!r}")
    return make_chain_from_table(size, table)
