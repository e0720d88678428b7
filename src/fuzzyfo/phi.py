"""The sentence separating standard from finite Lukasiewicz semantics.

Phi = exists x. (P(x) <-> ~P(x)) & forall x. exists y. (P(x) <-> (P(y) & P(y)))

Over every finite MV-chain its value stays below 1 in every structure, while
over the standard chain a family of finite truncations of an infinite witness
pushes the value arbitrarily close to 1.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterator, Optional

from .chains import (
    FiniteChain, STANDARD_CHAIN, is_lukasiewicz, make_lukasiewicz_chain,
)
from .semantics import (
    DEFAULT_BUDGET, Structure, enumerate_structures, eval,
)
from .syntax import Formula, Vocabulary, parse

PHI_TEXT = "exists x. (P(x) <-> ~P(x)) & forall x. exists y. (P(x) <-> (P(y) & P(y)))"
PHI_VOCABULARY = Vocabulary(predicates={"P": 1})

# The largest chain size `phi_fin_refutation` scans.
DEFAULT_K_CAP = 64


@functools.cache
def phi_sentence() -> Formula:
    """The exact AST of the separating sentence over vocabulary {P/1}.

    Parsed once: the AST is immutable, so every caller shares it.
    """
    return parse(PHI_TEXT, PHI_VOCABULARY)


@dataclass(frozen=True)
class ValueSet:
    """A monadic structure abstracted to the set of attained P-values."""

    chain: FiniteChain
    values: frozenset[int]

    def __post_init__(self):
        if not self.values:
            raise ValueError("value set must be nonempty")
        if not all(0 <= v < self.chain.size for v in self.values):
            raise ValueError("value outside the chain carrier")


def eval_phi_on_valueset(vs: ValueSet) -> int:
    """The value of Phi on any structure whose P attains exactly these values.

    Only correct over Lukasiewicz chains (which is where Phi's analysis
    lives); first conjunct = best fixed-point-of-negation candidate, second =
    worst x of the best square-matching y.
    """
    chain, values = vs.chain, vs.values
    _require_lukasiewicz(chain)
    first = max(chain.biimpl(a, chain.neg(a)) for a in values)
    second = min(
        max(chain.biimpl(a, chain.square(b)) for b in values)
        for a in values
    )
    return chain.tnorm(first, second)


def _require_lukasiewicz(chain: FiniteChain) -> None:
    if not is_lukasiewicz(chain):
        raise ValueError("value-set evaluation is only supported on Lukasiewicz chains")


def phi_maximum(chain: FiniteChain) -> tuple[int, tuple[int, ...]]:
    """The greatest value of Phi's value-set formula over a chain, and a set attaining it.

    Write f(a) = a <-> ~a and w(a, b) = a <-> b^2, and let S_t be the
    greatest set in which every a has some b with w(a, b) >= t.  A value set
    whose second conjunct is s lies inside S_s, f's maximum grows with the
    set and the t-norm is monotone, so the maximum is that of
    tnorm(max f on S_t, t) over the nonempty S_t, attained by S_t itself.
    Only the t-norm's monotonicity is used, so any finite chain will do.
    """
    carrier = chain.carrier()
    fixed = [chain.biimpl(a, chain.neg(a)) for a in carrier]
    squares = [chain.square(b) for b in carrier]
    weight = [[chain.biimpl(a, sq) for sq in squares] for a in carrier]
    best, best_set = chain.bot, tuple(carrier)
    for t, survivors in _greatest_supported_sets(weight):
        value = chain.tnorm(max(fixed[a] for a in survivors), t)
        if value > best:
            best, best_set = value, survivors
    return best, best_set


def _greatest_supported_sets(weight: list[list[int]]) -> Iterator[tuple[int, tuple[int, ...]]]:
    """(t, S_t) for t = 0, 1, .. while S_t is nonempty, for weights in 0..n-1.

    S_t is the greatest set of indices in which every a has some b with
    weight[a][b] >= t: unions of such sets are such sets.  S_t shrinks as t
    grows, so one pass with support counters reaches each S_t from the last.
    An edge (a, b) stops counting for a when t passes its weight or when b
    leaves, whichever comes first, and a leaves with its last edge.
    """
    n = len(weight)
    edges_at = [[] for _ in range(n)]  # the (a, b) of weight t, by t
    for a, row in enumerate(weight):
        for b, t in enumerate(row):
            edges_at[t].append((a, b))
    support = [n] * n  # per a: the counted b with weight[a][b] >= t
    counted = [True] * n  # b has not left yet
    leaving: list[int] = []  # support reached 0, edges still counted
    for t in range(n):
        while leaving:
            b = leaving.pop()
            counted[b] = False
            for a in range(n):
                if weight[a][b] >= t:
                    support[a] -= 1
                    if support[a] == 0:
                        leaving.append(a)
        survivors = tuple(a for a in range(n) if counted[a])
        if not survivors:
            return
        yield t, survivors
        for a, b in edges_at[t]:  # too weak for threshold t + 1
            if counted[b]:
                support[a] -= 1
                if support[a] == 0:
                    leaving.append(a)


@dataclass(frozen=True)
class PhiRefutationRow:
    k: int
    value_sets_scanned: int  # nonempty value sets covered: 2^k - 1
    max_value_rank: int
    max_value: Fraction


@dataclass(frozen=True)
class PhiRefutationReport:
    rows: tuple[PhiRefutationRow, ...]


def phi_fin_refutation(max_k: int) -> PhiRefutationReport:
    """Confirm Phi < 1 (and ~Phi > 0) on every value set of each finite MV-chain.

    Covers every nonempty set of attained P-values over each Lukasiewicz
    chain with k <= max_k elements, through its maximum (`phi_maximum`), and
    records the per-k maximum of Phi.  Negation is antitone, so ~Phi
    vanishes on some set exactly when it vanishes at the maximum.
    """
    if max_k < 2:
        raise ValueError(f"max_k {max_k} below minimum 2")
    if max_k > DEFAULT_K_CAP:
        raise ValueError(f"max_k {max_k} above cap {DEFAULT_K_CAP}")
    rows = []
    for k in range(2, max_k + 1):
        chain = make_lukasiewicz_chain(k)
        _require_lukasiewicz(chain)  # once per chain, not per value set
        best, values = phi_maximum(chain)
        if best >= chain.top:
            raise AssertionError(
                f"Phi attained the top value on Lukasiewicz chain k={k}, values {values}"
            )
        if chain.neg(best) <= chain.bot:
            raise AssertionError(
                f"~Phi vanished on Lukasiewicz chain k={k}, values {values}"
            )
        rows.append(PhiRefutationRow(k, 2 ** k - 1, best, Fraction(best, k - 1)))
    return PhiRefutationReport(tuple(rows))


def consistency_check_valuesets(k: int, domain_size: int,
                                budget: int = DEFAULT_BUDGET) -> Optional[tuple]:
    """Validate the value-set abstraction against full structure evaluation.

    Returns None when every structure over the k-element Lukasiewicz chain
    with the given domain size agrees with its value-set evaluation, else a
    (structure, full value, value-set value) mismatch triple.
    """
    chain = make_lukasiewicz_chain(k)
    phi = phi_sentence()
    for structure in enumerate_structures(PHI_VOCABULARY, chain, domain_size, budget=budget):
        full = eval(chain, structure, phi)
        attained = frozenset(structure.predicates["P"].values())
        abstracted = eval_phi_on_valueset(ValueSet(chain, attained))
        if full != abstracted:
            return (structure, full, abstracted)
    return None


def witness_family(N: int) -> tuple[Fraction, ...]:
    """Truncations of the standard-chain witness: P(k) = 1 - 2^-(k+1) for k < N."""
    if N < 1:
        raise ValueError("witness family needs N >= 1")
    return tuple(1 - Fraction(1, 2 ** (k + 1)) for k in range(N))


def phi_truncated_witness(N: int) -> tuple[Structure, Fraction]:
    """The N-element truncation of the standard-chain witness and its exact Phi value.

    The values 1 - 2^-(k+1) satisfy square(P(k+1)) = P(k) exactly, which is
    what drives the second conjunct toward 1 as N grows; the value of Phi on
    the truncation is (2^N - 1)/2^N.
    """
    structure = Structure(
        domain_size=N,
        predicates={"P": {(k,): v for k, v in enumerate(witness_family(N))}},
    )
    value = eval(STANDARD_CHAIN, structure, phi_sentence())
    return structure, value
