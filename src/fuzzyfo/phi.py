"""The sentence separating standard from finite Lukasiewicz semantics.

Phi = exists x. (P(x) <-> ~P(x)) & forall x. exists y. (P(x) <-> (P(y) & P(y)))

Over every finite MV-chain its value stays below 1 in every structure, while
over the standard chain a family of finite truncations of an infinite witness
pushes the value arbitrarily close to 1.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from fractions import Fraction
from typing import Optional

from .chains import (
    FiniteChain, STANDARD_CHAIN, is_lukasiewicz, make_lukasiewicz_chain,
)
from .semantics import (
    DEFAULT_BUDGET, Structure, enumerate_structures, eval,
)
from .syntax import Formula, Vocabulary, parse

PHI_TEXT = "exists x. (P(x) <-> ~P(x)) & forall x. exists y. (P(x) <-> (P(y) & P(y)))"
PHI_VOCABULARY = Vocabulary(predicates={"P": 1})

DEFAULT_K_CAP = 12


def phi_sentence() -> Formula:
    """The exact AST of the separating sentence over vocabulary {P/1}."""
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
    _require_lukasiewicz(vs.chain)
    return _phi_on_values(vs.chain, vs.values)


def _require_lukasiewicz(chain: FiniteChain) -> None:
    if not is_lukasiewicz(chain):
        raise ValueError("value-set evaluation is only supported on Lukasiewicz chains")


def _phi_on_values(chain: FiniteChain, values) -> int:
    """`eval_phi_on_valueset` without its guard, for a chain already checked."""
    first = max(chain.biimpl(a, chain.neg(a)) for a in values)
    second = min(
        max(chain.biimpl(a, chain.square(b)) for b in values)
        for a in values
    )
    return chain.tnorm(first, second)


@dataclass(frozen=True)
class PhiRefutationRow:
    k: int
    value_sets_scanned: int
    max_value_rank: int
    max_value: Fraction


@dataclass(frozen=True)
class PhiRefutationReport:
    rows: tuple[PhiRefutationRow, ...]


def phi_fin_refutation(max_k: int, cap: int = DEFAULT_K_CAP) -> PhiRefutationReport:
    """Exhaustively confirm Phi < 1 (and ~Phi > 0) on every finite MV-chain value set.

    Scans every nonempty set of attained P-values over each Lukasiewicz chain
    with k <= max_k elements and records the per-k maximum of Phi.
    """
    if max_k > cap:
        raise ValueError(f"max_k {max_k} above cap {cap}")
    rows = []
    for k in range(2, max_k + 1):
        chain = make_lukasiewicz_chain(k)
        _require_lukasiewicz(chain)  # once per chain, not per value set
        best = 0
        scanned = 0
        for r in range(1, k + 1):
            for subset in itertools.combinations(range(k), r):
                value = _phi_on_values(chain, subset)
                scanned += 1
                if value >= chain.top:
                    raise AssertionError(
                        f"Phi attained the top value on Lukasiewicz chain k={k}, values {subset}"
                    )
                if chain.neg(value) <= chain.bot:
                    raise AssertionError(
                        f"~Phi vanished on Lukasiewicz chain k={k}, values {subset}"
                    )
                best = max(best, value)
        rows.append(PhiRefutationRow(k, scanned, best, Fraction(best, k - 1)))
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
