"""The constructive reduction from classical sentences to fuzzy ones.

Pipeline: negation-normal form -> Skolemization into a purely universal
equi-contradictory sentence -> lattice-literal matrix -> star translation.
The output lands in TAUT0 over any non-trivial class of MTL-chains exactly
when the input is a classical contradiction.  The verifier certifies the
input classically and then proves the direction that certificate needs:
Lemma 1 on the chains for a contradiction, a lifted B2 model otherwise.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Sequence

from .chains import FiniteChain, check_square_meet_law, make_boolean_chain
# purely_universal_contradiction, taut0_bounded, sat_pos_bounded, enumerate_structures
# and eval_propositional are no longer called here, but perfbench/tracing.py wraps
# them at this binding, so the names stay importable from this module.
from .decision import (
    HerbrandWitness, dual_herbrand_search, herbrand_verdict, is_classical_contradiction_prop,
    purely_universal_contradiction, sat1_bounded, sat_pos_bounded, taut0_bounded,
)
from .semantics import (
    DEFAULT_BUDGET, Structure, enumerate_structures, eval, eval_propositional,
)
from .syntax import (
    Forall, Formula, Neg, Vocabulary, VocabularyError, classical_nnf, classify, is_sentence,
    pull_universals, skolemize, split_universal_prefix, star_translate, vocabulary_of,
)


@dataclass(frozen=True)
class ReductionTrace:
    input: Formula
    negation: Formula
    herbrand_form: Formula
    purely_universal_form: Formula
    lattice_matrix_form: Formula
    star_output: Formula
    vocabulary: Vocabulary
    fresh_constants: tuple[str, ...]
    fresh_functions: tuple[tuple[str, int], ...]


def to_purely_universal(phi: Formula, vocab: Optional[Vocabulary] = None) -> tuple[Formula, Vocabulary]:
    """A purely universal sentence equi-contradictory with phi.

    Skolemizes the existentials of nnf(phi) away and pulls the universals to
    a prefix; unsatisfiability (= contradictoriness) is preserved.  Raises
    VocabularyError when a relational vocabulary would need a Skolem
    function, which is exactly where the reduction needs the full vocabulary.
    """
    if not is_sentence(phi):
        raise VocabularyError("reduction input must be a sentence")
    if vocab is None:
        vocab = vocabulary_of(phi)
    nnf = classical_nnf(phi)
    skolemized, extended = skolemize(nnf, vocab)
    result = pull_universals(skolemized)
    assert classify(result).is_purely_universal
    return result, extended


def matrix_to_lattice_literals(phi: Formula) -> Formula:
    """Rewrite the matrix of a purely universal sentence into literals under /\\ and \\/."""
    prefix, matrix = split_universal_prefix(phi)
    matrix = classical_nnf(matrix)
    for v in reversed(prefix):
        matrix = Forall(v, matrix)
    return matrix


def hardness_reduce(phi: Formula, vocab: Optional[Vocabulary] = None) -> ReductionTrace:
    """Run the full pipeline and record every stage."""
    if vocab is None:
        vocab = vocabulary_of(phi)
    negation = classical_nnf(Neg(phi))
    purely_universal, extended = to_purely_universal(phi, vocab)
    herbrand_form = classical_nnf(Neg(purely_universal))
    lattice = matrix_to_lattice_literals(purely_universal)
    star_output = star_translate(lattice)
    fresh_constants = tuple(sorted(extended.constants - vocab.constants))
    fresh_functions = tuple(sorted(
        (n, a) for n, a in extended.functions.items() if n not in vocab.functions
    ))
    return ReductionTrace(
        input=phi,
        negation=negation,
        herbrand_form=herbrand_form,
        purely_universal_form=purely_universal,
        lattice_matrix_form=lattice,
        star_output=star_output,
        vocabulary=extended,
        fresh_constants=fresh_constants,
        fresh_functions=fresh_functions,
    )


class ReductionVerificationError(RuntimeError):
    """A certificate and a proof check disagree: an implementation bug."""


class ReductionBoundsError(ReductionVerificationError):
    """The input is certified neither way within the depth and domain bounds."""


@dataclass(frozen=True)
class VerificationReport:
    is_contradiction: bool
    certificate: str
    checks: tuple[tuple[str, bool, str], ...]

    @property
    def consistent(self) -> bool:
        return all(ok for _, ok, _ in self.checks)


def _star_shape_check(trace: ReductionTrace) -> tuple[str, bool, str]:
    """The star output squares the literals of a universal lattice-literal matrix."""
    _, matrix = split_universal_prefix(trace.lattice_matrix_form)
    ok = (classify(matrix).is_lattice_literal_combination
          and trace.star_output == star_translate(trace.lattice_matrix_form))
    return ("star output is the star of a lattice-literal matrix", ok,
            f"{'' if ok else 'not '}star_translate of the lattice matrix")


def _square_meet_check(K: Sequence[FiniteChain]) -> tuple[str, bool, str]:
    """Lemma 1, a^2 /\\ (~a)^2 = 0, at every rank of every chain in K."""
    name = "square-meet law a^2 /\\ (~a)^2 = 0 on every chain"
    for i, chain in enumerate(K):
        rank = check_square_meet_law(chain)
        if rank is not None:
            return name, False, f"fails at rank {rank} of chain {i} (size {chain.size})"
    return name, True, f"{sum(chain.size for chain in K)} ranks on {len(K)} chains"


def _find_b2_model(phi: Formula, max_domain: int, budget: int) -> Optional[Structure]:
    """A B2 structure giving a purely universal sentence value 1, if any in bounds."""
    return sat1_bounded([make_boolean_chain()], phi, max_domain, budget).structure


def verify_reduction_instance(trace: ReductionTrace, K: Sequence[FiniteChain],
                              max_domain: int = 2, max_depth: int = 2,
                              budget: int = DEFAULT_BUDGET) -> VerificationReport:
    """Certify contradictoriness independently, then prove the lemma direction it needs.

    A contradiction's star output is 0 in every structure over K, of every
    size, once it is the star of a lattice-literal matrix and Lemma 1 holds
    on K: were it above 0 in M, the B2 structure M+ (P(d) iff P(d)^2 > 0)
    would model the matrix.  A non-contradiction's B2 model must lift to a
    top value on every chain.  `max_domain` bounds the B2 search only.
    """
    if max_domain < 1:
        raise ValueError(f"max domain must be at least 1, got {max_domain}")
    pu = trace.purely_universal_form
    # one search certifies the input and, for a contradiction, gives the witness
    found = dual_herbrand_search(pu, max_depth, budget=budget)
    cert = herbrand_verdict(pu, found, max_depth)

    if isinstance(found, HerbrandWitness):
        report = VerificationReport(True, cert.reason, (
            ("herbrand witness is a propositional contradiction",
             is_classical_contradiction_prop(found.conjunction, budget),
             f"{found.m} instances at depth {found.depth}"),
            _star_shape_check(trace),
            _square_meet_check(K),
        ))
    elif cert.kind == "decided":
        # a relational purely universal non-contradiction always has a model at
        # the Bernays-Schonfinkel bound (#constants), which may exceed max_domain
        bound = max(1, len(vocabulary_of(pu).constants))
        report = _verify_non_contradiction(
            trace, K, cert.reason, _find_b2_model(pu, max(max_domain, bound), budget))
    else:
        # full-vocabulary input with no witness in depth: try to certify
        # non-contradiction through a B2 model instead
        model = _find_b2_model(pu, max_domain, budget)
        if model is None:
            raise ReductionBoundsError(
                "cannot certify the input either way within bounds: "
                f"Herbrand search exhausted at {found.bounds} and no B2 model "
                f"with domain <= {max_domain}")
        report = _verify_non_contradiction(
            trace, K, f"B2 model with domain {model.domain_size}", model)

    if not report.consistent:
        failed = "; ".join(f"check [{name}] ({detail})"
                           for name, ok, detail in report.checks if not ok)
        raise ReductionVerificationError(f"certificate {report.certificate!r} failed {failed}")
    return report


def _verify_non_contradiction(trace: ReductionTrace, K: Sequence[FiniteChain], certificate: str,
                              model: Optional[Structure]) -> VerificationReport:
    """A B2 model must lift to the top value, a SAT+ and SAT1 witness, on every chain."""
    checks = [("B2 model of the purely universal form exists", model is not None,
               f"domain {model.domain_size}" if model else "none in bounds")]
    for chain in K if model else ():
        value = eval(chain, _lift_structure(model, chain), trace.star_output)
        checks.append((f"lifted model gives star output top value on size-{chain.size} chain",
                       value == chain.top, f"value {value}"))
    return VerificationReport(False, certificate, tuple(checks))


def _lift_structure(structure: Structure, chain: FiniteChain) -> Structure:
    """Read a B2 structure as a structure over any chain (0 -> bot, 1 -> top)."""
    return Structure(structure.domain_size, dict(structure.constants),
                     {f: dict(t) for f, t in structure.functions.items()},
                     {p: {k: chain.top if v == 1 else chain.bot for k, v in t.items()}
                      for p, t in structure.predicates.items()})
