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
# perfbench/tracing.py wraps purely_universal_contradiction, taut0_bounded, sat_pos_bounded,
# enumerate_structures and eval_propositional at this binding; nothing here calls them.
from .decision import (
    dual_herbrand_search, is_classical_contradiction_prop, purely_universal_contradiction,
    sat1_bounded, sat_pos_bounded, taut0_bounded,
)
from .semantics import (
    DEFAULT_BUDGET, Structure, enumerate_structures, eval, eval_propositional,
)
from .syntax import (
    Formula, Neg, Vocabulary, VocabularyError, classical_nnf, is_lattice_literal_combination,
    is_sentence, prenex, pull_universals, skolemize, star_translate, vocabulary_of,
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
    return pull_universals(skolemized), extended


def matrix_to_lattice_literals(phi: Formula) -> Formula:
    """A purely universal sentence's matrix as literals under /\\ and \\/: its NNF."""
    return classical_nnf(phi)


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

    def __init__(self, message: str, depth_helps: bool):
        super().__init__(message)
        self.depth_helps = depth_helps  # False: no --max-depth reaches further


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
    exists, _, matrix = prenex(trace.lattice_matrix_form)
    ok = (not exists and is_lattice_literal_combination(matrix)
          and trace.star_output == star_translate(trace.lattice_matrix_form))
    return ("star output is the star of a lattice-literal matrix", ok,
            f"{'' if ok else 'not '}star_translate of the lattice matrix")


def square_meet_check(K: Sequence[FiniteChain]) -> tuple[str, bool, str]:
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
    would model the matrix.  A non-contradiction's B2 model comes from the
    Herbrand search's SAT call, budget permitting, or a B2 search up to `max_domain`.
    """
    if max_domain < 1:
        raise ValueError(f"max domain must be at least 1, got {max_domain}")
    pu = trace.purely_universal_form
    # the one classical search: a witness, a relational model, or neither
    cert = dual_herbrand_search(pu, max_depth, budget=budget)
    found = cert.herbrand
    if found is not None:
        report = VerificationReport(True, cert.reason, (
            ("herbrand witness is a propositional contradiction",
             is_classical_contradiction_prop(found.conjunction, budget),
             f"{found.m} instances at depth {found.depth}"),
            _star_shape_check(trace),
            square_meet_check(K),
        ))
    else:
        model = cert.structure or _find_b2_model(pu, max_domain, budget)
        if model is None:
            why = f" ({cert.reason})" if cert.reason else ""
            raise ReductionBoundsError(
                "cannot certify the input either way within bounds: "
                f"Herbrand search {cert.kind} at {cert.bounds}{why} and no B2 model "
                f"with domain <= {max_domain}", cert.kind == "exhausted" and not cert.reason)
        certificate = (cert.reason if cert.kind == "decided"
                       else f"B2 model with domain {model.domain_size}")
        report = _verify_non_contradiction(trace, K, certificate, model)

    if not report.consistent:
        failed = "; ".join(f"check [{name}] ({detail})"
                           for name, ok, detail in report.checks if not ok)
        raise ReductionVerificationError(f"certificate {report.certificate!r} failed {failed}")
    return report


def _verify_non_contradiction(trace: ReductionTrace, K: Sequence[FiniteChain], certificate: str,
                              model: Structure) -> VerificationReport:
    """A B2 model lifts (0 -> bot, 1 -> top) to a top value, a SAT+ and SAT1 witness, on K.

    On a chain whose t-norm and residuum on {bot, top} are B2's, the lift keeps them, the
    order, both constants, min and max, so each lifted value is the lift of the B2 value.
    Every MTL-chain passes that check; like Lemma 1 it runs per chain, as the proof rests on it.
    """
    b2 = make_boolean_chain()
    star = eval(b2, model, trace.star_output)
    checks = [("B2 model of the purely universal form exists",
               eval(b2, model, trace.purely_universal_form) == 1, f"domain {model.domain_size}")]
    for chain in K:
        ends = (chain.bot, chain.top)
        embedded = all((chain.tnorm(x, y), chain.residuum(x, y)) == (min(x, y), ends[x <= y])
                       for x in ends for y in ends)
        checks.append((f"lifted model gives star output top value on size-{chain.size} chain",
                       embedded and star == 1,
                       f"value {ends[star]}" if embedded else "B2 is not embedded"))
    return VerificationReport(False, certificate, tuple(checks))
