"""The constructive reduction from classical sentences to fuzzy ones.

Pipeline: negation-normal form -> Skolemization into a purely universal
equi-contradictory sentence -> lattice-literal matrix -> star translation.
The output lands in TAUT0 over any non-trivial class of MTL-chains exactly
when the input is a classical contradiction, and the verifier checks both
directions with independent certificates.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Sequence

from .chains import FiniteChain, make_boolean_chain
# purely_universal_contradiction, enumerate_structures and eval_propositional
# are no longer called here, but perfbench/tracing.py wraps them at this
# binding, so the names stay importable from this module.
from .decision import (
    HerbrandWitness, dual_herbrand_search, herbrand_verdict, is_classical_contradiction_prop,
    purely_universal_contradiction, sat1_bounded, sat_pos_bounded, taut0_bounded,
)
from .semantics import (
    DEFAULT_BUDGET, Structure, enumerate_structures, eval, eval_propositional,
)
from .syntax import (
    Atom, Forall, Formula, Neg, Vocabulary, VocabularyError, atoms_of, classical_nnf, classify,
    is_sentence, pull_universals, rebuild, skolemize, split_universal_prefix,
    star_translate, vocabulary_of,
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
    """A certificate and a bounded search disagree: an implementation bug."""


@dataclass(frozen=True)
class VerificationReport:
    is_contradiction: bool
    certificate: str
    checks: tuple[tuple[str, bool, str], ...]

    @property
    def consistent(self) -> bool:
        return all(ok for _, ok, _ in self.checks)


def _propositional_star_check(conjunction: Formula, K: Sequence[FiniteChain],
                              budget: int = DEFAULT_BUDGET) -> tuple[bool, str]:
    """Exhaustively confirm the star of a contradictory conjunction is 0 on every chain.

    A valuation of the conjunction's atoms is a domain-1 structure once each
    atom is renamed to a 0-ary predicate.  The names sort in `atoms_of`
    order, so the bounded search visits valuations in the order of
    `itertools.product(chain.carrier(), repeat=#atoms)`.
    """
    atoms = atoms_of(conjunction)
    width = len(str(len(atoms)))
    names = [f"A{i:0{width}d}" for i in range(len(atoms))]
    letters = {atom: Atom(name) for atom, name in zip(atoms, names)}
    star = star_translate(_rename_atoms(conjunction, letters))
    verdict = sat_pos_bounded(K, star, 1, budget)
    if verdict.kind == "member_witness":
        values = tuple(verdict.structure.predicates[name][()] for name in names)
        return False, f"nonzero star value under valuation {values} on size-{verdict.chain.size} chain"
    scanned = sum(chain.size ** len(atoms) for chain in K)
    return True, f"{scanned} valuations scanned, all zero"


def _rename_atoms(phi: Formula, letters: dict[Atom, Atom]) -> Formula:
    """phi with each atom replaced by its letter."""
    if isinstance(phi, Atom):
        return letters[phi]
    return rebuild(phi, lambda sub: _rename_atoms(sub, letters))


def _find_b2_model(phi: Formula, max_domain: int, budget: int) -> Optional[Structure]:
    """A B2 structure giving a purely universal sentence value 1, if any in bounds."""
    return sat1_bounded([make_boolean_chain()], phi, max_domain, budget).structure


def verify_reduction_instance(trace: ReductionTrace, K: Sequence[FiniteChain],
                              max_domain: int = 2, max_depth: int = 2,
                              budget: int = DEFAULT_BUDGET) -> VerificationReport:
    """Certify contradictoriness independently, then cross-check both lemma directions.

    Contradictions: no chain in K may refute TAUT0 membership of the star
    output within bounds, and the star of the Herbrand witness conjunction
    must vanish under every propositional valuation.  Non-contradictions: a
    B2 model of the purely universal form must lift to a top-value witness
    on every chain in K.  Disagreement raises ReductionVerificationError.
    """
    if max_domain < 1:
        raise ValueError(f"max domain must be at least 1, got {max_domain}")
    pu = trace.purely_universal_form
    # one search certifies the input and, for a contradiction, gives the witness
    found = dual_herbrand_search(pu, max_depth, budget=budget)
    cert = herbrand_verdict(pu, found, max_depth)
    checks: list[tuple[str, bool, str]] = []

    if isinstance(found, HerbrandWitness):
        checks.append(("herbrand witness is a propositional contradiction",
                       is_classical_contradiction_prop(found.conjunction, budget),
                       f"{found.m} instances at depth {found.depth}"))
        verdict = taut0_bounded(K, trace.star_output, max_domain, budget=budget)
        checks.append(("no TAUT0 refutation of the star output",
                       verdict.kind in ("exhausted", "decided"),
                       verdict.kind))
        ok, detail = _propositional_star_check(found.conjunction, K, budget)
        checks.append(("star of witness conjunction vanishes propositionally", ok, detail))
        report = VerificationReport(True, cert.reason, tuple(checks))
    elif cert.kind == "decided":
        report = _verify_non_contradiction(trace, K, cert.reason, max_domain, budget)
    else:
        # full-vocabulary input with no witness in depth: try to certify
        # non-contradiction through a B2 model instead
        model = _find_b2_model(pu, max_domain, budget)
        if model is None:
            raise ReductionVerificationError(
                "cannot certify the input either way within bounds: "
                f"Herbrand search exhausted at {found.bounds} and no B2 model "
                f"with domain <= {max_domain}"
            )
        report = _verify_non_contradiction(
            trace, K, f"B2 model with domain {model.domain_size}", max_domain, budget, model)

    if not report.consistent:
        failed = "; ".join(f"check [{name}] ({detail})"
                           for name, ok, detail in report.checks if not ok)
        raise ReductionVerificationError(f"certificate {report.certificate!r} failed {failed}")
    return report


def _verify_non_contradiction(trace: ReductionTrace, K: Sequence[FiniteChain],
                              certificate: str, max_domain: int, budget: int,
                              model: Optional[Structure] = None) -> VerificationReport:
    """Check the non-contradiction certificate; `model` is a B2 model found already."""
    checks: list[tuple[str, bool, str]] = []
    if model is None:
        # a relational purely universal non-contradiction always has a model at
        # the Bernays-Schonfinkel bound (#constants), which may exceed max_domain
        bound = max(1, len(vocabulary_of(trace.purely_universal_form).constants))
        model = _find_b2_model(trace.purely_universal_form, max(max_domain, bound), budget)
    checks.append(("B2 model of the purely universal form exists",
                   model is not None,
                   f"domain {model.domain_size}" if model else "none in bounds"))
    if model is not None:
        for chain in K:
            lifted = _lift_structure(model, chain)
            value = eval(chain, lifted, trace.star_output)
            checks.append((f"lifted model gives star output top value on size-{chain.size} chain",
                           value == chain.top, f"value {value}"))
    for chain in K:
        verdict = sat_pos_bounded([chain], trace.star_output, max_domain, budget=budget)
        checks.append((f"positive witness on size-{chain.size} chain",
                       verdict.kind == "member_witness",
                       f"value {verdict.value}" if verdict.kind == "member_witness" else verdict.kind))
    return VerificationReport(False, certificate, tuple(checks))


def _lift_structure(structure: Structure, chain: FiniteChain) -> Structure:
    """Read a B2 structure as a structure over any chain (0 -> bot, 1 -> top)."""
    predicates = {
        p: {k: (chain.top if v == 1 else chain.bot) for k, v in table.items()}
        for p, table in structure.predicates.items()
    }
    return Structure(structure.domain_size, dict(structure.constants),
                     {f: dict(t) for f, t in structure.functions.items()}, predicates)
