"""Bounded and exact decision procedures for the four sentence sets.

Bounded searches report `exhausted` rather than a boolean when the bound
runs out: only one direction of each membership question is finitely
witnessable in general.  Every witness returned re-evaluates to the value
reported.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from typing import Callable, Optional, Sequence

from .chains import FiniteChain, make_boolean_chain
# enumerate_structures is no longer called here, but perfbench/tracing.py
# wraps it at this binding, so the name stays importable from this module.
from .semantics import (
    DEFAULT_BUDGET, EvaluatorMismatchError, Structure, TruthValue, compile_formula,
    enumerate_structures, eval, eval_propositional, flat_layout,
)
from .syntax import (
    Atom, BOTTOM, TOP, Const, Exists, Forall, Formula, FragmentError, Join,
    Meet, Neg, TruthConst, Var, Vocabulary, atoms_of, classical_nnf, classify,
    ensure_constant, format_formula, herbrand_universe, is_quantifier_free,
    split_universal_prefix, substitute, vocabulary_of,
)

ChainClass = Sequence[FiniteChain]

DEFAULT_ATOM_CAP = 24


class TooManyAtomsError(ValueError):
    pass


@dataclass(frozen=True)
class Verdict:
    """Outcome of a decision procedure.

    kind is one of 'member_witness', 'refuted', 'exhausted', 'decided'.
    """

    kind: str
    value: Optional[TruthValue] = None
    chain: Optional[FiniteChain] = None
    structure: Optional[Structure] = None
    decided: Optional[bool] = None
    reason: str = ""
    bounds: str = ""

    def describe(self) -> str:
        lines = [f"outcome: {self.kind}"]
        if self.decided is not None:
            lines.append(f"decided: {self.decided}")
        if self.value is not None:
            lines.append(f"value: {self.value}")
        if self.chain is not None:
            lines.append(f"chain: size {self.chain.size}")
        if self.structure is not None:
            lines.append("structure:")
            lines.extend("  " + ln for ln in self.structure.describe().splitlines())
        if self.reason:
            lines.append(f"reason: {self.reason}")
        if self.bounds:
            lines.append(f"bounds: {self.bounds}")
        return "\n".join(lines)


def _find(K: ChainClass, phi: Formula, max_domain: int, budget: int,
          accept: Callable[[FiniteChain, TruthValue], bool],
          ) -> Optional[tuple[FiniteChain, Structure, TruthValue]]:
    """The first (chain, structure, value) in search order that `accept`s, or None.

    The order is chains in K, then domain sizes 1..max_domain, then the
    structures in `enumerate_structures` order.  The budget is checked per
    (chain, domain size) before that space is searched.  phi is compiled
    once per (chain, domain size); the witness is rebuilt as a Structure and
    re-evaluated with the reference `eval`, and a disagreement raises
    EvaluatorMismatchError instead of returning it.
    """
    vocab = vocabulary_of(phi)
    for chain in K:
        accepted = frozenset(v for v in chain.carrier() if accept(chain, v))
        for n in range(1, max_domain + 1):
            layout = flat_layout(vocab, chain, n, budget)
            value_of = compile_formula(phi, chain, layout)
            for values in itertools.product(*layout.ranges):
                value = value_of(values)
                if value in accepted:
                    structure = layout.structure(values)
                    reference = eval(chain, structure, phi)
                    if reference != value:
                        raise EvaluatorMismatchError(
                            f"compiled value {value} but reference value {reference} "
                            f"on a size-{chain.size} chain for {format_formula(phi)}:\n"
                            f"{structure.describe()}")
                    return chain, structure, value
    return None


def _nonzero(chain: FiniteChain, value: TruthValue) -> bool:
    return value != chain.bot


def _top(chain: FiniteChain, value: TruthValue) -> bool:
    return value == chain.top


def _bounds_text(K: ChainClass, max_domain: int) -> str:
    sizes = ",".join(str(c.size) for c in K)
    return f"chains of sizes [{sizes}], domains 1..{max_domain}"


def _bounded(K: ChainClass, phi: Formula, max_domain: int, budget: int,
             accept: Callable[[FiniteChain, TruthValue], bool], kind: str) -> Verdict:
    found = _find(K, phi, max_domain, budget, accept)
    if found is None:
        return Verdict("exhausted", bounds=_bounds_text(K, max_domain))
    chain, structure, value = found
    return Verdict(kind, value=value, chain=chain, structure=structure,
                   bounds=_bounds_text(K, max_domain))


def taut0_bounded(K: ChainClass, phi: Formula, max_domain: int,
                  budget: int = DEFAULT_BUDGET) -> Verdict:
    """Search for a refutation of `phi takes value 0 everywhere`."""
    if phi == BOTTOM:
        return Verdict("decided", decided=True, reason="the constant 0 is 0 everywhere")
    return _bounded(K, phi, max_domain, budget, _nonzero, "refuted")


def sat_pos_bounded(K: ChainClass, phi: Formula, max_domain: int,
                    budget: int = DEFAULT_BUDGET) -> Verdict:
    """Search for a structure giving phi a value above 0."""
    if phi == BOTTOM:
        return Verdict("decided", decided=False, reason="the constant 0 is 0 everywhere")
    return _bounded(K, phi, max_domain, budget, _nonzero, "member_witness")


def taut_lt1_bounded(K: ChainClass, phi: Formula, max_domain: int,
                     budget: int = DEFAULT_BUDGET) -> Verdict:
    """Search for a structure where phi attains the top value."""
    if phi == TOP:
        return Verdict("refuted", value=K[0].top, chain=K[0],
                       structure=Structure(1),
                       bounds=_bounds_text(K, max_domain))
    return _bounded(K, phi, max_domain, budget, _top, "refuted")


def sat1_bounded(K: ChainClass, phi: Formula, max_domain: int,
                 budget: int = DEFAULT_BUDGET) -> Verdict:
    """Search for a structure where phi attains exactly the top value."""
    return _bounded(K, phi, max_domain, budget, _top, "member_witness")


# -- classical propositional checks --------------------------------------

def is_classical_contradiction_prop(phi: Formula, atom_cap: int = DEFAULT_ATOM_CAP) -> bool:
    """Truth-table check over B2, treating closed atoms as letters."""
    if not is_quantifier_free(phi):
        raise FragmentError("propositional contradiction check needs a quantifier-free formula")
    atoms = atoms_of(phi)
    if len(atoms) > atom_cap:
        raise TooManyAtomsError(f"{len(atoms)} distinct atoms exceed the cap {atom_cap}")
    b2 = make_boolean_chain()
    for bits in itertools.product((0, 1), repeat=len(atoms)):
        valuation = dict(zip(atoms, bits))
        if eval_propositional(b2, valuation, phi) != 0:
            return False
    return True


def _simplify_classical(phi: Formula, atom: Atom, value: bool) -> Formula:
    """Substitute a truth value for an atom and constant-fold, classically."""
    if isinstance(phi, Atom):
        return (TOP if value else BOTTOM) if phi == atom else phi
    if isinstance(phi, TruthConst):
        return phi
    if isinstance(phi, Neg):
        body = _simplify_classical(phi.body, atom, value)
        if isinstance(body, TruthConst):
            return BOTTOM if body.top else TOP
        return Neg(body)
    if isinstance(phi, (Meet, Join)):
        left = _simplify_classical(phi.left, atom, value)
        right = _simplify_classical(phi.right, atom, value)
        absorb, unit = (BOTTOM, TOP) if isinstance(phi, Meet) else (TOP, BOTTOM)
        if absorb in (left, right):
            return absorb
        if left == unit:
            return right
        if right == unit:
            return left
        return type(phi)(left, right)
    raise FragmentError(f"classical satisfiability expects NNF, got {format_formula(phi)!r}")


def prop_satisfiable(phi: Formula) -> Optional[dict[Atom, int]]:
    """Classical satisfiability of a quantifier-free closed formula.

    Returns a satisfying valuation (atoms not mentioned default to 0), or
    None.  Branches on atoms with constant folding, so it copes with far
    more atoms than a full truth table.
    """
    phi = classical_nnf(phi)

    def go(phi: Formula, picked: dict[Atom, int]) -> Optional[dict[Atom, int]]:
        if phi == TOP:
            return picked
        if phi == BOTTOM:
            return None
        atom = atoms_of(phi)[0]
        for value in (True, False):
            reduced = _simplify_classical(phi, atom, value)
            chosen = dict(picked)
            chosen[atom] = 1 if value else 0
            result = go(reduced, chosen)
            if result is not None:
                return result
        return None

    return go(phi, {})


# -- Bernays-Schonfinkel decider -----------------------------------------

def _split_bsr_prefix(phi: Formula) -> tuple[list[str], list[str], Formula]:
    exists_vars: list[str] = []
    while isinstance(phi, Exists):
        exists_vars.append(phi.var)
        phi = phi.body
    forall_vars: list[str] = []
    while isinstance(phi, Forall):
        forall_vars.append(phi.var)
        phi = phi.body
    if not is_quantifier_free(phi):
        raise FragmentError("not an exists*-forall* prefix sentence")
    return exists_vars, forall_vars, phi


def bsr_decide(phi: Formula) -> Verdict:
    """Exact classical satisfiability for relational exists*-forall* sentences.

    Satisfiable iff satisfiable in a domain of size max(1, #exists + #consts);
    decided by exhausting that single domain size over B2 (grounding the
    sentence and checking propositional satisfiability).
    """
    flags = classify(phi)
    if not flags.is_relational:
        raise FragmentError("Bernays-Schonfinkel decider needs a relational sentence")
    if not flags.is_sentence:
        raise FragmentError("Bernays-Schonfinkel decider needs a sentence")
    nnf = classical_nnf(phi)
    exists_vars, forall_vars, matrix = _split_bsr_prefix(nnf)
    vocab = vocabulary_of(phi)
    consts = sorted(vocab.constants)
    bound = max(1, len(exists_vars) + len(consts))
    elements = [Const(f"@{i}") for i in range(bound)]

    for const_assignment in itertools.product(elements, repeat=len(consts)):
        const_env = dict(zip(consts, const_assignment))
        base = _replace_constants(matrix, const_env)
        for exist_assignment in itertools.product(elements, repeat=len(exists_vars)):
            env = dict(zip(exists_vars, exist_assignment))
            grounded = substitute(base, env)
            conjuncts: Formula = TOP
            for univ_assignment in itertools.product(elements, repeat=len(forall_vars)):
                inst = substitute(grounded, dict(zip(forall_vars, univ_assignment)))
                conjuncts = inst if conjuncts == TOP else Meet(conjuncts, inst)
            if prop_satisfiable(conjuncts) is not None:
                return Verdict("decided", decided=True,
                               reason=f"satisfiable at the Bernays-Schonfinkel bound {bound}",
                               bounds=f"single domain size {bound}")
    return Verdict("decided", decided=False,
                   reason=f"unsatisfiable at the Bernays-Schonfinkel bound {bound}",
                   bounds=f"single domain size {bound}")


def _replace_constants(phi: Formula, env: dict[str, Const]) -> Formula:
    def on_term(t):
        if isinstance(t, Const) and t.name in env:
            return env[t.name]
        return t

    if isinstance(phi, Atom):
        return Atom(phi.pred, tuple(on_term(t) for t in phi.args))
    if isinstance(phi, TruthConst):
        return phi
    if isinstance(phi, Neg):
        return Neg(_replace_constants(phi.body, env))
    if isinstance(phi, (Meet, Join)):
        return type(phi)(_replace_constants(phi.left, env), _replace_constants(phi.right, env))
    raise FragmentError("constant replacement expects a quantifier-free NNF formula")


# -- dual-Herbrand instantiation search ----------------------------------

@dataclass(frozen=True)
class HerbrandWitness:
    depth: int
    m: int
    instantiations: tuple[tuple, ...]  # tuples of closed terms, one per instance
    conjunction: Formula

    def describe(self) -> str:
        from .syntax import format_term
        lines = [f"depth: {self.depth}", f"instances: {self.m}"]
        for tup in self.instantiations:
            lines.append("  (" + ", ".join(format_term(t) for t in tup) + ")")
        lines.append(f"conjunction: {format_formula(self.conjunction)}")
        return "\n".join(lines)


def dual_herbrand_search(phi: Formula, max_depth: int,
                         instance_cap: int = 4096) -> HerbrandWitness | Verdict:
    """Search for a contradictory conjunction of Herbrand instances.

    Works depth by depth; at each depth the full conjunction of all matrix
    instances over the term universe is tested and, when contradictory,
    greedily minimized (left to right) into the reported witness.  An
    `exhausted` verdict only means no witness up to the depth bound.
    """
    if not classify(phi).is_purely_universal:
        raise FragmentError("dual Herbrand search needs a purely universal sentence")
    prefix, matrix = split_universal_prefix(phi)
    vocab = ensure_constant(vocabulary_of(phi))
    for depth in range(max_depth + 1):
        universe = herbrand_universe(vocab, depth)
        tuples = list(itertools.product(universe, repeat=len(prefix)))
        if len(tuples) > instance_cap:
            break
        instances = [substitute(matrix, dict(zip(prefix, tup))) for tup in tuples]
        conj = _big_meet(instances) if instances else matrix
        if prop_satisfiable(conj) is None:
            keep = list(range(len(instances)))
            for i in range(len(instances)):
                trial = [j for j in keep if j != i]
                if trial and prop_satisfiable(_big_meet([instances[j] for j in trial])) is None:
                    keep = trial
            witness_instances = [instances[j] for j in keep]
            return HerbrandWitness(
                depth=depth,
                m=len(keep),
                instantiations=tuple(tuples[j] for j in keep),
                conjunction=_big_meet(witness_instances),
            )
    return Verdict("exhausted", bounds=f"term depth 0..{max_depth}")


def _big_meet(parts: list[Formula]) -> Formula:
    out = parts[0]
    for p in parts[1:]:
        out = Meet(out, p)
    return out


def purely_universal_contradiction(phi: Formula, max_depth: int) -> Verdict:
    """Decide (relational case) or semi-decide contradictoriness.

    Relational purely universal sentences fall into the Bernays-Schonfinkel
    fragment, so contradiction = unsatisfiability is decided exactly at the
    finite-model bound.  With function symbols the answer is the dual-Herbrand
    semi-decision: a witness proves contradiction, exhaustion proves nothing.
    """
    flags = classify(phi)
    if not flags.is_purely_universal:
        raise FragmentError("expected a purely universal sentence")
    if flags.is_relational:
        sat = bsr_decide(phi)
        return Verdict("decided", decided=not sat.decided,
                       reason=f"Bernays-Schonfinkel: {sat.reason}", bounds=sat.bounds)
    result = dual_herbrand_search(phi, max_depth)
    if isinstance(result, HerbrandWitness):
        return Verdict("decided", decided=True,
                       reason=f"Herbrand witness with {result.m} instances at depth {result.depth}",
                       bounds=f"term depth 0..{max_depth}")
    return result
