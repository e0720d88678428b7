"""Bounded and exact decision procedures for the four sentence sets.

Bounded searches report `exhausted` rather than a boolean when the bound
runs out: only one direction of each membership question is finitely
witnessable in general.  Every witness returned re-evaluates to the value
reported.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from functools import reduce
from typing import Callable, NamedTuple, Optional, Sequence

# make_boolean_chain, enumerate_structures and eval_propositional are no
# longer called here, but perfbench/tracing.py wraps them at this module's
# binding, so the names stay importable from it.
from .chains import FiniteChain, make_boolean_chain
from .semantics import (
    DEFAULT_BUDGET, BudgetExceededError, EvaluatorMismatchError, Structure, TruthValue,
    compile_formula, enumerate_structures, eval, eval_propositional, flat_layout,
)
from .syntax import (
    App, Atom, BOTTOM, TOP, Const, Exists, Formula, FragmentError, Join,
    Meet, Neg, Term, TruthConst, Var, classical_nnf, classify,
    ensure_constant, format_formula, herbrand_universe, is_quantifier_free,
    split_universal_prefix, substitute, vocabulary_of,
)

ChainClass = Sequence[FiniteChain]


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


# -- the ground SAT core ---------------------------------------------------
#
# Closed terms and ground atoms are interned to integers.  Each NNF conjunct
# becomes clauses under the Plaisted-Greenbaum encoding: NNF leaves every
# subformula in positive polarity, so a fresh variable only has to imply the
# conjunction it names.  DPLL with two watched literals and unit propagation
# solves the clauses, branching on the lowest unassigned variable, true first.

class _Grounder:
    """Interned closed terms and ground atoms; SAT variables number from 1."""

    def __init__(self):
        self.term_ids: dict = {}  # Const or Var, or (function, argument ids...) -> id
        self.terms: list[Term] = []
        self.atom_ids: dict = {}  # (predicate, argument ids...) -> variable
        self.atom_keys: list = [None]  # variable -> atom key; None for auxiliaries

    def term(self, t: Term) -> int:
        if isinstance(t, App):
            return self.app((t.func,) + tuple(self.term(a) for a in t.args))
        tid = self.term_ids.get(t)
        if tid is None:
            tid = self.term_ids[t] = len(self.terms)
            self.terms.append(t)
        return tid

    def app(self, key: tuple) -> int:
        tid = self.term_ids.get(key)
        if tid is None:
            tid = self.term_ids[key] = len(self.terms)
            self.terms.append(App(key[0], tuple(self.terms[i] for i in key[1:])))
        return tid

    def atom(self, key: tuple) -> int:
        var = self.atom_ids.get(key)
        if var is None:
            var = self.atom_ids[key] = len(self.atom_keys)
            self.atom_keys.append(key)
        return var

    def fresh(self) -> int:
        self.atom_keys.append(None)
        return len(self.atom_keys) - 1

    def model(self, value: list[int]) -> dict[Atom, int]:
        """The atoms the solver assigned, with their values."""
        terms = self.terms
        return {Atom(key[0], tuple(terms[i] for i in key[1:])): int(value[var] == 1)
                for var, key in enumerate(self.atom_keys) if key is not None and value[var]}


def _operands(phi: Formula, cls: type) -> list[Formula]:
    """The operands of a chain of cls nodes, left to right."""
    out: list[Formula] = []
    stack = [phi]
    while stack:
        node = stack.pop()
        if isinstance(node, cls):
            stack += (node.right, node.left)
        else:
            out.append(node)
    return out


class _Template:
    """The clauses of an NNF matrix over slots, grounded once per instance.

    A slot is an atom, kept as (predicate, term templates), or
    None for a Plaisted-Greenbaum auxiliary; a clause holds slot s as s and
    its negation as ~s.  A term template is a term id (>= 0), ~k for the
    instance's k-th argument, or (function, term templates...).  `bind` maps
    variable names to term templates; any other variable is a constant.
    """

    def __init__(self, nnf: Formula, grounder: _Grounder, bind: dict[str, int]):
        self.slots: list = []
        self.clauses: list[list[int]] = []
        self._grounder = grounder
        self._bind = bind
        self._atom_slots: dict = {}
        # classical_nnf folds 0 and 1 away below the root, so only a
        # conjunct can still be a truth constant
        for conjunct in _operands(nnf, Meet):
            if isinstance(conjunct, TruthConst):
                if not conjunct.top:
                    self.clauses.append([])
            else:
                self.clauses.append(self._part(conjunct))

    def _term(self, t: Term):
        if isinstance(t, Var) and t.name in self._bind:
            return self._bind[t.name]
        if isinstance(t, App):
            args = tuple(self._term(a) for a in t.args)
            if all(type(a) is int and a >= 0 for a in args):
                return self._grounder.app((t.func,) + args)
            return (t.func,) + args
        return self._grounder.term(t)

    def _slot(self, atom: Atom) -> int:
        args = tuple(self._term(t) for t in atom.args)
        key = (atom.pred, args)
        slot = self._atom_slots.get(key)
        if slot is None:
            slot = self._atom_slots[key] = len(self.slots)
            self.slots.append(key)
        return slot

    def _part(self, phi: Formula) -> list[int]:
        """Slot literals whose disjunction implies phi."""
        if isinstance(phi, Atom):
            return [self._slot(phi)]
        if isinstance(phi, Neg) and isinstance(phi.body, Atom):
            return [~self._slot(phi.body)]
        if isinstance(phi, Join):
            return [lit for sub in _operands(phi, Join) for lit in self._part(sub)]
        if isinstance(phi, Meet):
            parts = [self._part(sub) for sub in _operands(phi, Meet)]
            aux = len(self.slots)
            self.slots.append(None)
            self.clauses += [[~aux] + part for part in parts]
            return [aux]
        raise FragmentError("classical satisfiability needs a quantifier-free formula, "
                            f"got {format_formula(phi)!r}")

    def ground(self, args: tuple[int, ...]) -> list[list[int]]:
        """The clauses of the instance whose k-th argument is the term id args[k]."""
        grounder = self._grounder
        var = []
        for slot in self.slots:
            if slot is None:
                var.append(grounder.fresh())
                continue
            pred, targs = slot
            var.append(grounder.atom((pred,) + tuple(_ground_term(t, args, grounder)
                                                     for t in targs)))
        return [[var[s] if s >= 0 else -var[~s] for s in clause] for clause in self.clauses]


def _ground_term(t, args: tuple[int, ...], grounder: _Grounder) -> int:
    if type(t) is int:
        return t if t >= 0 else args[~t]
    return grounder.app((t[0],) + tuple(_ground_term(s, args, grounder) for s in t[1:]))


def _dpll(n_vars: int, clauses: list[list[int]], budget: int) -> Optional[list[int]]:
    """A model as values indexed by literal (1 true, -1 false, 0 unused), or None.

    Negative literals index from the end of the list.  Chronological
    backtracking; raises BudgetExceededError after `budget` decisions.
    """
    value = [0] * (2 * n_vars + 1)
    watches: list[list[list[int]]] = [[] for _ in range(2 * n_vars + 1)]
    used = [False] * (n_vars + 1)
    trail: list[int] = []
    for clause in clauses:
        # watches reorder a clause in place, so the solver keeps its own copy;
        # repeated and complementary literals need no special case
        if len(clause) > 1:
            clause = clause[:]
            watches[clause[0]].append(clause)
            watches[clause[1]].append(clause)
        elif clause:
            lit = clause[0]
            if value[lit] == -1:
                return None
            if not value[lit]:
                value[lit], value[-lit] = 1, -1
                trail.append(lit)
        else:
            return None
        for lit in clause:
            used[abs(lit)] = True

    levels: list[tuple[int, int, bool]] = []  # (trail length, decision, flipped)
    head = 0
    next_var = 1
    decisions = 0
    while True:
        conflict = False
        while head < len(trail) and not conflict:
            false_lit = -trail[head]
            head += 1
            watching = watches[false_lit]
            kept = []
            for i, clause in enumerate(watching):
                if clause[0] == false_lit:
                    clause[0], clause[1] = clause[1], false_lit
                first = clause[0]
                if value[first] == 1:
                    kept.append(clause)
                    continue
                for k in range(2, len(clause)):
                    lit = clause[k]
                    if value[lit] != -1:
                        clause[1], clause[k] = lit, false_lit
                        watches[lit].append(clause)
                        break
                else:
                    kept.append(clause)
                    if value[first] == -1:
                        kept += watching[i + 1:]
                        conflict = True
                        break
                    value[first], value[-first] = 1, -1
                    trail.append(first)
            watches[false_lit] = kept
        if conflict:
            while levels:
                start, lit, flipped = levels.pop()
                for undone in trail[start:]:
                    value[undone] = value[-undone] = 0
                    next_var = min(next_var, abs(undone))
                del trail[start:]
                head = start
                if not flipped:
                    levels.append((start, -lit, True))
                    value[-lit], value[lit] = 1, -1
                    trail.append(-lit)
                    break
            else:
                return None
            continue
        while next_var <= n_vars and (value[next_var] or not used[next_var]):
            next_var += 1
        if next_var > n_vars:
            return value
        decisions += 1
        if decisions > budget:
            raise BudgetExceededError(decisions, budget, "SAT decisions")
        levels.append((len(trail), next_var, False))
        value[next_var], value[-next_var] = 1, -1
        trail.append(next_var)


class GroundClauses(NamedTuple):
    """Clauses grounded over a grounder's variables, ready for one SAT call."""

    grounder: _Grounder
    clauses: list[list[int]]


def prop_satisfiable(phi: Formula | Sequence[Formula] | GroundClauses,
                     budget: int = DEFAULT_BUDGET) -> Optional[dict[Atom, int]]:
    """Classical satisfiability of closed quantifier-free formulas.

    phi is one formula, a list of conjuncts, or clauses grounded here.
    Returns a satisfying valuation of the atoms the clauses mention (any
    other atom may take 0), or None.  Raises BudgetExceededError after
    `budget` DPLL decisions.
    """
    if isinstance(phi, GroundClauses):
        grounder, clauses = phi.grounder, phi.clauses
    else:
        grounder, clauses = _Grounder(), []
        for conjunct in (phi if isinstance(phi, (list, tuple)) else [phi]):
            clauses += _Template(classical_nnf(conjunct), grounder, {}).ground(())
    value = _dpll(len(grounder.atom_keys) - 1, clauses, budget)
    return None if value is None else grounder.model(value)


def is_classical_contradiction_prop(phi: Formula, budget: int = DEFAULT_BUDGET) -> bool:
    """Unsatisfiability over B2, treating closed atoms as letters.

    Raises BudgetExceededError after `budget` DPLL decisions.
    """
    if not is_quantifier_free(phi):
        raise FragmentError("propositional contradiction check needs a quantifier-free formula")
    return prop_satisfiable(phi, budget) is None


# -- instance grounding ----------------------------------------------------

class _Instances:
    """The instances of a matrix over universes of term ids, each grounded once.

    The prefix variables range over the universe and `bind` fixes any others
    to term ids.  An instance is its tuple of term ids; its clauses are kept
    as one group, so a set of instances is one SAT call.
    """

    def __init__(self, matrix: Formula, grounder: _Grounder, bind: dict[str, int],
                 prefix: list[str]):
        self.grounder = grounder
        self.arity = len(prefix)
        self.template = _Template(matrix, grounder,
                                  {**bind, **{v: ~k for k, v in enumerate(prefix)}})
        self.groups: dict[tuple[int, ...], list[list[int]]] = {}

    def over(self, universe: list[int], budget: int) -> list[tuple[int, ...]]:
        """Every instance over the universe, grounded; the count is checked first."""
        count = len(universe) ** self.arity
        if count > budget:
            raise BudgetExceededError(count, budget, "ground instances")
        keys = list(itertools.product(universe, repeat=self.arity))
        for key in keys:
            if key not in self.groups:
                self.groups[key] = self.template.ground(key)
        return keys

    def contradictory(self, keys: Sequence[tuple[int, ...]], budget: int) -> bool:
        clauses = [clause for key in keys for clause in self.groups[key]]
        return prop_satisfiable(GroundClauses(self.grounder, clauses), budget) is None


# -- Bernays-Schonfinkel decider -----------------------------------------

def bsr_decide(phi: Formula, budget: int = DEFAULT_BUDGET) -> Verdict:
    """Exact classical satisfiability for relational exists*-forall* sentences.

    Without equality, exists x-bar forall y-bar M is satisfiable iff the
    instances of M with x-bar read as fresh constants @0, @1, ... and y-bar
    ranging over those and the sentence's constants (@0 alone when there are
    neither) are propositionally satisfiable (Herbrand).  That universe has
    max(1, #exists + #consts) elements, the Bernays-Schonfinkel bound.  The
    |U|^#forall instances are checked against the budget, grounded, and
    decided by one SAT call.
    """
    flags = classify(phi)
    if not flags.is_relational:
        raise FragmentError("Bernays-Schonfinkel decider needs a relational sentence")
    if not flags.is_sentence:
        raise FragmentError("Bernays-Schonfinkel decider needs a sentence")
    grounder = _Grounder()
    universe = [grounder.term(Const(c)) for c in sorted(vocabulary_of(phi).constants)]
    matrix, skolem = classical_nnf(phi), {}
    while isinstance(matrix, Exists):
        skolem[matrix.var] = grounder.term(Const(f"@{len(skolem)}"))
        matrix = matrix.body
    forall_vars, matrix = split_universal_prefix(matrix)
    if not is_quantifier_free(matrix):
        raise FragmentError("not an exists*-forall* prefix sentence")
    universe += skolem.values()
    if not universe:
        universe.append(grounder.term(Const("@0")))
    instances = _Instances(matrix, grounder, skolem, forall_vars)
    sat = not instances.contradictory(instances.over(universe, budget), budget)
    bound = len(universe)
    return Verdict("decided", decided=sat,
                   reason=f"{'' if sat else 'un'}satisfiable at the Bernays-Schonfinkel bound {bound}",
                   bounds=f"single domain size {bound}")


# -- dual-Herbrand instantiation search ----------------------------------

# Past depth 0, a depth is searched only while its instance count is at most this.
HERBRAND_INSTANCE_CAP = 4096


@dataclass(frozen=True)
class HerbrandWitness:
    depth: int
    m: int
    instantiations: tuple[tuple, ...]  # tuples of closed terms, one per instance
    conjunction: Formula


def dual_herbrand_search(phi: Formula, max_depth: int,
                         budget: int = DEFAULT_BUDGET) -> HerbrandWitness | Verdict:
    """Search for a contradictory conjunction of Herbrand instances.

    Works depth by depth over the term universe.  Each matrix instance is
    grounded once, as its own clause group; at each depth one SAT call tests
    all of them together and, when they are contradictory, the groups are
    greedily minimized (left to right) into the reported witness.  Depth 0 is
    always searched, a deeper one while its instance count is within
    HERBRAND_INSTANCE_CAP.  Without function symbols or universal variables
    depth 0 holds every instance, so the search stops there with an exact
    answer; otherwise `exhausted` only means no witness at the depths named.
    """
    if not classify(phi).is_purely_universal:
        raise FragmentError("dual Herbrand search needs a purely universal sentence")
    if max_depth < 0:
        raise ValueError(f"max depth must be at least 0, got {max_depth}")
    prefix, matrix = split_universal_prefix(phi)
    vocab = ensure_constant(vocabulary_of(phi))
    grounder = _Grounder()
    instances = _Instances(classical_nnf(matrix), grounder, {}, prefix)
    searched = 0
    size = len(vocab.constants)  # of the universe at `depth`, known before it is built
    for depth in range(max_depth + 1):
        if depth and size ** len(prefix) > HERBRAND_INSTANCE_CAP:
            break
        universe = [grounder.term(t) for t in herbrand_universe(vocab, depth)]
        keys = instances.over(universe, budget)
        if instances.contradictory(keys, budget):
            keep = _greedy_minimal(len(keys), lambda idx: instances.contradictory(
                [keys[i] for i in idx], budget))
            terms = tuple(tuple(grounder.terms[t] for t in keys[i]) for i in keep)
            return HerbrandWitness(depth, len(keep), terms, reduce(Meet, [
                substitute(matrix, dict(zip(prefix, args))) for args in terms]))
        searched = depth
        if not (vocab.functions and prefix):
            break
        size = len(vocab.constants) + sum(size ** a for a in vocab.functions.values())
    return Verdict("exhausted", bounds=f"term depth 0..{searched}")


def _greedy_minimal(n: int, contradictory: Callable[[list[int]], bool]) -> list[int]:
    """What left-to-right greedy deletion keeps of a contradictory 0..n-1.

    Deletion drops i when the instances kept before it and all after it stay
    contradictory (and are not none).  Contradiction is monotone, so a run
    i..j-1 drops at once when the kept ones and j.. stay contradictory; a run
    that cannot drop is halved.  Keeping m of n costs O(m log n) calls.
    """
    keep: list[int] = []
    i, run = 0, n
    while i < n:
        rest = keep + list(range(i + run, n))
        if rest and contradictory(rest):
            i += run
            run = min(run, n - i)
        elif run > 1:
            run //= 2
        else:
            keep.append(i)
            i += 1
            run = n - i
    return keep


def herbrand_verdict(phi: Formula, result: HerbrandWitness | Verdict, max_depth: int) -> Verdict:
    """The contradiction verdict the dual-Herbrand search on phi gives.

    Without function symbols the search covered the Bernays-Schonfinkel
    bound, so either answer is exact.
    """
    vocab = ensure_constant(vocabulary_of(phi))
    if not vocab.functions:
        unsat, bound = isinstance(result, HerbrandWitness), len(vocab.constants)
        return Verdict("decided", decided=unsat, bounds=f"single domain size {bound}",
                       reason=f"Bernays-Schonfinkel: {'un' if unsat else ''}satisfiable "
                              f"at the Bernays-Schonfinkel bound {bound}")
    if isinstance(result, HerbrandWitness):
        return Verdict("decided", decided=True,
                       reason=f"Herbrand witness with {result.m} instances at depth {result.depth}",
                       bounds=f"term depth 0..{max_depth}")
    return result


def purely_universal_contradiction(phi: Formula, max_depth: int,
                                   budget: int = DEFAULT_BUDGET) -> Verdict:
    """Decide (relational case) or semi-decide contradictoriness.

    Relational purely universal sentences fall into the Bernays-Schonfinkel
    fragment, where the dual-Herbrand search is complete at depth 0, so
    contradiction = unsatisfiability is decided exactly.  With function
    symbols the answer is a semi-decision: a witness proves contradiction,
    exhaustion proves nothing.
    """
    return herbrand_verdict(phi, dual_herbrand_search(phi, max_depth, budget), max_depth)


# BSR grounding no longer maps constants to domain elements, so nothing here
# calls _replace_constants; perfbench/tracing.py still wraps the name.
_replace_constants = None
