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
from typing import Callable, Optional, Sequence

# make_boolean_chain, enumerate_structures and eval_propositional are no
# longer called here, but perfbench/tracing.py wraps them at this module's
# binding, so the names stay importable from it.
from .chains import FiniteChain, make_boolean_chain
from .semantics import (
    DEFAULT_BUDGET, BudgetExceededError, EvaluatorMismatchError, Structure, TruthValue,
    enumerate_structures, eval, eval_propositional, first_at_least,
)
from .syntax import (
    App, Atom, BOTTOM, MAX_NESTING, Formula, FragmentError, Join, Meet, Neg,
    TOP, Term, TruthConst, Var, Vocabulary, classical_nnf, format_formula, free_vars,
    herbrand_levels, herbrand_universe_sizes, prenex, substitute,
    vocabulary_of,
)

ChainClass = Sequence[FiniteChain]


@dataclass(frozen=True)
class HerbrandWitness:
    depth: int
    m: int
    instantiations: tuple[tuple, ...]  # tuples of closed terms, one per instance
    conjunction: Formula


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
    herbrand: Optional[HerbrandWitness] = None


def _bounded(K: ChainClass, phi: Formula, max_domain: int, budget: int, kind: str, *,
             top: bool) -> Verdict:
    """The shared body of the four deciders: the first (chain, structure)
    in search order where phi's value is the chain's top when `top`, else
    above its bottom.  The constant 0 is never above the bottom, so that
    question needs no search for it.

    The order is chains in K, then domain sizes 1..max_domain, then the
    structures in `enumerate_structures` order; `first_at_least` checks the
    budget and scans one (chain, domain size) space.  The witness's value
    must reach the threshold and agree with `eval` on it, or
    EvaluatorMismatchError is raised instead of returning it.
    """
    if max_domain < 1:
        raise ValueError(f"max domain must be at least 1, got {max_domain}")
    if phi == BOTTOM and not top:
        return Verdict("decided", decided=kind == "refuted",
                       reason="the constant 0 is 0 everywhere")
    bounds = f"chains of sizes [{','.join(str(c.size) for c in K)}], domains 1..{max_domain}"
    vocab = vocabulary_of(phi)
    for chain in K:
        least = chain.top if top else chain.bot + 1
        for n in range(1, max_domain + 1):
            found = first_at_least(phi, vocab, chain, n, least, budget)
            if found is not None:
                structure, value = found
                reference = eval(chain, structure, phi)
                if not (value == reference and value >= least):
                    raise EvaluatorMismatchError(
                        f"found value {value} but reference value {reference} on a "
                        f"size-{chain.size} chain for {format_formula(phi)}:\n"
                        f"{structure.describe()}")
                return Verdict(kind, value=value, chain=chain, structure=structure,
                               bounds=bounds)
    return Verdict("exhausted", bounds=bounds)


def taut0_bounded(K: ChainClass, phi: Formula, max_domain: int,
                  budget: int = DEFAULT_BUDGET) -> Verdict:
    """Search for a refutation of `phi takes value 0 everywhere`."""
    return _bounded(K, phi, max_domain, budget, "refuted", top=False)


def sat_pos_bounded(K: ChainClass, phi: Formula, max_domain: int,
                    budget: int = DEFAULT_BUDGET) -> Verdict:
    """Search for a structure giving phi a value above 0."""
    return _bounded(K, phi, max_domain, budget, "member_witness", top=False)


def taut_lt1_bounded(K: ChainClass, phi: Formula, max_domain: int,
                     budget: int = DEFAULT_BUDGET) -> Verdict:
    """Search for a structure where phi attains the top value."""
    return _bounded(K, phi, max_domain, budget, "refuted", top=True)


def sat1_bounded(K: ChainClass, phi: Formula, max_domain: int,
                 budget: int = DEFAULT_BUDGET) -> Verdict:
    """Search for a structure where phi attains exactly the top value."""
    return _bounded(K, phi, max_domain, budget, "member_witness", top=True)


# -- the ground SAT core ---------------------------------------------------
#
# Closed terms and ground atoms are interned to integers.  Each NNF conjunct
# becomes clauses under the Plaisted-Greenbaum encoding: NNF leaves every
# subformula in positive polarity, so a fresh variable only has to imply the
# conjunction it names.  DPLL with two watched literals and unit propagation
# solves the clauses, branching on the lowest unassigned variable, true first.

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


class _Instances:
    """The instances of an NNF matrix, compiled to clauses once and each grounded once.

    Closed terms are interned to term ids (`terms`) and ground atoms to SAT
    variables numbered from 1 (`atom_keys`, None for an auxiliary).  The k-th
    prefix variable is an instance's k-th argument, a variable of `exists` is its
    own closed term (a Var, which no Const equals), and any other variable raises
    FragmentError.  An instance is its tuple of term ids, and its clauses are kept
    as one group, so a set of instances is one SAT call.  The clauses are compiled
    over slots: a slot is an atom, kept as (predicate, term templates), or None for
    a Plaisted-Greenbaum auxiliary, and a clause holds slot s as s and its negation
    as ~s.  A term template is a term id (>= 0), ~k for the instance's k-th
    argument, or (function, term templates...).
    """

    def __init__(self, matrix: Formula, prefix: Sequence[str], exists: Sequence[str] = ()):
        self.term_ids: dict = {}  # Const or Var, or (function, argument ids...) -> id
        self.terms: list[Term] = []
        self.atom_ids: dict = {}  # (predicate, argument ids...) -> variable
        self.atom_keys: list = [None]  # variable -> atom key; None for auxiliaries
        self.arity = len(prefix)
        self.slots: list = []
        self.clauses: list[list[int]] = []
        self.groups: dict[tuple[int, ...], list[list[int]]] = {}
        self._args = {v: ~k for k, v in enumerate(prefix)}
        self._exists = frozenset(exists)
        self._atom_slots: dict = {}
        # the folds of classical_nnf and prenex leave 0 and 1 only
        # at the root, so only a conjunct can still be a truth constant
        for conjunct in _operands(matrix, Meet):
            if isinstance(conjunct, TruthConst):
                if not conjunct.top:
                    self.clauses.append([])
            else:
                self.clauses.append(self._part(conjunct))

    def term(self, t: Term) -> int:
        """The id of the closed term t, interned on first sight."""
        if isinstance(t, App):
            return self._app((t.func,) + tuple(self.term(a) for a in t.args))
        tid = self.term_ids.get(t)
        if tid is None:
            tid = self.term_ids[t] = len(self.terms)
            self.terms.append(t)
        return tid

    def _app(self, key: tuple) -> int:
        tid = self.term_ids.get(key)
        if tid is None:
            tid = self.term_ids[key] = len(self.terms)
            self.terms.append(App(key[0], tuple(self.terms[i] for i in key[1:])))
        return tid

    def _template(self, t: Term):
        if isinstance(t, Var) and t.name not in self._exists:
            if t.name not in self._args:
                raise FragmentError(f"classical satisfiability needs a sentence: {t.name} is free")
            return self._args[t.name]
        if isinstance(t, App):
            args = tuple(self._template(a) for a in t.args)
            if all(type(a) is int and a >= 0 for a in args):
                return self._app((t.func,) + args)
            return (t.func,) + args
        return self.term(t)

    def _slot(self, atom: Atom) -> int:
        args = tuple(self._template(t) for t in atom.args)
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

    def _ground_term(self, t, args: tuple[int, ...]) -> int:
        if type(t) is int:
            return t if t >= 0 else args[~t]
        return self._app((t[0],) + tuple(self._ground_term(s, args) for s in t[1:]))

    def ground(self, args: tuple[int, ...]) -> list[list[int]]:
        """The clauses of the instance whose k-th argument is the term id args[k]."""
        atom_ids, atom_keys = self.atom_ids, self.atom_keys
        var = []
        for slot in self.slots:
            if slot is None:
                var.append(len(atom_keys))
                atom_keys.append(None)
                continue
            key = (slot[0],) + tuple(self._ground_term(t, args) for t in slot[1])
            v = atom_ids.get(key)
            if v is None:
                v = atom_ids[key] = len(atom_keys)
                atom_keys.append(key)
            var.append(v)
        return [[var[s] if s >= 0 else -var[~s] for s in clause] for clause in self.clauses]

    def over(self, universe: list[int], budget: int) -> list[tuple[int, ...]]:
        """Every instance over the universe, grounded; the count is checked first."""
        count = len(universe) ** self.arity
        if count > budget:
            raise BudgetExceededError(count, budget, "ground instances")
        keys = list(itertools.product(universe, repeat=self.arity))
        for key in keys:
            if key not in self.groups:
                self.groups[key] = self.ground(key)
        return keys

    def solve(self, keys: Sequence[tuple[int, ...]], budget: int) -> Optional[list[int]]:
        """A model of the instances' clauses as `_dpll` gives it, or None."""
        clauses = [clause for key in keys for clause in self.groups[key]]
        return _dpll(len(self.atom_keys) - 1, clauses, budget)

    def structure(self, universe: list[int], model: list[int], vocab: Vocabulary,
                  budget: int) -> Optional[Structure]:
        """The model as a B2 structure of vocab, element i the constant universe[i] and any other
        constant, function value or unmentioned atom 0; None past `budget` table entries."""
        n, index = len(universe), {t: i for i, t in enumerate(universe)}
        symbols = vocab.predicates | vocab.functions
        if sum(n ** arity for arity in symbols.values()) > budget:
            return None
        tables = {s: dict.fromkeys(itertools.product(range(n), repeat=arity), 0)
                  for s, arity in symbols.items()}
        for key, v in self.atom_ids.items():
            tables[key[0]][tuple(index[t] for t in key[1:])] = int(model[v] == 1)
        names = dict.fromkeys(sorted(vocab.constants), 0)
        names.update((self.terms[t].name, i) for t, i in index.items())
        return Structure(n, names, {f: tables.pop(f) for f in vocab.functions}, tables)


def _dpll(n_vars: int, clauses: list[list[int]], budget: int) -> Optional[list[int]]:
    """A model as values indexed by literal (1 true, -1 false, 0 unused), or None.

    Negative literals index from the end of the list.  Chronological
    backtracking; decision `budget` + 1 raises BudgetExceededError unless every
    clause already holds a true literal, when the values so far are the model.
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
            if all(any(value[lit] == 1 for lit in clause) for clause in clauses):
                return value
            raise BudgetExceededError(decisions, budget, "SAT decisions")
        levels.append((len(trail), next_var, False))
        value[next_var], value[-next_var] = 1, -1
        trail.append(next_var)


def prop_satisfiable(phi: Formula | Sequence[Formula],
                     budget: int = DEFAULT_BUDGET) -> Optional[dict[Atom, int]]:
    """Classical satisfiability of closed quantifier-free formulas.

    phi is one formula or a list of conjuncts, grounded as one matrix.
    Returns a satisfying valuation of the atoms the clauses mention (any
    other atom may take 0), or None.  Raises FragmentError on a variable or
    a quantifier, and BudgetExceededError past `budget` DPLL decisions while a clause is unmet.
    """
    conjuncts = phi if isinstance(phi, (list, tuple)) else [phi]
    instances = _Instances(reduce(Meet, map(classical_nnf, conjuncts), TOP), ())
    value = instances.solve(instances.over([], budget), budget)
    if value is None:
        return None
    terms = instances.terms
    return {Atom(key[0], tuple(terms[i] for i in key[1:])): int(value[var] == 1)
            for var, key in enumerate(instances.atom_keys) if key is not None and value[var]}


def is_classical_contradiction_prop(phi: Formula, budget: int = DEFAULT_BUDGET) -> bool:
    """Unsatisfiability over B2, closed atoms read as letters; raises as `prop_satisfiable` does."""
    return prop_satisfiable(phi, budget) is None


# -- Bernays-Schonfinkel decider -----------------------------------------

def _prenex_sentence(phi: Formula) -> tuple[list[str], list[str], Formula, Vocabulary]:
    """The parts of `prenex(classical_nnf(phi))` and the matrix's vocabulary.  An open
    phi is refused first: prenex would lift a binder over a free variable of its name."""
    free = free_vars(phi)
    if free:
        raise FragmentError(f"classical satisfiability needs a sentence: {min(free)} is free")
    exists, forall_vars, matrix = prenex(classical_nnf(phi))
    return exists, forall_vars, matrix, vocabulary_of(matrix)


def bsr_decide(phi: Formula, budget: int = DEFAULT_BUDGET) -> Verdict:
    """Exact classical satisfiability for relational Bernays-Schonfinkel sentences.

    Without equality, the prenex form `prenex(classical_nnf(phi))`, exists x-bar
    forall y-bar M with M exists-free, is satisfiable iff its Skolem form is, and by
    Herbrand at depth 0 iff M's instances with y-bar ranging over the Skolem form's
    constants are.  `_Instances` grounds M as it stands, each x its own closed term
    that no constant of phi equals.  The universe is the x that occur, in prefix
    order, then level 0 of `herbrand_levels` if M names a constant or no x occurs;
    its size is the Bernays-Schonfinkel bound.  The |U|^#forall instances are
    checked against the budget, grounded, and decided by one SAT call.
    """
    exists, forall_vars, matrix, vocab = _prenex_sentence(phi)
    if vocab.functions:
        raise FragmentError("Bernays-Schonfinkel decider needs a relational sentence")
    try:  # past the prefix, _Instances refuses only an exists under a forall
        instances = _Instances(matrix, forall_vars, exists)
    except FragmentError:
        raise FragmentError("not a Bernays-Schonfinkel sentence: an exists under a forall") from None
    universe = [instances.term_ids[t] for t in map(Var, exists) if t in instances.term_ids]
    if vocab.constants or not universe:
        universe += [instances.term(t) for t in next(herbrand_levels(vocab))]
    sat = instances.solve(instances.over(universe, budget), budget) is not None
    bound = len(universe)
    return Verdict("decided", decided=sat,
                   reason=f"{'' if sat else 'un'}satisfiable at the Bernays-Schonfinkel bound {bound}",
                   bounds=f"single domain size {bound}")


# -- dual-Herbrand instantiation search ----------------------------------

# Past depth 0, a depth is searched only while its instance count is at most this.
HERBRAND_INSTANCE_CAP = 4096


def dual_herbrand_search(phi: Formula, max_depth: int,
                         budget: int = DEFAULT_BUDGET) -> Verdict:
    """Search for a contradictory conjunction of Herbrand instances of a universal sentence.

    phi must be a sentence.  The instances, and the witness's conjunction, are
    built on the matrix of `prenex(classical_nnf(phi))`, which must leave no
    exists outside every forall.
    Works depth by depth, extending the term universe by one level at a time.
    Each matrix instance is grounded once, as its own clause group; at each
    depth one SAT call tests all of them together and, when they are
    contradictory, the groups are greedily minimized (left to right) into the
    verdict's `herbrand` witness.  Depth 0 is always searched, a deeper one
    up to MAX_NESTING while its instance count is within HERBRAND_INSTANCE_CAP.
    A relational phi is Bernays-Schonfinkel: depth 0 decides it, and its B2
    model is the SAT call's, budget permitting.  Otherwise `exhausted` means no witness in bounds.
    """
    if max_depth < 0:
        raise ValueError(f"max depth must be at least 0, got {max_depth}")
    exists, prefix, matrix, vocab = _prenex_sentence(phi)
    if exists:
        raise FragmentError("not a universal sentence: an exists outside every forall")
    instances = _Instances(matrix, prefix)
    levels = herbrand_levels(vocab)
    universe: list[int] = []
    searched, capped = 0, ""
    depths = range(min(max_depth, MAX_NESTING) + 1)
    for depth, size in zip(depths, herbrand_universe_sizes(vocab)):
        if depth and size ** len(prefix) > HERBRAND_INSTANCE_CAP:
            capped = (f"depth {depth} has {size ** len(prefix)} instances, "
                      f"above HERBRAND_INSTANCE_CAP {HERBRAND_INSTANCE_CAP}")
            break
        universe += [instances.term(t) for t in next(levels)]
        keys = instances.over(universe, budget)
        model = instances.solve(keys, budget)
        witness = None
        if model is None:
            keep = _greedy_minimal(len(keys), lambda idx: instances.solve(
                [keys[i] for i in idx], budget) is None)
            terms = tuple(tuple(instances.terms[t] for t in keys[i]) for i in keep)
            witness = HerbrandWitness(depth, len(keep), terms, reduce(Meet, [
                substitute(matrix, dict(zip(prefix, args))) for args in terms]))
        if not vocab.functions:
            return Verdict("decided", decided=witness is not None, herbrand=witness,
                           structure=None if witness else instances.structure(
                               universe, model, vocabulary_of(phi), budget),
                           reason=f"Bernays-Schonfinkel: {'un' if witness else ''}satisfiable "
                                  f"at the Bernays-Schonfinkel bound {len(universe)}",
                           bounds=f"single domain size {len(universe)}")
        if witness is not None:
            return Verdict("decided", decided=True, herbrand=witness,
                           reason=f"Herbrand witness with {witness.m} instances at depth {depth}",
                           bounds=f"term depth 0..{max_depth}")
        searched = depth
        if not prefix:
            break
    return Verdict("exhausted", reason=capped, bounds=f"term depth 0..{searched}")


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


def purely_universal_contradiction(phi: Formula, max_depth: int,
                                   budget: int = DEFAULT_BUDGET) -> Verdict:
    """Decide (relational) or semi-decide contradictoriness of any universal sentence.  A
    call, not an alias, so perfbench/tracing.py times the search inside it as its own span."""
    return dual_herbrand_search(phi, max_depth, budget)


# BSR grounding no longer maps constants to domain elements, so nothing here
# calls _replace_constants; perfbench/tracing.py still wraps the name.
_replace_constants = None
