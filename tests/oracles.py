"""Independent oracles used by the acceptance suite.

Kept deliberately separate from the package: the ground SAT check here goes
through a Tseitin encoding and a clause-based DPLL, not the package's
formula-simplification search.
"""

from __future__ import annotations

import random

from fuzzyfo import syntax as S


# -- deterministic relational exists*-forall* sentence generator ----------

def generate_bsr_sentences(count: int, seed: int) -> list[S.Formula]:
    rng = random.Random(seed)
    out = []
    for _ in range(count):
        n_preds = rng.randint(1, 2)
        preds = {"PQ"[i]: rng.randint(1, 2) for i in range(n_preds)}
        consts = ["cd"[i] for i in range(rng.randint(0, 2))]
        evars = [f"u{i}" for i in range(rng.randint(0, 2))]
        avars = [f"w{i}" for i in range(rng.randint(0, 2))]
        terms = [S.Const(c) for c in consts] + [S.Var(v) for v in evars + avars]
        if not terms:
            consts = ["c"]
            terms = [S.Const("c")]

        def atom():
            p = rng.choice(sorted(preds))
            return S.Atom(p, tuple(rng.choice(terms) for _ in range(preds[p])))

        def tree(d):
            if d == 0 or rng.random() < 0.35:
                return atom()
            kind = rng.choice(["neg", "meet", "join", "impl"])
            if kind == "neg":
                return S.Neg(tree(d - 1))
            cls = {"meet": S.Meet, "join": S.Join, "impl": S.Impl}[kind]
            return cls(tree(d - 1), tree(d - 1))

        matrix = tree(3)
        for v in reversed(avars):
            matrix = S.Forall(v, matrix)
        for v in reversed(evars):
            matrix = S.Exists(v, matrix)
        out.append(matrix)
    return out


# -- Tseitin + SAT ground satisfiability ---------------------------------

class _Cnf:
    def __init__(self):
        self.n_vars = 0
        self.clauses: list[tuple[int, ...]] = []
        self.atom_ids: dict = {}

    def new_var(self) -> int:
        self.n_vars += 1
        return self.n_vars

    def atom_var(self, key) -> int:
        if key not in self.atom_ids:
            self.atom_ids[key] = self.new_var()
        return self.atom_ids[key]


def _tseitin(phi: S.Formula, env: dict, cnf: _Cnf) -> int:
    """Return a literal equivalent to phi (classically) under the environment,
    which maps each `Var` and `Const` term to its element."""
    if isinstance(phi, S.Atom):
        key = (phi.pred,) + tuple(env[t] for t in phi.args)
        return cnf.atom_var(key)
    if isinstance(phi, S.TruthConst):
        v = cnf.new_var()
        cnf.clauses.append((v,) if phi.top else (-v,))
        return v
    if isinstance(phi, S.Neg):
        return -_tseitin(phi.body, env, cnf)
    a = _tseitin(phi.left, env, cnf)
    b = _tseitin(phi.right, env, cnf)
    v = cnf.new_var()
    if isinstance(phi, (S.Meet, S.StrongConj)):
        cnf.clauses += [(-v, a), (-v, b), (v, -a, -b)]
    elif isinstance(phi, S.Join):
        cnf.clauses += [(v, -a), (v, -b), (-v, a, b)]
    elif isinstance(phi, S.Impl):
        cnf.clauses += [(v, a), (v, -b), (-v, -a, b)]
    elif isinstance(phi, S.Biimpl):
        cnf.clauses += [(-v, -a, b), (-v, a, -b), (v, a, b), (v, -a, -b)]
    else:
        raise TypeError(f"unexpected node {phi!r}")
    return v


def _sat(clauses: list[tuple[int, ...]], n_vars: int) -> bool:
    """Clause-level satisfiability via sympy's watched-literal DPLL.

    The clauses are already in CNF, so sympy never runs its (exponential)
    to_cnf conversion; dpll2 just solves.
    """
    from sympy import symbols
    from sympy.logic.boolalg import And, Not, Or
    from sympy.logic.inference import satisfiable

    if not clauses:
        return True
    syms = symbols(f"x1:{n_vars + 1}")
    expr = And(*[
        Or(*[(syms[abs(lit) - 1] if lit > 0 else Not(syms[abs(lit) - 1]))
             for lit in clause])
        for clause in clauses
    ])
    return satisfiable(expr, algorithm="dpll2") is not False


def _canonical_constant_assignments(n_consts: int, domain_size: int):
    """Restricted-growth assignments: each constant lands on an already-used
    element or the smallest fresh one.  Sound for pure relational sentences,
    where any model can be renamed by a domain permutation."""
    def go(prefix: tuple[int, ...]):
        if len(prefix) == n_consts:
            yield prefix
            return
        ceiling = min(domain_size - 1, (max(prefix) + 1) if prefix else 0)
        for value in range(ceiling + 1):
            yield from go(prefix + (value,))

    yield from go(())


def ground_satisfiable(phi: S.Formula, domain_size: int) -> bool:
    """Brute-force classical satisfiability of a relational sentence at one domain size.

    Constants range over the domain (outer loop); quantifiers are expanded by
    grounding; the quantifier-free residue goes through Tseitin + DPLL.
    """
    vocab = S.vocabulary_of(phi)
    consts = sorted(vocab.constants)

    def expand(phi: S.Formula, env: dict[str, int], cnf: _Cnf) -> int:
        if isinstance(phi, (S.Forall, S.Exists)):
            lits = []
            for d in range(domain_size):
                inner = dict(env)
                inner[S.Var(phi.var)] = d
                lits.append(expand(phi.body, inner, cnf))
            v = cnf.new_var()
            if isinstance(phi, S.Forall):
                for lit in lits:
                    cnf.clauses.append((-v, lit))
                cnf.clauses.append(tuple([v] + [-lit for lit in lits]))
            else:
                for lit in lits:
                    cnf.clauses.append((v, -lit))
                cnf.clauses.append(tuple([-v] + lits))
            return v
        if isinstance(phi, (S.Atom, S.TruthConst, S.Neg)) and (
                not isinstance(phi, S.Neg) or S.is_quantifier_free(phi)):
            return _tseitin(phi, env, cnf)
        if isinstance(phi, (S.Meet, S.StrongConj, S.Join, S.Impl, S.Biimpl)):
            if S.is_quantifier_free(phi):
                return _tseitin(phi, env, cnf)
            a = expand(phi.left, env, cnf)
            b = expand(phi.right, env, cnf)
            v = cnf.new_var()
            if isinstance(phi, (S.Meet, S.StrongConj)):
                cnf.clauses += [(-v, a), (-v, b), (v, -a, -b)]
            elif isinstance(phi, S.Join):
                cnf.clauses += [(v, -a), (v, -b), (-v, a, b)]
            elif isinstance(phi, S.Impl):
                cnf.clauses += [(v, a), (v, -b), (-v, -a, b)]
            else:
                cnf.clauses += [(-v, -a, b), (-v, a, -b), (v, a, b), (v, -a, -b)]
            return v
        if isinstance(phi, S.Neg):
            return -expand(phi.body, env, cnf)
        raise TypeError(f"unexpected node {phi!r}")

    for assign in _canonical_constant_assignments(len(consts), domain_size):
        cnf = _Cnf()
        env = dict(zip(map(S.Const, consts), assign))
        root = expand(phi, env, cnf)
        if _sat(cnf.clauses + [(root,)], cnf.n_vars):
            return True
    return False
