"""Seeded query generators for the four workloads.

Each family generates candidate queries from `random.Random("<family>:<i>")`,
so candidate i never depends on the others.  `record.py` ran the candidates
at the commit that defined the benchmark and kept the ones that succeed well
inside the time limit; `expected.json` holds their answers and run times.
A run's seed then draws, from each family, one query per stratum of that
family's pool sorted by recorded time (see `select`), so every seed gets a
query set with the same spread of costs.
"""

from __future__ import annotations

import hashlib
import math
import random
import statistics
from dataclasses import dataclass
from typing import Callable, Optional

import logic as L

# Per-query wall-time limit.  Every pooled query took under a third of it at
# the recording commit; the `ground.hard` instances did not finish in three
# times it.
LIMIT_S = 4.0

SETS = ("taut0", "satpos", "sat1", "tautlt1")

# A seed's sample must match a typical sample's recorded total, median and
# tail within this share (see select); DRAWS bounds the seeded redraws.
BALANCE = 0.02
DRAWS = 1000
TYPICAL = 200
TAIL_LADDER = (99, 98, 95, 90, 85, 80, 75, 70, 60, 50)
WINDOW = 2

# Number of MTL-chains of each size, as `enum:k` enumerates them.
_ENUM_COUNTS = {2: 1, 3: 2, 4: 6, 5: 22}


@dataclass(frozen=True)
class Query:
    family: str
    index: int
    argv: tuple[str, ...]   # CLI argv, or ("herbrand", formula, depth)
    check: str               # answer checker name, see check.py
    formula: Optional[tuple] = None   # own AST, for witness re-evaluation
    chains: str = ""         # chain spec the witness must come from
    set: str = ""            # truth-degree set of a `decide` query

    @property
    def key(self) -> str:
        return hashlib.sha256("\0".join(self.argv).encode()).hexdigest()[:16]


@dataclass(frozen=True)
class Family:
    name: str
    per_pass: int
    pool: int                # pooled queries kept at recording time
    make: Callable[[random.Random, int], Query]
    why: str
    max_s: float = math.inf  # pooled queries recorded slower than this are not drawn


# -- shared pieces -----------------------------------------------------------

def _chain_sizes(spec: str) -> list[int]:
    kind, _, arg = spec.partition(":")
    k = int(arg)
    if kind == "enum":
        return [s for s in range(2, k + 1) for _ in range(_ENUM_COUNTS[s])]
    return [k]


def space(spec: str, phi, max_domain: int) -> int:
    """Structures a bounded search over spec and domains 1..max_domain visits."""
    preds, funcs, consts = L.signature(phi)
    total = 0
    for size in _chain_sizes(spec):
        for n in range(1, max_domain + 1):
            s = n ** len(consts)
            for ar in funcs.values():
                s *= n ** (n ** ar)
            for ar in preds.values():
                s *= size ** (n ** ar)
            total += s
    return total


def _matrix(rng, leaf, depth, ops):
    if depth == 0 or rng.random() < 0.3:
        return leaf()
    op = rng.choice(ops)
    if op == "not":
        return L.neg(_matrix(rng, leaf, depth - 1, ops))
    return (op, _matrix(rng, leaf, depth - 1, ops), _matrix(rng, leaf, depth - 1, ops))


def _atoms(rng, preds: dict, terms: list):
    names = sorted(preds)

    def leaf():
        p = rng.choice(names)
        return L.atom(p, *(rng.choice(terms) for _ in range(preds[p])))
    return leaf


def _literals(rng, preds, terms):
    atom = _atoms(rng, preds, terms)
    return lambda: atom() if rng.random() < 0.5 else L.neg(atom())


def _prefix(rng, names, body, quantifiers=(L.forall, L.exists)):
    for v in reversed(names):
        body = rng.choice(quantifiers)(v, body)
    return body


def _decide(family, i, phi, set_, spec, max_domain) -> Query:
    argv = ("decide", "--set", set_, "--chain", spec, "--max-domain", str(max_domain),
            "--formula", L.show(phi))
    return Query(family, i, argv, "decide", phi, spec, set_)


def _largest_domain(spec, phi, start, cap) -> int:
    d = start
    while d > 1 and space(spec, phi, d) > cap:
        d -= 1
    return d


# -- search: bounded structure search, no SAT --------------------------------

SEARCH_CHAINS = ("luk:3", "luk:4", "luk:5", "luk:6", "godel:3", "godel:4",
                 "godel:5", "godel:6", "enum:3", "enum:4")
SEARCH_SPACE_CAP = 6000
_SEARCH_VOCABS = ({"P": 1}, {"P": 1, "Q": 1}, {"R": 2}, {"P": 1, "R": 2})


def search_random(rng, i):
    preds = rng.choice(_SEARCH_VOCABS)
    names = ["x", "y"][:rng.choice((1, 2, 2))]
    terms = [L.var(v) for v in names] + ([L.const("c")] if rng.random() < 0.25 else [])
    matrix = _matrix(rng, _atoms(rng, preds, terms), rng.choice((2, 3)),
                     ("sc", "meet", "join", "imp", "iff", "not"))
    phi = _prefix(rng, names, matrix)
    spec = rng.choice(SEARCH_CHAINS)
    d = _largest_domain(spec, phi, rng.choice((2, 3, 4)), SEARCH_SPACE_CAP)
    return _decide("search.random", i, phi, rng.choice(SETS), spec, d)


def search_exhaust(rng, i):
    # The star of a classical contradiction F /\ ~F is 0 on every MTL-chain,
    # so TAUT0 is never refuted and SAT+ never witnessed: the search exhausts.
    preds = rng.choice(_SEARCH_VOCABS)
    names = ["x", "y"][:rng.choice((1, 2))]
    terms = [L.var(v) for v in names]
    body = _prefix(rng, names, _matrix(rng, _literals(rng, preds, terms), 2, ("meet", "join")))
    phi = L.star(("meet", body, L.dual(body)))
    spec = rng.choice(SEARCH_CHAINS)
    d = _largest_domain(spec, phi, 4, SEARCH_SPACE_CAP)
    return _decide("search.exhaust", i, phi, rng.choice(("taut0", "satpos")), spec, d)


def separating(p):
    """Phi over a unary P, or the R-sentence on the diagonal of a binary R."""
    x, y = L.var("x"), L.var("y")
    if p == "P":
        px, py = L.atom("P", x), L.atom("P", y)
        pxx = px
    else:
        px, py = L.atom("R", x, y), L.atom("R", y, x)
        pxx = L.atom("R", x, x)
    first = L.exists("x", ("iff", pxx, L.neg(pxx)))
    second = L.forall("x", L.exists("y", ("iff", px, ("sc", py, py))))
    return ("sc", first, second)


_NAMED = [(p, s, c) for p in ("P", "R") for s in SETS
          for c in ("luk:3", "luk:4", "luk:5", "luk:6", "godel:3", "godel:4", "godel:5", "godel:6")]
random.Random("search.named").shuffle(_NAMED)


def search_named(rng, i):
    p, set_, spec = _NAMED[i % len(_NAMED)]
    phi = separating(p)
    d = _largest_domain(spec, phi, 4, SEARCH_SPACE_CAP)
    return _decide("search.named", i, phi, set_, spec, d)


# -- ground: BSR grounding + SAT, dual-Herbrand search ------------------------

def ground_bsr(rng, i):
    n_exists = rng.choice((2, 3, 3, 4))
    n_forall = rng.choice((1, 2, 3))
    consts = ["c"] if n_exists < 4 and rng.random() < 0.3 else []
    preds = rng.choice(({"P": 1, "R": 2}, {"R": 2}, {"Q": 2, "R": 2}, {"P": 1, "Q": 2}))
    evars = [f"a{j}" for j in range(n_exists)]
    avars = [f"x{j}" for j in range(n_forall)]
    terms = [L.const(c) for c in consts] + [L.var(v) for v in evars + avars]
    matrix = _matrix(rng, _atoms(rng, preds, terms), 3, ("meet", "join", "imp", "not"))
    if rng.random() < 0.5:
        # R(x0, x') /\ ~R(x', x0) fails at x' = x0: unsatisfiable, so the
        # decider has to exhaust every element assignment.
        u, w = L.var(avars[0]), L.var(avars[-1])
        matrix = ("meet", matrix, ("meet", L.atom("R", u, w), L.neg(L.atom("R", w, u))))
    phi = matrix
    for v in reversed(avars):
        phi = L.forall(v, phi)
    for v in reversed(evars):
        phi = L.exists(v, phi)
    return Query("ground.bsr", i, ("bsr", "--formula", L.show(phi)), "bsr")


def ground_herbrand(rng, i):
    names = ["x", "y", "z"][:rng.choice((2, 2, 3))]
    vs = [L.var(v) for v in names]
    c = L.const("c")
    terms = vs + [L.app("f", v) for v in vs] + [c, L.app("f", c)]
    preds = rng.choice(({"P": 1}, {"P": 1, "Q": 1}, {"P": 1, "R": 2}))
    matrix = _matrix(rng, _literals(rng, preds, terms), 3, ("meet", "join"))
    fx = L.app("f", vs[0])
    if rng.random() < 0.5:
        # P(f(x)) /\ ~P(y) clashes at y = f(x): a Herbrand witness exists.
        matrix = ("meet", matrix, ("meet", L.atom("P", fx), L.neg(L.atom("P", vs[-1]))))
    else:
        matrix = ("join", matrix, L.atom("P", fx))
    phi = matrix
    for v in reversed(names):
        phi = L.forall(v, phi)
    return Query("ground.herbrand", i, ("herbrand", L.show(phi), "3"), "herbrand")


def ground_hard(rng, i):
    # ROADMAP's 5-exists/3-forall case and a renamed twin.  The second
    # disjunct is contradictory and the first fails at x = y = z, so both are
    # unsatisfiable; BSR has to try 5^5 element assignments.
    p, order = (("R", "xyz"), ("Q", "zyx"))[i % 2]
    x, y, z = (L.var(v) for v in order)
    a = L.var("a")
    matrix = ("join", ("meet", L.atom(p, x, y), L.neg(L.atom(p, y, z))),
              ("meet", L.atom(p, a, x), L.neg(L.atom(p, a, x))))
    phi = matrix
    for v in reversed("xyz"):
        phi = L.forall(v, phi)
    for v in reversed("abcde"):
        phi = L.exists(v, phi)
    return Query("ground.hard", i, ("bsr", "--formula", L.show(phi)), "bsr")


# -- reduce: many short reduction + verification calls ------------------------

def _classical_sentence(rng, vocabs):
    pattern = rng.choice((("ex",), ("all",), ("all", "ex"), ("ex", "all"), ("all", "all")))
    names = ["x", "y"][:len(pattern)]
    terms = [L.var(v) for v in names] + ([L.const("c")] if rng.random() < 0.3 else [])
    preds = rng.choice(vocabs)
    matrix = _matrix(rng, _atoms(rng, preds, terms), 2, ("meet", "join", "imp", "not"))
    if rng.random() < 0.5:
        lit = _atoms(rng, preds, terms)()
        matrix = ("meet", matrix, ("meet", lit, L.neg(lit)))
    body = matrix
    for q, v in reversed(list(zip(pattern, names))):
        body = (q, v, body)
    return body


def reduce_enum4(rng, i):
    # Unary predicates only: a binary one makes the TAUT0 cross-check over
    # the 9 chains a search of its own, and this family is about short calls.
    phi = _classical_sentence(rng, ({"P": 1}, {"P": 1, "Q": 1}))
    argv = ("reduce", "--formula", L.show(phi), "--verify", "--chain", "enum:4")
    return Query("reduce.enum4", i, argv, "reduce")


def reduce_luk3(rng, i):
    phi = _classical_sentence(rng, ({"P": 1}, {"P": 1, "Q": 1}, {"R": 2}, {"P": 1, "R": 2}))
    argv = ("verify-reduction", "--formula", L.show(phi), "--chain", "luk:3")
    return Query("reduce.luk3", i, argv, "reduce")


# -- exact: Fraction arithmetic and chain tables, no SAT ----------------------

_EXACT_FIXED = (("phi-report", "--max-k", "12"), ("check-lemma1", "--enum", "7"),
                ("enum-chains", "--size", "7"))


def exact_fixed(rng, i):
    return Query("exact.fixed", i, _EXACT_FIXED[i % len(_EXACT_FIXED)], "table")


def exact_tables(rng, i):
    kind = rng.choice(("phi-report", "check-lemma1", "enum-chains"))
    if kind == "phi-report":
        argv = (kind, "--max-k", str(rng.randint(4, 10)))
    elif kind == "check-lemma1":
        argv = (kind, "--enum", str(rng.randint(4, 6)), "--luk", str(rng.randint(8, 40)))
    else:
        argv = (kind, "--size", str(rng.randint(4, 6))) + (("--tables",) if rng.random() < 0.5 else ())
    return Query("exact.tables", i, argv, "table")


def exact_phi_witness(rng, i):
    return Query("exact.phi_witness", i, ("phi-witness", "--n", str(4 + i % 25)), "phi_witness")


def _luk_decide(family, rng, i, k):
    terms = [L.var("x")] + ([L.const("c")] if rng.random() < 0.5 else [])
    phi = L.exists("x", _matrix(rng, _atoms(rng, {"P": 1}, terms), 3,
                                ("sc", "meet", "join", "imp", "iff", "not")))
    return _decide(family, i, phi, rng.choice(SETS), f"luk:{k}", 1)


def exact_luk1200(rng, i):
    return _luk_decide("exact.luk1200", rng, i, 1200)



# -- workloads ---------------------------------------------------------------

WORKLOADS: dict[str, tuple[Family, ...]] = {
    "search": (
        Family("search.random", 32, 96, search_random,
               "random sentences on luk/godel/enum chains: early witnesses and exhausted bounds"),
        Family("search.exhaust", 12, 36, search_exhaust,
               "stars of classical contradictions: every structure in bounds is evaluated"),
        Family("search.named", 8, 24, search_named,
               "Phi and the R-sentence, satisfiable to degree 1 only on some chains"),
    ),
    "ground": (
        Family("ground.bsr", 28, 84, ground_bsr,
               "exists*-forall* sentences up to 4 exists / 3 forall, half with a planted clash; "
               "those recorded over 0.5 s are left out, so each query is sampled often",
               max_s=0.5),
        Family("ground.herbrand", 16, 48, ground_herbrand,
               "universal sentences with a unary function: dual-Herbrand instance search"),
        Family("ground.hard", 1, 2, ground_hard,
               "unsatisfiable 5 exists / 3 forall BSR instances that exceed the limit today"),
    ),
    "reduce": (
        Family("reduce.enum4", 40, 120, reduce_enum4,
               "reduce --verify over all 9 chains of size <= 4: per-call chain enumeration; "
               "calls recorded over 0.25 s are left out, since this family is about short calls",
               max_s=0.25),
        Family("reduce.luk3", 40, 120, reduce_luk3,
               "verify-reduction on luk:3: transforms, certificates and CLI rendering"),
    ),
    "exact": (
        Family("exact.fixed", 3, 3, exact_fixed,
               "phi-report --max-k 12, check-lemma1 --enum 7, enum-chains --size 7 in every pass"),
        Family("exact.tables", 20, 60, exact_tables,
               "smaller value-set scans, lemma-1 checks, chain enumerations and tables"),
        Family("exact.phi_witness", 12, 25, exact_phi_witness,
               "phi-witness for N = 4..22: Fraction arithmetic on the standard chain",
               max_s=0.1),
        Family("exact.luk1200", 1, 3, exact_luk1200,
               "domain-1 decide on luk:1200 in every pass: sets the peak memory"),
    ),
}


def candidate(family: Family, i: int) -> Query:
    return family.make(random.Random(f"{family.name}:{i}"), i)


def tail_percentile(n: int) -> int:
    """The highest ladder percentile with at least 10 of n values beyond it."""
    return next((p for p in TAIL_LADDER if n * (100 - p) / 100 >= 10), TAIL_LADDER[-1])


def quantile(values: list[float], pct: float) -> float:
    """Mean of the values ranked within WINDOW of the nearest-rank pct-th.

    Query costs are uneven, so neighbouring ranks can be far apart; averaging
    a few ranks keeps two queries trading places from moving the result.
    """
    ordered = sorted(values)
    rank = max(0, math.ceil(pct / 100 * len(ordered)) - 1)
    window = ordered[max(0, rank - WINDOW):rank + WINDOW + 1]
    return sum(window) / len(window)


def _stats(costs: list[float]) -> tuple[float, float, float]:
    """Total, median and tail of recorded costs, as run.py reads latencies."""
    return sum(costs), quantile(costs, 50), quantile(costs, tail_percentile(len(costs)))


def select(workload: str, answers: dict, seed: int) -> list[tuple[Family, dict]]:
    """One pooled entry per stratum of each family's pool sorted by recorded time.

    Draws repeat until the sample's recorded total, median and tail are each
    within BALANCE of a typical draw's (the closest draw is kept otherwise),
    so that seeds differ in which queries they send, not in how much work.
    """
    strata = []
    for family in WORKLOADS[workload]:
        ranked = sorted((e for e in answers[family.name] if e["seed_s"] <= family.max_s),
                        key=lambda e: (e["seed_s"], e["key"]))
        n = family.per_pass
        bounds = [round(j * len(ranked) / n) for j in range(n + 1)]
        strata += [(family, ranked[lo:hi]) for lo, hi in zip(bounds, bounds[1:])]

    def draw(rng):
        picked = [(family, rng.choice(s)) for family, s in strata]
        # queries expected to reach the limit cost the limit alike
        return picked, _stats([e["seed_s"] for _, e in picked if not e.get("timeout")])

    typical = [draw(random.Random(f"{workload}/typical"))[1] for _ in range(TYPICAL)]
    target = [statistics.median(s[k] for s in typical) for k in range(3)]
    rng = random.Random(f"{workload}/{seed}")
    best, best_gap = None, None
    for _ in range(DRAWS):
        picked, stats = draw(rng)
        gap = max(abs(a - b) / b for a, b in zip(stats, target))
        if best is None or gap < best_gap:
            best, best_gap = picked, gap
        if gap <= BALANCE:
            break
    return best
