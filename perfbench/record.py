"""Record the query pools and their expected answers into expected.json.

    python3 perfbench/record.py [family ...]

Runs candidate queries of each family in order and keeps the first
`family.pool` that answer within a third of the query time limit, with their
verdict fields.  Each kept query's recorded time is its best over the first
run and ROUNDS rounds through all kept queries.  The `ground.hard`
instances are instead run once for three times the limit; they must not
finish, and their expected answer (unsatisfiable) comes from how they are
built.  Re-recording changes the benchmark, so it belongs to a change that
claims no speed-up.
"""

from __future__ import annotations

import json
import sys

import run
import queries as Q
import check

HARD = {"ground.hard": {"outcome": "decided", "decided": "False"}}
ROUNDS = 4


def record_family(fz, family: Q.Family, chains_of_size) -> list[dict]:
    """The family's pool: the first usable candidates, with their answers."""
    pool, seen = [], set()
    i = 0
    while len(pool) < family.pool:
        if i >= 10 * family.pool:
            raise RuntimeError(f"{family.name}: only {len(pool)} usable candidates in {i}")
        query = Q.candidate(family, i)
        i += 1
        if query.key in seen:
            continue
        seen.add(query.key)
        if family.name in HARD:
            dt, out = run.timed(fz, query.argv, 3 * Q.LIMIT_S)
            if out is not None:
                raise RuntimeError(f"{family.name}[{query.index}] finished in {dt:.2f} s")
            pool.append({"index": query.index, "key": query.key, "expect": HARD[family.name],
                         "seed_s": round(dt, 4), "timeout": True})
            continue
        dt, out = run.timed(fz, query.argv, Q.LIMIT_S / 3)
        if out is None or out[0] != 0:
            continue
        expect = check.verdict(query, out)
        wrong = check.problems(query, out, expect, chains_of_size)
        if wrong:
            raise RuntimeError(f"{family.name}[{query.index}] {query.argv}: {wrong}")
        pool.append({"index": query.index, "key": query.key, "expect": expect, "seed_s": dt})
    return pool


def retime(fz, pools: dict) -> None:
    """Keep each query's best time over ROUNDS more rounds through all pools.

    A round visits every query once, so the rounds span minutes and a slow
    spell of the host inflates at most some of a query's samples.
    """
    entries = [(Q.candidate(f, e["index"]), e)
               for families in Q.WORKLOADS.values() for f in families if f.name in pools
               for e in pools[f.name] if not e.get("timeout")]
    for _ in range(ROUNDS):
        for query, entry in entries:
            entry["seed_s"] = min(entry["seed_s"], run.timed(fz, query.argv, Q.LIMIT_S)[0])
    for entry in (e for _, e in entries):
        entry["seed_s"] = round(entry["seed_s"], 4)


def summary(name: str, pool: list[dict]) -> str:
    kinds = {}
    for e in pool:
        label = ",".join(f"{k}={v}" for k, v in sorted(e["expect"].items())
                         if k in ("outcome", "decided", "certified"))
        kinds[label] = kinds.get(label, 0) + 1
    return f"{name}: {len(pool)} queries, {sum(e['seed_s'] for e in pool):.2f} s, {kinds}"


def main(names) -> int:
    import signal
    sys.path.insert(0, run.SRC)
    signal.signal(signal.SIGALRM, run._on_alarm)
    fz = run.load_fuzzyfo()
    runner = run.Runner(fz, [], 0)
    try:
        with open(run.EXPECTED) as fh:
            answers = json.load(fh)
    except FileNotFoundError:
        answers = {}
    pools = {family.name: record_family(fz, family, runner._chains_of_size)
             for families in Q.WORKLOADS.values() for family in families
             if not names or family.name in names}
    retime(fz, pools)
    for name, pool in pools.items():
        print(summary(name, pool), file=sys.stderr)
    answers.update(pools)
    with open(run.EXPECTED, "w") as fh:
        json.dump(answers, fh, indent=1, sort_keys=True)
        fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
