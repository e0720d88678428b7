"""fuzzyfo benchmark: run one workload for a while and print its metrics.

    python3 perfbench/run.py --workload search --seed 1 --seconds 30 --trace 0

One client sends the workload's queries one after another (a closed loop, no
threads) through `fuzzyfo.cli.run(argv)`; the dual-Herbrand queries, which
have no subcommand, call `fuzzyfo.decision.purely_universal_contradiction`.
A pass sends every query of the seeded query set once, in a fresh seeded
order, timing the host probe between groups of queries.  --trace 0 splits
`--seconds` over PARTS fresh processes run one after another; each sets up,
then runs passes until the next one would end after its share of the time
(at least one).  Queries recorded as reaching the per-query limit run once,
in the first process.  The limit is enforced in the measuring process by
SIGALRM.  The parent takes each query's latency from its probe-scaled
samples and prints the end-to-end metrics.

--trace 1 runs in one process, alternates untraced and traced passes, prints
the per-layer metrics and writes the spans to perfbench/out/.  The last
stdout line is the JSON result.
"""

from __future__ import annotations

import argparse
import hashlib
import importlib
import json
import os
import random
import resource
import signal
import statistics
import subprocess
import sys
from fractions import Fraction
from time import perf_counter
from types import SimpleNamespace

HERE = os.path.dirname(os.path.abspath(__file__))
SRC = os.path.join(os.path.dirname(HERE), "src")
sys.path.insert(0, HERE)

import check  # noqa: E402
import logic  # noqa: E402
import queries as Q  # noqa: E402
from tracing import Tracer, layer_metrics, median_metrics  # noqa: E402

PARTS = 3              # processes a --trace 0 run is split over
PART_TIMEOUT_S = 55
MIN_TRACE_PASSES = 4
SETUP_REPS = 3         # per process
EXPECTED = os.path.join(HERE, "expected.json")

# Tiny queries that touch each code path a workload uses, run during set-up.
WARMUP = {
    "search": (("decide", "--set", "satpos", "--chain", "luk:2", "--max-domain", "1",
                "--formula", "exists x. P(x)"),
               ("decide", "--set", "taut0", "--chain", "enum:3", "--max-domain", "1",
                "--formula", "forall x. (P(x) & ~P(x))")),
    "ground": (("bsr", "--formula", "exists x. forall y. (P(x) \\/ ~P(y))"),
               ("herbrand", "forall x. (P(x) /\\ ~P(f(x)))", "1")),
    "reduce": (("reduce", "--formula", "exists x. (P(x) /\\ ~P(x))", "--verify",
                "--chain", "enum:4"),
               ("verify-reduction", "--formula", "forall x. P(x)", "--chain", "luk:3")),
    "exact": (("phi-witness", "--n", "2"), ("phi-report", "--max-k", "3"),
              ("check-lemma1", "--enum", "3", "--luk", "3"), ("enum-chains", "--size", "3"),
              ("decide", "--set", "satpos", "--chain", "luk:3", "--max-domain", "1",
               "--formula", "exists x. P(x)")),
}


class QueryTimeout(BaseException):
    """Raised by SIGALRM when a query reaches the limit; not an Exception, so
    no handler in the library can swallow it."""


def _on_alarm(signum, frame):
    raise QueryTimeout()


def load_fuzzyfo() -> SimpleNamespace:
    """A fresh import of the package from src/, discarding any earlier one."""
    for name in [m for m in sys.modules if m == "fuzzyfo" or m.startswith("fuzzyfo.")]:
        del sys.modules[name]
    mods = {m: importlib.import_module(f"fuzzyfo.{m}")
            for m in ("cli", "chains", "decision", "phi", "reduction", "semantics", "syntax")}
    return SimpleNamespace(**mods)


def build_queries(workload: str, seed: int) -> list[tuple[Q.Query, dict]]:
    with open(EXPECTED) as fh:
        answers = json.load(fh)
    items = []
    for family, entry in Q.select(workload, answers, seed):
        query = Q.candidate(family, entry["index"])
        if query.key != entry["key"]:
            raise RuntimeError(f"{family.name}[{entry['index']}] no longer matches "
                               "expected.json; re-record it")
        items.append((query, entry))
    return items


def execute(fz, argv) -> tuple[object, str]:
    if argv[0] == "herbrand":
        verdict = fz.decision.purely_universal_contradiction(
            fz.syntax.parse(argv[1]), int(argv[2]))
        text = f"outcome: {verdict.kind}\n"
        if verdict.decided is not None:
            text += f"decided: {verdict.decided}\n"
        return 0, text
    return fz.cli.run(list(argv))


def timed(fz, argv, limit: float):
    """(seconds, output); output is None when the query hit the limit."""
    signal.setitimer(signal.ITIMER_REAL, limit)
    t0 = perf_counter()
    try:
        out = execute(fz, argv)
    except QueryTimeout:
        out = None
    except Exception as exc:  # a library defect: report it as this query's answer
        out = ("exception", f"{type(exc).__name__}: {exc}")
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
    return perf_counter() - t0, out


def set_up(workload: str, seed: int):
    t0 = perf_counter()
    fz = load_fuzzyfo()
    items = build_queries(workload, seed)
    for argv in WARMUP[workload]:
        code, text = execute(fz, argv)
        if code != 0:
            raise RuntimeError(f"warm-up {' '.join(argv)} failed: {text.strip()}")
    return perf_counter() - t0, fz, items


# The host probe: a Łukasiewicz t-norm table over Fractions, in the
# benchmark's own code.  On a shared host the speed of the machine drifts by
# up to 2x, within seconds and over minutes.  A query's time follows the
# probes run just before and after it far more closely than it follows its
# own repeats, so every sample is scaled by PROBE_REF_S over the mean of the
# two probes around it, to read as on a host where the probe takes
# PROBE_REF_S.  Queries run in groups of at most GROUP_S between probes.
PROBE_REF_S = 0.010
PROBE_K = 40
GROUP_S = 0.25
_ZERO, _ONE = Fraction(0), Fraction(1)


def probe() -> float:
    """One timing of the probe table, (PROBE_K + 1)^2 entries."""
    t0 = perf_counter()
    values = [Fraction(i, PROBE_K) for i in range(PROBE_K + 1)]
    {(a, b): max(_ZERO, a + b - _ONE) for a in values for b in values}
    return perf_counter() - t0


class Runner:
    """Sends the queries, keeps every latency sample and judges every answer.

    Queries recorded as reaching the limit run once per run, before the
    passes, since each costs the whole limit; the others run in every pass.
    `samples` holds each query's times as measured, `scaled` the same times
    scaled by the probes around them (a time at the limit stays the limit).
    """

    def __init__(self, fz, items, order_key: str):
        self.fz = fz
        self.items = items
        self.order_key = order_key
        self.capped = [i for i, (_, entry) in enumerate(items) if entry.get("timeout")]
        self.regular = [i for i, (_, entry) in enumerate(items) if not entry.get("timeout")]
        self.passes: list[tuple[float, bool]] = []     # (wall seconds, traced)
        self.samples: list[list[float]] = [[] for _ in items]
        self.scaled: list[list[float]] = [[] for _ in items]
        self.probes: list[float] = []
        self._pending: list[tuple[int, float]] = []
        self._probe_at = -GROUP_S
        self.unsolved: set[int] = set()
        self.attempted = self.failed = self.wrong = 0
        self.failures: list[str] = []
        self.verdicts: dict[str, dict] = {}
        self._checked: dict = {}
        self._chains: dict[int, list] = {}

    def run_capped(self) -> None:
        for i in self.capped:
            dt, out = timed(self.fz, self.items[i][0].argv, Q.LIMIT_S)
            self.samples[i].append(Q.LIMIT_S if out is None else dt)
            self._judge(i, out)

    def probe(self) -> None:
        """Time the probe and scale the samples taken since the last one."""
        p = probe()
        if self._pending:
            factor = 2 * PROBE_REF_S / (self.probes[-1] + p)
            for i, dt in self._pending:
                self.scaled[i].append(dt * factor)
            self._pending = []
        self.probes.append(p)
        self._probe_at = perf_counter()

    def run_pass(self, tracer=None) -> float:
        order = list(self.regular)
        random.Random(f"{self.order_key}/pass{len(self.passes)}").shuffle(order)
        outputs = {}
        t_start = perf_counter()
        for i in order:
            if perf_counter() - self._probe_at > GROUP_S:
                self.probe()
            mark = tracer.mark() if tracer else None
            dt, out = timed(self.fz, self.items[i][0].argv, Q.LIMIT_S)
            if tracer and (out is None or out[0] != 0):
                tracer.rollback(mark)
            if out is None:
                self.samples[i].append(Q.LIMIT_S)
                self.scaled[i].append(Q.LIMIT_S)
            else:
                self.samples[i].append(dt)
                self._pending.append((i, dt))
            outputs[i] = out
        self.probe()
        wall = perf_counter() - t_start
        self.passes.append((wall, tracer is not None))
        for i in self.regular:
            self._judge(i, outputs[i])
        return wall

    def _judge(self, i, out) -> None:
        query, entry = self.items[i]
        self.attempted += 1
        if out is None:
            self.unsolved.add(i)
            self.verdicts.setdefault(query.key, {"timeout": "1"})
            if not entry.get("timeout"):
                self.failed += 1
                self.failures.append(f"{query.family}[{query.index}]: hit the {Q.LIMIT_S} s limit")
            return
        if (query.key, out) not in self._checked:
            self._checked[(query.key, out)] = check.problems(
                query, out, entry["expect"], self._chains_of_size)
            self.verdicts[query.key] = check.verdict(query, out)
        wrong = self._checked[(query.key, out)]
        if wrong:
            self.unsolved.add(i)
            self.failed += 1
            self.wrong += 1
            self.failures.append(f"{query.family}[{query.index}]: {'; '.join(wrong)}")

    def _chains_of_size(self, size):
        if size not in self._chains:
            self._chains[size] = [logic.table_chain(c.tnorm_table)
                                  for c in self.fz.chains.enumerate_mtl_chains(size)]
        return self._chains[size]



def digest(verdicts: dict) -> str:
    blob = json.dumps(sorted(verdicts.items()), sort_keys=True).encode()
    return hashlib.sha256(blob).hexdigest()[:12]


def measure(runner: Runner, seconds: float, min_passes: int,
            capped: bool = True, tracer=None) -> list:
    """Run passes until the next one would end after `seconds`; in a traced
    run every second pass is traced.  Returns each traced pass's span range
    and counter deltas."""
    traced = []
    t_start = perf_counter()
    if capped:
        runner.run_capped()
    while True:
        use_trace = tracer is not None and len(runner.passes) % 2 == 1
        if use_trace:
            first, counts = len(tracer.spans), dict(tracer.counts)
            tracer.install(runner.fz)
            try:
                wall = runner.run_pass(tracer)
            finally:
                tracer.uninstall()
            delta = {k: v - counts.get(k, 0) for k, v in tracer.counts.items()}
            traced.append((first, len(tracer.spans), delta))
        else:
            wall = runner.run_pass()
        if len(runner.passes) >= min_passes and perf_counter() - t_start + wall > seconds:
            return traced


def layer_report(runner: Runner, tracer: Tracer, traced) -> dict:
    per_pass = [layer_metrics(tracer.spans, a, b, d) for a, b, d in traced]
    layers = median_metrics(per_pass)
    for other in per_pass[1:]:
        for key, value in other.items():
            if not key.endswith("_s") and value != layers[key]:
                print(f"counter {key} differs between traced passes: {layers[key]} vs {value}")
    walls = {flag: statistics.median(w for w, t in runner.passes if t == flag)
             for flag in (True, False)}
    layers["trace.overhead_s"] = walls[True] - walls[False]
    layers["host.calib_s"] = statistics.median(runner.probes)
    units = {"decision.sat_calls_per_decision": "ratio"}
    return {k: {"value": v, "unit": units.get(k) or ("1/s" if k.endswith("per_s") else
                                                     "s" if k.endswith("_s") else "count")}
            for k, v in layers.items()}


def run_part(args) -> dict:
    """One measuring process: set-ups, then passes for `--seconds`.  Each
    set-up is scaled by the probes around it, as queries are."""
    setups, after = [], probe()
    for _ in range(SETUP_REPS):
        before = after
        setup_s, fz, items = set_up(args.workload, args.seed)
        after = probe()
        setups.append(setup_s * 2 * PROBE_REF_S / (before + after))
    runner = Runner(fz, items, f"{args.seed}/part{args.part}")
    measure(runner, args.seconds, 1, capped=args.part == 0)
    return {"setup_s": setups, "samples": runner.samples, "scaled": runner.scaled,
            "regular": runner.regular,
            "unsolved": sorted(runner.unsolved), "passes": len(runner.passes),
            "attempted": runner.attempted, "failed": runner.failed, "wrong": runner.wrong,
            "failures": runner.failures, "verdicts": runner.verdicts, "probe_s": runner.probes,
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024}


def run_parts(args) -> list[dict]:
    """Split the run over PARTS fresh processes, one after another: a process
    can be slow as a whole (its memory layout, a busy spell of the host), and
    each query's best time over several processes does not depend on one."""
    parts = []
    for k in range(PARTS):
        cmd = [sys.executable, os.path.abspath(__file__), "--workload", args.workload,
               "--seed", str(args.seed), "--seconds", str(args.seconds / PARTS),
               "--part", str(k)]
        proc = subprocess.run(cmd, capture_output=True, text=True, timeout=PART_TIMEOUT_S)
        if proc.returncode != 0:
            raise RuntimeError(f"part {k} failed:\n{proc.stderr}")
        parts.append(json.loads(proc.stdout.splitlines()[-1]))
    return parts


def latencies(scaled: list[list[float]]) -> list[float]:
    """A query's latency: the median of its scaled samples over the run."""
    return [statistics.median(s) for s in scaled]


def report(args, lat, n_samples, passes, probes, verdicts, failures) -> tuple[int, float]:
    """Print the summary lines; returns the tail percentile and the tail."""
    pct = Q.tail_percentile(len(lat))
    tail_s = Q.quantile(lat, pct)
    print(f"workload {args.workload} seed {args.seed}: {len(lat)} timed queries, passes "
          f"{passes}, {n_samples} samples; latency = median of each query's scaled samples; "
          f"tail = p{pct} of {len(lat)} latencies")
    print(f"host probe: median {statistics.median(probes):.4f} s, best {min(probes):.4f} s "
          f"over {len(probes)} probes (reference {PROBE_REF_S} s)")
    print(f"verdict digest: {digest(verdicts)}")
    for line in failures[:20]:
        print(f"FAILED {line}")
    return pct, tail_s


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=sorted(Q.WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--part", type=int, help=argparse.SUPPRESS)
    args = ap.parse_args(argv)
    if not os.path.isfile(os.path.join(SRC, "fuzzyfo", "cli.py")):
        print(f"error: no fuzzyfo sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, SRC)
    os.environ.pop("FUZZYFO_BUDGET", None)
    signal.signal(signal.SIGALRM, _on_alarm)

    if args.part is not None:
        print(json.dumps(run_part(args)))
        return 0

    if args.trace:
        _, fz, items = set_up(args.workload, args.seed)
        runner = Runner(fz, items, str(args.seed))
        tracer = Tracer()
        traced = measure(runner, args.seconds, MIN_TRACE_PASSES, tracer=tracer)
        report(args, latencies([runner.scaled[i] for i in runner.regular]),
               sum(map(len, runner.samples)), [len(runner.passes)], runner.probes,
               runner.verdicts, runner.failures)
        metrics = layer_report(runner, tracer, traced)
        os.makedirs(os.path.join(HERE, "out"), exist_ok=True)
        tracer.write(os.path.join(HERE, "out", f"{args.workload}-seed{args.seed}.spans.json.gz"),
                     [[a, b] for a, b, _ in traced])
        attempted, failed, wrong = runner.attempted, runner.failed, runner.wrong
    else:
        parts = run_parts(args)
        # Queries recorded as reaching the limit count in solved_share only.
        regular = parts[0]["regular"]
        lat = latencies([[t for p in parts for t in p["scaled"][i]] for i in regular])
        verdicts = {}
        for p in parts:
            verdicts.update(p["verdicts"])
        _, tail_s = report(args, lat, sum(len(s) for p in parts for s in p["samples"]),
                           [p["passes"] for p in parts], sum((p["probe_s"] for p in parts), []),
                           verdicts, sum((p["failures"] for p in parts), []))
        unsolved = set().union(*(p["unsolved"] for p in parts))
        n = len(parts[0]["samples"])
        metrics = {
            "setup_s": {"value": statistics.median(t for p in parts for t in p["setup_s"]),
                        "unit": "s"},
            "queries_per_s": {"value": len(set(regular) - unsolved) / sum(lat), "unit": "1/s"},
            "query_p50_ms": {"value": 1000 * Q.quantile(lat, 50), "unit": "ms"},
            "query_tail_ms": {"value": 1000 * tail_s, "unit": "ms"},
            "solved_share": {"value": (n - len(unsolved)) / n, "unit": "share"},
            "peak_rss_mb": {"value": max(p["peak_rss_mb"] for p in parts), "unit": "MB"},
        }
        attempted, failed, wrong = (sum(p[k] for p in parts) for k in ("attempted", "failed", "wrong"))
    print(json.dumps({"correct": wrong == 0, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
