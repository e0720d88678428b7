"""Run the benchmark over several seeds and report each metric's spread.

    python3 perfbench/spread.py --seeds 1-10 [--workloads search,ground] [--seconds 20]

Runs are sequential and interleaved (every workload for one seed, then the
next seed), so slow drift of the host spreads over all workloads.  For each
workload and end-to-end metric it prints the median and the distance between
the first and third quartiles as a share of the median, next to a third of
the metric's bound from BENCHMARK.json.  Raw results go to perfbench/out/.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def seeds(text: str) -> list[int]:
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def main() -> int:
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        bench = json.load(fh)
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--seeds", type=seeds, default=seeds("1-10"))
    ap.add_argument("--workloads", default=",".join(w["name"] for w in bench["workloads"]))
    ap.add_argument("--seconds", type=int, default=bench["run_seconds"])
    args = ap.parse_args()
    workloads = args.workloads.split(",")
    results = {w: [] for w in workloads}
    os.makedirs(os.path.join(HERE, "out"), exist_ok=True)
    out_path = os.path.join(HERE, "out", f"spread-{args.workloads.replace(',', '_')}.json")
    for seed in args.seeds:
        for w in workloads:
            cmd = bench["command"] + ["--workload", w, "--seed", str(seed),
                                      "--seconds", str(args.seconds), "--trace", "0"]
            proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=300)
            if proc.returncode != 0:
                print(proc.stderr, file=sys.stderr)
                return 1
            result = json.loads(proc.stdout.strip().splitlines()[-1])
            results[w].append({"seed": seed, **result})
            values = {k: round(v["value"], 4) for k, v in result["metrics"].items()}
            print(f"{w} seed {seed}: correct={result['correct']} failed={result['failed']} "
                  f"{values}", flush=True)
            with open(out_path, "w") as fh:
                json.dump(results, fh, indent=1)
    ok = True
    for w in workloads:
        print(f"\n{w}")
        for metric in bench["end_to_end"]:
            name = metric["name"]
            values = [r["metrics"][name]["value"] for r in results[w]]
            med = statistics.median(values)
            q1, _, q3 = statistics.quantiles(values, n=4) if len(values) > 1 else (med, 0, med)
            spread = (q3 - q1) / med
            limit = metric["bound"] / 3
            flag = "ok" if name == "setup_s" or spread < limit else "WIDE"
            ok &= flag == "ok"
            print(f"  {name:15s} median {med:12.4f} {metric['unit']:5s} "
                  f"spread {spread:6.3f} (a third of the bound: {limit:.3f}) {flag}")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
