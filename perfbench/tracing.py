"""Per-layer spans around fuzzyfo's entry points, installed from outside.

Each wrapper is set at the caller's binding (for example `fuzzyfo.decision.eval`,
not `fuzzyfo.semantics.eval`), so a function's own recursion is not counted.
Generators are timed around each `next()`.  Spans are kept in memory as
(name, group, parent, start, end, outermost-in-group, returned-normally);
self time is a span's duration minus its direct children's.
"""

from __future__ import annotations

import gzip
import json
import statistics
from collections import defaultdict
from time import perf_counter


class Tracer:
    def __init__(self):
        self.spans: list = []
        self.stack: list[int] = []
        self.depth: dict[str, int] = defaultdict(int)
        self.counts: dict[str, int] = defaultdict(int)
        self._saved: list = []

    # -- wrappers --------------------------------------------------------------

    def call(self, name: str, group: str, fn):
        spans, stack, depth = self.spans, self.stack, self.depth

        def traced(*args, **kwargs):
            idx = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(idx)
            outer = not depth[group]
            depth[group] += 1
            ok = False
            t0 = perf_counter()
            try:
                result = fn(*args, **kwargs)
                ok = True
                return result
            finally:
                t1 = perf_counter()
                depth[group] -= 1
                stack.pop()
                spans[idx] = (name, group, parent, t0, t1, outer, ok)
        return traced

    def generator(self, name: str, group: str, fn):
        def traced(*args, **kwargs):
            return self._drive(name, group, fn(*args, **kwargs))
        return traced

    def _drive(self, name, group, gen):
        spans, stack, depth = self.spans, self.stack, self.depth
        while True:
            idx = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(idx)
            outer = not depth[group]
            depth[group] += 1
            ok = False
            t0 = perf_counter()
            try:
                item = next(gen)
                ok = True
            except StopIteration:
                pass
            finally:
                t1 = perf_counter()
                depth[group] -= 1
                stack.pop()
                spans[idx] = (name, group, parent, t0, t1, outer, ok)
            if not ok:
                return
            yield item

    def counter(self, name: str, fn):
        counts = self.counts

        def counted(*args, **kwargs):
            counts[name] += 1
            return fn(*args, **kwargs)
        return counted

    # -- installing ------------------------------------------------------------

    def patch(self, owner, attr: str, wrapper) -> None:
        """Replace owner.attr (or owner[attr] for a dict) until uninstall()."""
        if isinstance(owner, dict):
            self._saved.append((owner, attr, owner[attr]))
            owner[attr] = wrapper(owner[attr])
        else:
            self._saved.append((owner, attr, getattr(owner, attr)))
            setattr(owner, attr, wrapper(getattr(owner, attr)))

    def uninstall(self) -> None:
        while self._saved:
            owner, attr, original = self._saved.pop()
            if isinstance(owner, dict):
                owner[attr] = original
            else:
                setattr(owner, attr, original)

    def install(self, fz) -> None:
        """Wrap every layer entry point the workloads reach; fz holds the modules."""
        call, gen, count = self.call, self.generator, self.counter

        def span(name, group):
            return lambda fn: call(name, group, fn)

        d, r, p, s, c = fz.decision, fz.reduction, fz.phi, fz.syntax, fz.chains
        self.patch(fz.cli, "run", span("cli.run", "cli"))
        # semantics: evaluation and structure enumeration
        for owner in (d, r, p):
            self.patch(owner, "eval", span("semantics.eval", "eval"))
            self.patch(owner, "enumerate_structures",
                       lambda fn: gen("semantics.enum", "enum", fn))
        for owner in (d, r):
            self.patch(owner, "eval_propositional", span("semantics.eval", "eval"))
        # decision: bounded searches, SAT, grounding, Herbrand search
        for key in list(fz.cli._DECIDERS):
            self.patch(fz.cli._DECIDERS, key, span("decision.search", "search"))
        for name in ("taut0_bounded", "sat_pos_bounded"):
            self.patch(r, name, span("decision.search", "search"))
        self.patch(d, "prop_satisfiable", span("decision.sat", "sat"))
        self.patch(d, "substitute", span("decision.ground", "ground"))
        self.patch(d, "_replace_constants", span("decision.ground_consts", "ground"))
        self.patch(d, "bsr_decide", span("decision.bsr", "classical"))
        for owner in (d, r):
            self.patch(owner, "dual_herbrand_search", span("decision.herbrand", "classical"))
            self.patch(owner, "purely_universal_contradiction",
                       span("decision.contradiction", "contradiction"))
        self.patch(r, "is_classical_contradiction_prop", span("decision.truth_table", "tt"))
        # reduction
        self.patch(r, "hardness_reduce", span("reduction.reduce", "reduce"))
        self.patch(r, "verify_reduction_instance", span("reduction.verify", "verify"))
        # syntax: parsing and transforms
        self.patch(s, "parse", span("syntax.parse", "parse"))
        self.patch(p, "parse", span("syntax.parse", "parse"))
        for name in ("classical_nnf", "skolemize", "pull_universals", "star_translate",
                     "to_purely_universal", "matrix_to_lattice_literals"):
            self.patch(r, name, span("syntax.transform", "transform"))
        self.patch(d, "classical_nnf", span("syntax.transform", "transform"))
        # chains: construction, validation and enumeration
        for name in ("make_lukasiewicz_chain", "make_godel_chain", "make_chain_from_table"):
            self.patch(c, name, span("chains.build", "chains"))
        self.patch(c, "make_boolean_chain", span("chains.boolean", "chains"))
        self.patch(c, "enumerate_mtl_chains", lambda fn: gen("chains.enum", "chains", fn))
        for owner in (d, r):
            self.patch(owner, "make_boolean_chain", span("chains.boolean", "chains"))
        self.patch(p, "make_lukasiewicz_chain", span("chains.build", "chains"))
        self.patch(p, "is_lukasiewicz", span("chains.check", "chains"))
        # phi: value-set scans and standard-chain witnesses
        self.patch(p, "phi_truncated_witness", span("phi.witness", "phi"))
        self.patch(p, "phi_fin_refutation", span("phi.scan", "phi"))
        self.patch(p, "eval_phi_on_valueset", lambda fn: count("phi.valuesets", fn))
        for name in ("tnorm", "residuum", "meet", "join", "neg", "square", "biimpl"):
            self.patch(c.StandardChain, name, lambda fn: count("phi.std_ops", fn))

    # -- bookkeeping around one query ------------------------------------------

    def mark(self):
        self.stack.clear()
        self.depth.clear()
        return len(self.spans), dict(self.counts)

    def rollback(self, mark) -> None:
        """Forget what an unsolved query recorded, so counts stay exact."""
        n, counts = mark
        del self.spans[n:]
        self.counts.clear()
        self.counts.update(counts)

    def write(self, path: str, passes) -> None:
        """Write the spans, with each traced pass's [first, end) span range."""
        with gzip.open(path, "wt") as fh:
            json.dump({"fields": ["name", "group", "parent", "start", "end", "outer", "ok"],
                       "passes": passes, "spans": self.spans}, fh)


def layer_metrics(spans, first: int, end: int, counts: dict) -> dict[str, float]:
    """Per-layer times and counts over spans[first:end] (one traced pass)."""
    total = defaultdict(float)
    calls = defaultdict(int)
    returned = defaultdict(int)
    outer = defaultdict(float)
    selft = defaultdict(float)
    child = defaultdict(float)
    for idx in range(end - 1, first - 1, -1):
        name, group, parent, t0, t1, is_outer, ok = spans[idx]
        dur = t1 - t0
        total[name] += dur
        calls[name] += 1
        returned[name] += ok
        if is_outer:
            outer[group] += dur
        selft[name] += dur - child[idx]
        if parent >= 0:
            child[parent] += dur
    eval_s, enum_s = total["semantics.eval"], total["semantics.enum"]
    structures = returned["semantics.enum"]
    decisions = calls["decision.bsr"] + calls["decision.herbrand"]
    return {
        "semantics.eval_s": eval_s,
        "semantics.eval_calls": calls["semantics.eval"],
        "semantics.enum_s": enum_s,
        "semantics.structures": structures,
        "semantics.structures_per_s": structures / (eval_s + enum_s) if structures else 0.0,
        "decision.search_self_s": selft["decision.search"],
        "decision.sat_s": outer["sat"],
        "decision.sat_calls": calls["decision.sat"],
        "decision.sat_calls_per_decision": calls["decision.sat"] / decisions if decisions else 0.0,
        "decision.ground_s": outer["ground"],
        "decision.ground_instances": calls["decision.ground"],
        "decision.herbrand_s": total["decision.herbrand"],
        "decision.truth_table_s": total["decision.truth_table"],
        "reduction.reduce_s": total["reduction.reduce"],
        "reduction.verify_self_s": selft["reduction.verify"],
        "syntax.parse_s": total["syntax.parse"],
        "syntax.transform_s": outer["transform"],
        "cli.self_s": selft["cli.run"],
        "chains.build_s": outer["chains"],
        "chains.built": returned["chains.build"],
        "phi.witness_s": total["phi.witness"],
        "phi.scan_s": total["phi.scan"],
        "phi.valuesets": counts.get("phi.valuesets", 0),
        "phi.std_ops": counts.get("phi.std_ops", 0),
    }


def median_metrics(per_pass: list[dict]) -> dict[str, float]:
    """Median of each time over traced passes; counts must repeat exactly."""
    out = {}
    for key in per_pass[0]:
        values = [m[key] for m in per_pass]
        out[key] = statistics.median(values) if key.endswith(("_s", "per_s")) else values[0]
    return out
