"""The benchmark's traced run patches library names; they must all still exist.

`perfbench/tracing.py` wraps layer entry points at the caller's binding
(`fuzzyfo.decision.eval`, `fuzzyfo.cli._DECIDERS`, ...).  A refactor that
drops one of those names makes `perfbench/run.py --trace 1` abort with an
AttributeError, so this test installs the tracer the way run.py does.
"""

import importlib
import importlib.util
import os
from types import SimpleNamespace

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
MODULES = ("cli", "chains", "decision", "phi", "reduction", "semantics", "syntax")


def _load_tracing():
    spec = importlib.util.spec_from_file_location(
        "perfbench_tracing", os.path.join(ROOT, "perfbench", "tracing.py"))
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_tracer_installs_runs_a_decide_and_uninstalls():
    tracing = _load_tracing()
    fz = SimpleNamespace(**{m: importlib.import_module(f"fuzzyfo.{m}") for m in MODULES})
    originals = (fz.cli.run, fz.decision.eval, fz.reduction.enumerate_structures,
                 dict(fz.cli._DECIDERS))
    tracer = tracing.Tracer()
    try:
        tracer.install(fz)
        code, text = fz.cli.run(["decide", "--set", "satpos", "--chain", "luk:3",
                                 "--max-domain", "2", "--formula",
                                 "exists x. (P(x) <-> ~P(x))"])
    finally:
        tracer.uninstall()
    assert code == 0, text
    assert "outcome: member_witness" in text
    names = {span[0] for span in tracer.spans}
    assert {"cli.run", "decision.search", "syntax.parse"} <= names
    assert (fz.cli.run, fz.decision.eval, fz.reduction.enumerate_structures,
            dict(fz.cli._DECIDERS)) == originals
