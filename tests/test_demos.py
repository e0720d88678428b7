"""Each demo runs to the end as a script and prints what it is about."""

import os
import subprocess
import sys

import pytest

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))

DEMOS = [
    ("chains_tour.py", "checked 125 enumerated chains, 0 failures"),
    ("reduction_walkthrough.py", "certificate: Herbrand witness with 2 instances at depth 1"),
    ("standard_vs_finite.py", "N=12: 4095/4096"),
]


@pytest.mark.parametrize("name, line", DEMOS, ids=[name for name, _ in DEMOS])
def test_demo_runs(name, line):
    env = dict(os.environ, PYTHONPATH=os.path.join(ROOT, "src"))
    done = subprocess.run([sys.executable, os.path.join(ROOT, "demos", name)],
                          capture_output=True, text=True, env=env, timeout=60)
    assert done.returncode == 0, done.stderr
    assert line in done.stdout.splitlines()
