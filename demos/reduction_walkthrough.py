#!/usr/bin/env python3
"""Walk a classical sentence through the reduction pipeline and verify the
outcome in both directions."""

import sys

from fuzzyfo.cli import run

print("chain class K: all MTL-chains of size <= 4 (--chain enum:4)\n")

for text in [
    "exists x. (P(x) /\\ ~P(x))",        # a contradiction
    "forall x. (P(x) /\\ ~P(f(x)))",     # contradiction, needs a Herbrand step
    "forall x. exists y. R(x, y)",        # satisfiable
]:
    print("=" * 60)
    code, report = run(["reduce", "--formula", text, "--verify", "--chain", "enum:4"])
    if code:
        sys.exit(report)
    print(report)

print("=" * 60)
print("The star output of a contradiction lands in TAUT0 over any class of")
print("chains; the star output of a non-contradiction takes a positive value")
print("somewhere. The verifier certifies whichever side applies classically,")
print("then proves the fuzzy side: Lemma 1 (a^2 /\\ (~a)^2 = 0 on every chain)")
print("makes the star of a contradiction 0 in every structure, and a B2 model")
print("lifted to each chain gives a non-contradiction's star the top value.")
