#!/usr/bin/env python3
"""The sentence that separates standard from finite Lukasiewicz semantics.

Phi = exists x. (P(x) <-> ~P(x)) & forall x. exists y. (P(x) <-> (P(y) & P(y)))

On every finite chain its value stays strictly below 1 in every structure.
On the standard chain, truncations of one infinite witness push it as close
to 1 as you like.
"""

import sys

from fuzzyfo.cli import run


def show(argv):
    code, report = run(argv)
    if code:
        sys.exit(report)
    print(report)


print("== Finite chains: the value never reaches 1 ==\n")
show(["phi-report", "--max-k", "10"])
print("(an exhaustive scan of every nonempty set of attained P-values; the")
print(" scan raises if Phi ever hits 1 or its negation ever hits 0)\n")

print("== Standard chain: truncated witnesses approach 1 ==\n")
print("P(k) = 1 - 2^-(k+1) on an N-element domain gives:")
print()
show(["phi-witness", "--n", "12"])
print("The values are exactly (2^N - 1)/2^N: computed on exact rationals,")
print("no floating point involved. So Phi is satisfiable above every")
print("threshold below 1 on the standard chain, while every finite chain")
print("caps it; the two semantics disagree about positive satisfiability.")
