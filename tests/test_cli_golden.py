"""Every CLI report, byte for byte.

Each case pins (exit code, text) for one argv: criterion 9's CLI_COMMANDS,
its `eval` case, and two one-line input errors.  A report that changes
format must change here too, on purpose.  `{structure}` stands for a
structure file written by the test; `budget` is FUZZYFO_BUDGET, if set.
"""

from typing import NamedTuple, Optional

import pytest

from fuzzyfo.cli import BUDGET_ENV, run
from test_acceptance import CLI_COMMANDS


class Case(NamedTuple):
    argv: list
    budget: Optional[str]
    code: int
    text: str


CASES = [
    Case(['parse', '--formula', 'exists x. (P(x) <-> ~P(x)) & forall x. exists y. (P(x) <-> (P(y) & P(y)))'],
         None, 0, """\
formula: exists x. (P(x) <-> ~P(x)) & forall x_1. exists y. (P(x_1) <-> P(y) & P(y))
sentence: True
literal: False
lattice-literal-combination: False
purely-universal: False
relational: True
"""),
    Case(['decide', '--set', 'satpos', '--chain', 'luk:3', '--max-domain', '2', '--formula', 'exists x. (P(x) <-> ~P(x)) & forall x. exists y. (P(x) <-> (P(y) & P(y)))'],
         None, 0, """\
procedure: satpos
formula: exists x. (P(x) <-> ~P(x)) & forall x_1. exists y. (P(x_1) <-> P(y) & P(y))
outcome: member_witness
value: 1
chain-size: 3
witness:
  domain 1
  pred P : #1
bounds: chains of sizes [3], domains 1..2
"""),
    Case(['decide', '--set', 'taut0', '--chain', 'enum:4', '--max-domain', '1', '--formula', '(P(c) & P(c)) /\\ (~P(c) & ~P(c))'],
         None, 0, """\
procedure: taut0
formula: P(c) & P(c) /\\ ~P(c) & ~P(c)
outcome: exhausted
bounds: chains of sizes [2,3,3,4,4,4,4,4,4], domains 1..1
"""),
    Case(['star', '--formula', 'P(c) /\\ ~P(c)'],
         None, 0, """\
input: P(c) /\\ ~P(c)
star: P(c) & P(c) /\\ ~P(c) & ~P(c)
"""),
    Case(['herbrand', '--formula', 'forall x. (P(x) /\\ ~P(f(x)))', '--depth', '2'],
         None, 0, """\
depth: 2
count: 3
terms:
  c0
  f(c0)
  f(f(c0))
"""),
    Case(['bsr', '--formula', 'exists x. forall y. (Q(x) \\/ ~Q(y))'],
         None, 0, """\
formula: exists x. forall y. (Q(x) \\/ ~Q(y))
outcome: decided
decided: True
reason: satisfiable at the Bernays-Schonfinkel bound 1
bounds: single domain size 1
"""),
    Case(['reduce', '--formula', 'exists x. (P(x) /\\ ~P(x))', '--verify', '--chain', 'enum:3'],
         None, 0, """\
input: exists x. (P(x) /\\ ~P(x))
negation-nnf: forall x. (~P(x) \\/ P(x))
herbrand-form: ~P(sk_0) \\/ P(sk_0)
purely-universal: P(sk_0) /\\ ~P(sk_0)
lattice-matrix: P(sk_0) /\\ ~P(sk_0)
star-output: P(sk_0) & P(sk_0) /\\ ~P(sk_0) & ~P(sk_0)
fresh-constants: sk_0
certified: contradiction
certificate: Bernays-Schonfinkel: unsatisfiable at the Bernays-Schonfinkel bound 1
check [herbrand witness is a propositional contradiction]: pass (1 instances at depth 0)
check [star output is the star of a lattice-literal matrix]: pass (star_translate of the lattice matrix)
check [square-meet law a^2 /\\ (~a)^2 = 0 on every chain]: pass (8 ranks on 3 chains)
consistent: True
"""),
    Case(['verify-reduction', '--formula', 'forall x. P(x)', '--chain', 'luk:3'],
         None, 0, """\
input: forall x. P(x)
star-output: forall x. (P(x) & P(x))
certified: non-contradiction
certificate: Bernays-Schonfinkel: satisfiable at the Bernays-Schonfinkel bound 1
check [B2 model of the purely universal form exists]: pass (domain 1)
check [lifted model gives star output top value on size-3 chain]: pass (value 2)
consistent: True
"""),
    Case(['enum-chains', '--size', '4', '--tables'],
         None, 0, """\
size: 4
count: 6
chain 0:
  chain 4
  0 0 0 0
  0 0 0 1
  0 0 0 2
  0 1 2 3
chain 1:
  chain 4
  0 0 0 0
  0 0 0 1
  0 0 1 2
  0 1 2 3
chain 2:
  chain 4
  0 0 0 0
  0 0 0 1
  0 0 2 2
  0 1 2 3
chain 3:
  chain 4
  0 0 0 0
  0 0 1 1
  0 1 2 2
  0 1 2 3
chain 4:
  chain 4
  0 0 0 0
  0 1 1 1
  0 1 1 2
  0 1 2 3
chain 5:
  chain 4
  0 0 0 0
  0 1 1 1
  0 1 2 2
  0 1 2 3
"""),
    Case(['check-lemma1', '--enum', '4'],
         None, 0, """\
result: all chains pass
chains-checked: 31
"""),
    Case(['phi-report', '--max-k', '5'],
         None, 0, """\
sentence: exists x. (P(x) <-> ~P(x)) & forall x. exists y. (P(x) <-> (P(y) & P(y)))
columns: k value-sets max-value
k=2: 3 0
k=3: 7 1/2
k=4: 15 1/3
k=5: 31 3/4
"""),
    Case(['phi-witness', '--n', '8'],
         None, 0, """\
sentence: exists x. (P(x) <-> ~P(x)) & forall x. exists y. (P(x) <-> (P(y) & P(y)))
columns: N value
N=1: 1/2
N=2: 3/4
N=3: 7/8
N=4: 15/16
N=5: 31/32
N=6: 63/64
N=7: 127/128
N=8: 255/256
"""),
    Case(['--format', 'records', 'phi-report', '--max-k', '4'],
         None, 0, """\
sentence: exists x. (P(x) <-> ~P(x)) & forall x. exists y. (P(x) <-> (P(y) & P(y)))
columns: k value-sets max-value
k=2: 3 0
k=3: 7 1/2
k=4: 15 1/3
"""),
    Case(['eval', '--formula', 'P(c) & P(c)', '--chain', 'luk:3', '--structure', '{structure}'],
         None, 0, """\
formula: P(c) & P(c)
chain-size: 3
value: 0
"""),
    Case(['bsr', '--formula', 'exists a. exists b. exists c. exists d. exists e. forall x. forall y. forall z. ((R(x,y) /\\ ~R(y,z)) \\/ (R(a,x) /\\ ~R(a,x)))'],
         '100', 1, """\
error: search space of 125 ground instances exceeds budget 100
"""),
    Case(['bsr', '--formula', '(exists x. P(x)) /\\ (forall y. Q(y))'],
         None, 1, """\
error: not an exists*-forall* prefix sentence
"""),
]


def test_cases_cover_criterion_9():
    assert [case.argv for case in CASES[:len(CLI_COMMANDS)]] == CLI_COMMANDS


@pytest.mark.parametrize("case", CASES, ids=lambda case: case.argv[0])
def test_report_is_byte_identical(case, tmp_path, monkeypatch):
    structure = tmp_path / "m.struct"
    structure.write_text("domain 1\nconst c = 0\npred P : #1\n")
    if case.budget is None:
        monkeypatch.delenv(BUDGET_ENV, raising=False)
    else:
        monkeypatch.setenv(BUDGET_ENV, case.budget)
    argv = [str(structure) if a == "{structure}" else a for a in case.argv]
    assert run(argv) == (case.code, case.text)
