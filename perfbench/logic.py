"""The benchmark's own formulas: a tuple AST, a printer and a small evaluator.

The generators build formulas here and print them in fuzzyfo's syntax; the
answer checks re-evaluate returned witnesses with `evaluate`, which shares no
code with `fuzzyfo.semantics`.

Terms:    ("var", x) | ("const", c) | ("app", f, (t, ...))
Formulas: ("atom", P, (t, ...)) | ("top",) | ("bot",) | ("not", A)
          | (op, A, B) for op in BINARY | ("all", x, A) | ("ex", x, A)
"""

from __future__ import annotations

import itertools

BINARY = {"sc": "&", "meet": "/\\", "join": "\\/", "imp": "->", "iff": "<->"}


def var(name):
    return ("var", name)


def const(name):
    return ("const", name)


def app(func, *args):
    return ("app", func, tuple(args))


def atom(pred, *args):
    return ("atom", pred, tuple(args))


def neg(a):
    return ("not", a)


def forall(x, a):
    return ("all", x, a)


def exists(x, a):
    return ("ex", x, a)


# -- printing ---------------------------------------------------------------

def show_term(t) -> str:
    if t[0] in ("var", "const"):
        return t[1]
    return f"{t[1]}({', '.join(show_term(a) for a in t[2])})"


def show(phi) -> str:
    """fuzzyfo syntax; every non-unary subformula is parenthesised."""
    op = phi[0]
    if op == "atom":
        return f"{phi[1]}({', '.join(show_term(a) for a in phi[2])})"
    if op == "top":
        return "1"
    if op == "bot":
        return "0"
    if op == "not":
        return "~" + _wrap(phi[1])
    if op in BINARY:
        return f"{_wrap(phi[1])} {BINARY[op]} {_wrap(phi[2])}"
    word = "forall" if op == "all" else "exists"
    return f"{word} {phi[1]}. {_wrap(phi[2])}"


def _wrap(phi) -> str:
    text = show(phi)
    return text if phi[0] in ("atom", "top", "bot", "not") else f"({text})"


# -- transforms used by the generators --------------------------------------

def dual(phi):
    """Classical negation of a lattice-literal formula, already in NNF."""
    op = phi[0]
    if op == "atom":
        return neg(phi)
    if op == "not":
        return phi[1]
    if op == "meet":
        return ("join", dual(phi[1]), dual(phi[2]))
    if op == "join":
        return ("meet", dual(phi[1]), dual(phi[2]))
    if op == "all":
        return ("ex", phi[1], dual(phi[2]))
    if op == "ex":
        return ("all", phi[1], dual(phi[2]))
    raise ValueError(f"not a lattice-literal formula: {phi!r}")


def star(phi):
    """Square every literal of a lattice-literal formula."""
    op = phi[0]
    if op in ("atom", "not"):
        return ("sc", phi, phi)
    if op in ("meet", "join"):
        return (op, star(phi[1]), star(phi[2]))
    if op in ("all", "ex"):
        return (op, phi[1], star(phi[2]))
    raise ValueError(f"not a lattice-literal formula: {phi!r}")


def signature(phi, preds=None, funcs=None, consts=None):
    """(predicates -> arity, functions -> arity, constants) used by phi."""
    preds = {} if preds is None else preds
    funcs = {} if funcs is None else funcs
    consts = set() if consts is None else consts

    def on_term(t):
        if t[0] == "const":
            consts.add(t[1])
        elif t[0] == "app":
            funcs[t[1]] = len(t[2])
            for a in t[2]:
                on_term(a)

    op = phi[0]
    if op == "atom":
        preds[phi[1]] = len(phi[2])
        for t in phi[2]:
            on_term(t)
    elif op == "not":
        signature(phi[1], preds, funcs, consts)
    elif op in BINARY:
        signature(phi[1], preds, funcs, consts)
        signature(phi[2], preds, funcs, consts)
    elif op in ("all", "ex"):
        signature(phi[2], preds, funcs, consts)
    return preds, funcs, consts


# -- chains and evaluation ---------------------------------------------------

class Chain:
    """A finite chain as (top, t-norm, residuum) on ranks 0..top."""

    def __init__(self, top, tnorm, residuum):
        self.top = top
        self.tnorm = tnorm
        self.residuum = residuum


def lukasiewicz(k: int) -> Chain:
    top = k - 1
    return Chain(top, lambda x, y: max(0, x + y - top),
                 lambda x, y: min(top, top - x + y))


def godel(k: int) -> Chain:
    top = k - 1
    return Chain(top, min, lambda x, y: top if x <= y else y)


def table_chain(tnorm_table) -> Chain:
    """A chain from an explicit t-norm table; the residuum is derived here."""
    size = len(tnorm_table)
    res = [[max(z for z in range(size) if tnorm_table[x][z] <= y) for y in range(size)]
           for x in range(size)]
    return Chain(size - 1, lambda x, y: tnorm_table[x][y], lambda x, y: res[x][y])


class Model:
    """A finite structure read back from a report's `witness` block."""

    def __init__(self, domain, constants, functions, predicates):
        self.domain = domain
        self.constants = constants
        self.functions = functions
        self.predicates = predicates


def parse_model(lines, arities) -> Model:
    """Parse `domain n`, `const c = i`, `fun f : ...`, `pred P : #v ...` lines.

    Tables are row-major over argument tuples in lexicographic order; the
    arities come from the formula, since a table alone does not fix them.
    """
    domain = None
    constants, functions, predicates = {}, {}, {}
    for line in lines:
        word, _, rest = line.strip().partition(" ")
        if word == "domain":
            domain = int(rest)
        elif word == "const":
            name, _, value = rest.partition("=")
            constants[name.strip()] = int(value)
        elif word in ("fun", "pred"):
            name, _, values = rest.partition(":")
            name = name.strip()
            cells = values.split()
            if word == "pred":
                if not all(c.startswith("#") for c in cells):
                    raise ValueError(f"pred {name}: expected ranks, got {values!r}")
                cells = [c[1:] for c in cells]
            keys = list(itertools.product(range(domain), repeat=arities.get(name, 1)))
            if len(cells) != len(keys):
                raise ValueError(f"{word} {name}: {len(cells)} entries for {len(keys)} tuples")
            (functions if word == "fun" else predicates)[name] = dict(
                zip(keys, (int(c) for c in cells)))
        elif line.strip():
            raise ValueError(f"cannot read witness line {line!r}")
    if domain is None:
        raise ValueError("witness has no domain line")
    return Model(domain, constants, functions, predicates)


def _term(model: Model, t, env):
    if t[0] == "var":
        return env[t[1]]
    if t[0] == "const":
        return model.constants[t[1]]
    return model.functions[t[1]][tuple(_term(model, a, env) for a in t[2])]


def evaluate(chain: Chain, model: Model, phi, env=None) -> int:
    """Rank of phi in the model; ~A is A -> 0 and A <-> B the meet of residua."""
    env = {} if env is None else env
    op = phi[0]
    if op == "atom":
        return model.predicates[phi[1]][tuple(_term(model, t, env) for t in phi[2])]
    if op == "top":
        return chain.top
    if op == "bot":
        return 0
    if op == "not":
        return chain.residuum(evaluate(chain, model, phi[1], env), 0)
    if op in ("all", "ex"):
        pick = min if op == "all" else max
        return pick(evaluate(chain, model, phi[2], {**env, phi[1]: d})
                    for d in range(model.domain))
    x = evaluate(chain, model, phi[1], env)
    y = evaluate(chain, model, phi[2], env)
    if op == "sc":
        return chain.tnorm(x, y)
    if op == "meet":
        return min(x, y)
    if op == "join":
        return max(x, y)
    if op == "imp":
        return chain.residuum(x, y)
    return min(chain.residuum(x, y), chain.residuum(y, x))
