"""The library's standing contract: stdlib-only, no floats anywhere, and a
reference evaluator independent of the compiled fast paths.

Read from the source with `ast`, so a float cannot slip in through a literal,
a `float(...)` call or a true division `/`.
"""

import ast
import sys
from pathlib import Path

import pytest

SOURCES = sorted((Path(__file__).resolve().parent.parent / "src" / "fuzzyfo").glob("*.py"))


def _tree(path):
    return ast.parse(path.read_text(), filename=str(path))


def _float_sites(tree):
    """Line numbers of float literals, `float` names and true divisions."""
    for node in ast.walk(tree):
        if (isinstance(node, ast.Constant) and isinstance(node.value, (float, complex))
                or isinstance(node, ast.Name) and node.id == "float"
                or isinstance(node, (ast.BinOp, ast.AugAssign)) and isinstance(node.op, ast.Div)):
            yield node.lineno


def test_sources_are_found():
    assert {p.name for p in SOURCES} >= {"__init__.py", "chains.py", "semantics.py", "cli.py"}


@pytest.mark.parametrize("path", SOURCES, ids=lambda p: p.name)
def test_absolute_imports_are_stdlib(path):
    for node in ast.walk(_tree(path)):
        if isinstance(node, ast.Import):
            names = [alias.name for alias in node.names]
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            names = [node.module]
        else:
            continue
        for name in names:
            assert name.split(".")[0] in sys.stdlib_module_names, f"{path.name}:{node.lineno} {name}"


@pytest.mark.parametrize("path", SOURCES, ids=lambda p: p.name)
def test_no_floats(path):
    assert list(_float_sites(_tree(path))) == [], path.name


@pytest.mark.parametrize("text", ["x = 0.5", "x = 1j", "y = float(z)", "y = a / b", "a /= b"])
def test_the_float_check_sees_each_kind_of_float(text):
    assert list(_float_sites(ast.parse(text))) == [1]


FAST_PATH_NAMES = {"compile_formula", "compile_chunks", "_pair_table", "FlatLayout"}


def _names(node):
    """Every name and attribute a piece of code mentions."""
    for child in ast.walk(node):
        if isinstance(child, ast.Name):
            yield child.id
        elif isinstance(child, ast.Attribute):
            yield child.attr


def test_the_reference_walk_stays_independent_of_the_fast_paths():
    # every bounded-search witness is checked against `eval`, so the walk
    # behind it must not become a copy or a user of the compiled evaluators
    semantics = next(p for p in SOURCES if p.name == "semantics.py")
    defs = {node.name: node for node in _tree(semantics).body if isinstance(node, ast.FunctionDef)}
    for name in ("eval", "_walk", "eval_term"):
        assert set(_names(defs[name])) & FAST_PATH_NAMES == set(), name
    # one walk, two readers: no other code of the module reaches the walk
    for node in _tree(semantics).body:
        if getattr(node, "name", None) not in ("eval", "eval_propositional", "_walk"):
            assert "_walk" not in set(_names(node)), getattr(node, "name", node)
    walk = defs["_walk"]
    nested = [node for node in ast.walk(walk) if node is not walk
              and isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda))]
    assert nested == []


FUZZY_SEARCH_NAMES = {"taut0_bounded", "sat_pos_bounded", "_find"}


def test_the_verifier_searches_no_fuzzy_structure():
    # Lemma 1 proves the star output 0 on every structure and a lifted B2
    # model is the positive witness, so no function of the verifier may fall
    # back on a bounded fuzzy search (the names stay imported for the tracer)
    reduction = next(p for p in SOURCES if p.name == "reduction.py")
    defs = {node.name: node for node in _tree(reduction).body if isinstance(node, ast.FunctionDef)}
    assert {"verify_reduction_instance", "_verify_non_contradiction"} <= set(defs)
    for name, node in defs.items():
        assert set(_names(node)) & FUZZY_SEARCH_NAMES == set(), name


LAYOUT_NAMES = {"compile_chunks", "flat_layout", "FlatLayout", "_pair_table", "CHUNK_LIMIT",
                "MAX_SLICED_CHAIN"}


def test_the_search_layout_stays_behind_semantics():
    # `semantics.first_at_least` owns the scan of one (chain, domain size)
    # space; the deciders order the spaces and pass a rank threshold, so
    # nothing in `decision` may read the flat layout or the byte kernel
    decision = next(p for p in SOURCES if p.name == "decision.py")
    tree = _tree(decision)
    functions = [node for node in ast.walk(tree)
                 if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda))]
    assert any(getattr(node, "name", None) == "_find" for node in functions)
    for node in functions:
        assert set(_names(node)) & LAYOUT_NAMES == set(), getattr(node, "name", "lambda")
    imported = {alias.asname or alias.name for node in ast.walk(tree)
                if isinstance(node, ast.ImportFrom) for alias in node.names}
    assert imported & LAYOUT_NAMES == set()


def _mentions(node, name, scope=()):
    """The scope (enclosing class and function names) of each use of `name` under node."""
    for child in ast.iter_child_nodes(node):
        if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            yield from _mentions(child, name, scope + (child.name,))
            continue
        if name in (getattr(child, "id", None), getattr(child, "attr", None)):
            yield ".".join(scope), isinstance(node, ast.Call) and node.func is child
        yield from _mentions(child, name, scope)


def test_the_sat_core_has_one_solver_entry():
    # CDCL, assumptions and proof logging replace the solver behind one seam:
    # every SAT question, prop_satisfiable's included, goes through it
    sites = [(path.stem, where, called) for path in SOURCES
             for where, called in _mentions(_tree(path), "_dpll")]
    assert sites == [("decision", "_Instances.solve", True)]


def test_the_verifier_builds_no_structure():
    # a B2 model is read on B2 and its lift to each chain is checked through
    # the {bot, top} embedding, so no copy of it is ever built
    reduction = next(p for p in SOURCES if p.name == "reduction.py")
    assert [where for where, called in _mentions(_tree(reduction), "Structure") if called] == []


SECOND_WALK_NAMES = {"free_vars", "substitute", "rebuild", "subformulas", "rename_apart"}


def test_parse_is_one_pass():
    # the parser names each binder as it reads it, so no walk over the built
    # formula follows: `parse` returns what `_Parser.formula` built
    tree = _tree(next(p for p in SOURCES if p.name == "syntax.py"))
    parser = next(node for node in tree.body if getattr(node, "name", None) == "_Parser")
    parse = next(node for node in tree.body if getattr(node, "name", None) == "parse")
    methods = [node for node in parser.body if isinstance(node, ast.FunctionDef)]
    assert len(methods) > 10
    for node in [parse] + methods:
        assert set(_names(node)) & SECOND_WALK_NAMES == set(), node.name


BINDER_NAMES = {"Forall", "Exists"}


def _prefix_peels(tree):
    """Line numbers of `while isinstance(...)` loops that test for a binder."""
    for node in ast.walk(tree):
        if (isinstance(node, ast.While) and isinstance(node.test, ast.Call)
                and getattr(node.test.func, "id", None) == "isinstance"
                and set(_names(node.test)) & BINDER_NAMES):
            yield node.lineno


@pytest.mark.parametrize("name", ["decision.py", "reduction.py"])
def test_the_classical_steps_read_their_prefix_through_prenex(name):
    # one prenex reader: `syntax.prenex` hands every classical step its
    # quantifier prefix and matrix, so none peels binders off by itself
    path = next(p for p in SOURCES if p.name == name)
    assert list(_prefix_peels(_tree(path))) == [], name
    assert "prenex" in set(_names(_tree(path)))


@pytest.mark.parametrize("text", ["while isinstance(phi, Exists):\n    phi = phi.body",
                                  "while isinstance(m, syntax.Forall): pass",
                                  "while isinstance(m, (Forall, Exists)): pass"])
def test_the_prefix_check_sees_each_peel(text):
    assert list(_prefix_peels(ast.parse(text))) == [1]


def _at_names(tree):
    """Line numbers of string constants, f-string parts included, that start with `@`."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Constant) and str(node.value).startswith("@"):
            yield node.lineno


def test_bsr_grounds_its_prenex_matrix_as_it_stands():
    # `_Instances` reads each exists-variable as its own closed term, so bsr
    # substitutes no constant for one, and no constant name is reserved for it
    tree = _tree(next(p for p in SOURCES if p.name == "decision.py"))
    bsr = next(node for node in tree.body if getattr(node, "name", None) == "bsr_decide")
    assert set(_names(bsr)) & {"substitute", "Const"} == set()
    assert list(_at_names(tree)) == []


@pytest.mark.parametrize("text", ['c = Const(f"@{i}")', 'name = "@0"', "x = '@' + str(i)"])
def test_the_reserved_name_check_sees_each_spelling(text):
    assert list(_at_names(ast.parse(text))) == [1]


CONNECTIVE_NAMES = {"StrongConj", "Meet", "Join", "Impl", "Biimpl"}


def _pairs_a_connective_with_a_literal(key, value):
    parts = [n for side in (key, value) if side is not None for n in ast.walk(side)]
    return (any(getattr(n, "id", getattr(n, "attr", None)) in CONNECTIVE_NAMES for n in parts)
            and any(isinstance(n, ast.Constant) and type(n.value) in (str, int) for n in parts))


def _connective_spellings(tree):
    """Line numbers of the dict displays, other than `_CONNECTIVES`, with an
    entry that pairs a connective class with a str or int literal."""
    table = [node.value for node in ast.walk(tree) if isinstance(node, ast.Assign)
             and [getattr(t, "id", None) for t in node.targets] == ["_CONNECTIVES"]]
    for node in ast.walk(tree):
        if (isinstance(node, ast.Dict) and node not in table
                and any(map(_pairs_a_connective_with_a_literal, node.keys, node.values))):
            yield node.lineno


def test_each_connective_is_spelled_once():
    # `_CONNECTIVES` holds a binary connective's text and, by its place, its
    # precedence; the tokenizer, the parser and the printer derive theirs
    tree = _tree(next(p for p in SOURCES if p.name == "syntax.py"))
    assert list(_connective_spellings(tree)) == []
    table = next(node.value for node in tree.body if isinstance(node, ast.Assign)
                 and getattr(node.targets[0], "id", None) == "_CONNECTIVES")
    assert {node.id for node in table.values} == CONNECTIVE_NAMES


@pytest.mark.parametrize("text", ['_PREC = {Biimpl: 1, Impl: 2}',
                                  '_OPTXT = {syntax.Meet: "/\\\\"}',
                                  '_BINARY_TOKENS = {"amp": (5, StrongConj)}',
                                  'f({"join": Join})'])
def test_the_spelling_check_sees_each_spelling(text):
    assert list(_connective_spellings(ast.parse(text))) == [1]


CHAIN_TABLE_NAMES = {"tnorm_table", "residuum_table"}


def _chain_table_reads(node):
    """The chain table names a piece of code mentions, as a name, an attribute,
    a keyword argument or a string."""
    words = {n.value if isinstance(n, ast.Constant) else n.arg for n in ast.walk(node)
             if isinstance(n, (ast.Constant, ast.keyword))}
    return (set(_names(node)) | words) & CHAIN_TABLE_NAMES


def test_the_byte_kernel_reads_the_chains_operations():
    # each table of `compile_chunks` is a chain operation, as `_walk` reads
    # it, so the kernel holds no second definition of a connective
    semantics = _tree(next(p for p in SOURCES if p.name == "semantics.py"))
    kernel = next(node for node in semantics.body if getattr(node, "name", None) == "compile_chunks")
    assert _chain_table_reads(kernel) == set()


@pytest.mark.parametrize("path", SOURCES, ids=lambda p: p.name)
def test_only_the_chains_module_names_a_chain_table(path):
    # a named chain builds its k x k tables only when read, so a caller
    # elsewhere reads its operations, which cost nothing to set up
    if path.name != "chains.py":
        assert _chain_table_reads(_tree(path)) == set()


@pytest.mark.parametrize("text", ["t = chain.tnorm_table", "res = residuum_table[x]",
                                  'op = getattr(chain, "residuum_table")',
                                  "FiniteChain(k, tnorm_table=t, residuum_table=r)",
                                  "def square(chain, x):\n    return chain.tnorm_table[x][x]"])
def test_the_chain_table_check_sees_each_spelling(text):
    assert _chain_table_reads(ast.parse(text))
