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
    # the flat reader searches chains above 16 ranks through the walk; it
    # reads a FlatLayout, but must not grow back into a second compiler
    for name in ("eval_flat", "_flat_index"):
        assert set(_names(defs[name])) & (FAST_PATH_NAMES - {"FlatLayout"}) == set(), name
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
