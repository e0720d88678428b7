"""The library's standing contract: stdlib-only, and no floats anywhere.

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
