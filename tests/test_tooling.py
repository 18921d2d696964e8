"""Checks on the test modules themselves."""

import ast
from collections import Counter
from pathlib import Path

import pytest

TEST_MODULES = sorted(Path(__file__).resolve().parent.glob("test_*.py"))


def _rebound_names(body: list[ast.stmt]) -> list[str]:
    """Class and function names that one block of statements binds twice.

    A second ``class`` or ``def`` of a name replaces the first, so pytest
    never collects the tests of the first.
    """
    defs = (ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)
    counts = Counter(node.name for node in body if isinstance(node, defs))
    return sorted(name for name, k in counts.items() if k > 1)


@pytest.mark.parametrize("path", TEST_MODULES, ids=lambda p: p.name)
def test_no_name_is_defined_twice(path):
    tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
    rebound = [f"{path.name}: {name}" for name in _rebound_names(tree.body)]
    for node in tree.body:
        if isinstance(node, ast.ClassDef):
            rebound += [f"{path.name}: {node.name}.{name}"
                        for name in _rebound_names(node.body)]
    assert rebound == []
