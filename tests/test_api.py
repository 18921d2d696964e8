"""The public surface: every exported name exists and is declared once.

A deletion that leaves a stale name in ``__all__`` or in the package's
re-exports fails here, not at a user's import.
"""

import ast
import importlib
import pkgutil
from pathlib import Path

import pytest

import nterm

MODULES = sorted(f"nterm.{m.name}" for m in pkgutil.iter_modules(nterm.__path__))


@pytest.mark.parametrize("name", MODULES)
def test_all_names_exist(name):
    module = importlib.import_module(name)
    assert hasattr(module, "__all__"), name
    missing = [n for n in module.__all__ if not hasattr(module, n)]
    assert missing == [], name


def _package_imports():
    """(module, name) for every ``from .module import name`` in __init__."""
    tree = ast.parse(Path(nterm.__file__).read_text(encoding="utf-8"))
    return [(f"nterm.{node.module}", alias.name)
            for node in tree.body if isinstance(node, ast.ImportFrom)
            and node.level == 1 for alias in node.names]


def test_package_reexports_only_declared_names():
    imports = _package_imports()
    assert imports
    undeclared = [(mod, name) for mod, name in imports
                  if name not in importlib.import_module(mod).__all__]
    assert undeclared == []
