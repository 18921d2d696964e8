"""The public surface: every exported name exists and is declared once.

A deletion that leaves a stale name in ``__all__`` or in the package's
re-exports fails here, not at a user's import.
"""

import importlib
import json
import pkgutil

import pytest

import nterm
from conftest import fresh_python

MODULES = sorted(f"nterm.{m.name}" for m in pkgutil.iter_modules(nterm.__path__))


@pytest.mark.parametrize("name", MODULES)
def test_all_names_exist(name):
    module = importlib.import_module(name)
    assert hasattr(module, "__all__"), name
    missing = [n for n in module.__all__ if not hasattr(module, n)]
    assert missing == [], name


def _package_imports():
    """(module, name) for every name the package exports, read from its
    name -> module table."""
    return [(f"nterm.{module}", name)
            for name, module in nterm._EXPORTS.items()]


def test_package_reexports_only_declared_names():
    imports = _package_imports()
    assert imports
    undeclared = [(mod, name) for mod, name in imports
                  if name not in importlib.import_module(mod).__all__]
    assert undeclared == []


def test_package_import_loads_no_numpy():
    # the CLI sets OPENBLAS_NUM_THREADS before it loads numpy; the package
    # alone must leave both to its caller
    out = fresh_python(
        "-c", "import json, os, sys, nterm; print(json.dumps(['numpy' in "
        "sys.modules, os.environ.get('OPENBLAS_NUM_THREADS')]))",
        OPENBLAS_NUM_THREADS=None)
    assert json.loads(out) == [False, None]


def test_every_export_resolves_on_first_use():
    # the lookup caches nothing in the package, so a function patched in
    # its module is what the package returns
    out = fresh_python("-c", """
import json, nterm
listed = set(dir(nterm))
for name in nterm.__all__:
    exec(f"from nterm import {name}")
print(json.dumps([sorted(set(nterm.__all__) - listed),
                  sorted(set(nterm.__all__) & set(vars(nterm)))]))
""")
    assert json.loads(out) == [[], []]


def test_unknown_name_is_an_attribute_error():
    with pytest.raises(AttributeError, match="no_such_name"):
        getattr(nterm, "no_such_name")
