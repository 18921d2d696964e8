"""Checks on the test modules themselves."""

import ast
import importlib
import importlib.util
import json
import sys
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


SRC_DIR = Path(__file__).resolve().parent.parent / "src" / "nterm"
SOURCE_MODULES = sorted(SRC_DIR.glob("*.py"))


def _callers(node: ast.AST, name: str, where: str = "<module>") -> list[str]:
    """The innermost enclosing function of every ``name(`` or ``.name(``
    call under ``node``, or ``where`` outside any."""
    calls = []
    for child in ast.iter_child_nodes(node):
        if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
            calls += _callers(child, name, child.name)
            continue
        if isinstance(child, ast.Call) and name in (
                getattr(child.func, "id", None),
                getattr(child.func, "attr", None)):
            calls.append(where)
        calls += _callers(child, name, where)
    return calls


def _source_callers(name: str) -> list[str]:
    calls = []
    for path in SOURCE_MODULES:
        tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
        calls += [f"{path.name}: {where}" for where in _callers(tree, name)]
    return calls


def test_one_reader_opens_input_files():
    # the weight file and the sequence file have one format and one reader
    assert _source_callers("open") == ["weights.py: read_number_lines"]


def test_one_number_format_on_every_platform():
    # long double is 80-bit on some platforms and float64 on others, so a
    # table summed in it would read different bits on each
    assert [path.name for path in SOURCE_MODULES
            if "longdouble" in path.read_text(encoding="utf-8")] == []


@pytest.mark.parametrize("text", ["_EXPONENT_EPS", "2 * (n + 1)"])
def test_no_exponent_band_and_no_doubled_head(text):
    # the divergence edges are exact, and a p = inf head is h terms past n
    assert [path.name for path in SOURCE_MODULES
            if text in path.read_text(encoding="utf-8")] == []


def test_one_function_sizes_a_table():
    # a run's table length is decided in one place
    assert _source_callers("build_table") == ["bounds.py: run_table"]


def test_one_function_makes_the_rows():
    # every bounds row is made by run_table; the rest read its rows
    assert _source_callers("class_bounds") == ["bounds.py: run_table"]


def test_one_function_sums_the_tails():
    # p = inf rows are made by run_table too, so no caller picks the engine
    assert _source_callers("class_error_infty") == ["bounds.py: run_table"]


def test_one_bound_decides_a_proved_row():
    # the lower envelope's bound closes the upper maximum too, and the scan
    # reads whether it proves from the row's own regime
    assert _source_callers("_log_tail_bound") == ["bounds.py: _closed"]
    assert [path.name for path in SOURCE_MODULES
            if "_proves" in path.read_text(encoding="utf-8")] == []


def test_a_passed_table_is_not_patched():
    # a row reads the weights its table keeps; none is copied in from w
    tree = ast.parse((SRC_DIR / "bounds.py").read_text(encoding="utf-8"))
    imported = [alias.name for node in ast.walk(tree)
                if isinstance(node, (ast.Import, ast.ImportFrom))
                for alias in node.names]
    assert "replace" not in imported


@pytest.mark.parametrize("name", ["random_search_oracle", "structure_oracle"])
def test_one_pass_runs_the_oracles(name):
    # certify and the oracle command read one pass; neither runs its own
    assert _source_callers(name) == ["oracle.py: run_oracles"]


SCHEMA = json.loads((Path(__file__).resolve().parent.parent / "schemas"
                     / "output.json").read_text(encoding="utf-8"))


def test_schema_matches_the_command_table():
    # a command or flag deleted from the CLI leaves no schema entry behind
    from nterm.cli import COMMANDS

    definitions = SCHEMA["definitions"]
    commands = {definitions[branch["$ref"].rsplit("/", 1)[1]]
                ["properties"]["command"]["const"]
                for branch in SCHEMA["oneOf"]}
    assert commands == set(COMMANDS)
    flags = {f for cmd in COMMANDS.values() for f in cmd.flags}
    assert set(definitions["params"]["properties"]) == {"format", *flags}


def _unpassed_keywords(sources: list[Path]) -> list[str]:
    """Keyword-only parameters that no call in ``sources`` passes by name.

    A call is matched to a function by its name alone, so a keyword given
    to any function of that name counts.
    """
    params, passed = [], set()
    for path in sources:
        tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
        for node in ast.walk(tree):
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                params += [(path.name, node.name, arg.arg)
                           for arg in node.args.kwonlyargs]
            elif isinstance(node, ast.Call):
                name = getattr(node.func, "id", None) or getattr(
                    node.func, "attr", None)
                passed.update((name, kw.arg) for kw in node.keywords)
    return [f"{module}: {func}({arg})" for module, func, arg in params
            if (func, arg) not in passed]


def test_every_keyword_only_parameter_is_passed():
    # a keyword that no program call sets is a knob kept for tests alone
    assert _unpassed_keywords(SOURCE_MODULES) == []


PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"


def _perfbench_tree() -> dict[str, int]:
    return {str(p.relative_to(PERFBENCH)): p.stat().st_mtime_ns
            for p in PERFBENCH.rglob("*")}


@pytest.fixture
def spans(monkeypatch):
    """``perfbench/spans.py``, imported without writing under perfbench/."""
    before = _perfbench_tree()
    monkeypatch.setattr(sys, "dont_write_bytecode", True)
    spec = importlib.util.spec_from_file_location(
        "perfbench_spans", PERFBENCH / "spans.py")
    module = importlib.util.module_from_spec(spec)
    monkeypatch.setitem(sys.modules, spec.name, module)
    spec.loader.exec_module(module)
    yield module
    assert _perfbench_tree() == before


def test_every_bench_layer_resolves(spans):
    # the bench reports a layer it cannot find as 0, so a renamed function
    # would read as free
    unresolved = []
    for mod_name, path, _, _ in spans.LAYERS:
        owner = importlib.import_module(mod_name)
        for part in path.split("."):
            owner = getattr(owner, part, None)
        if not callable(owner):
            unresolved.append(f"{mod_name}.{path}")
    assert unresolved == []


def test_bench_counts_read_the_current_signatures(spans):
    # each count reads the arguments or result of its span by name
    from nterm import OracleConfig, PowLogWeights, certify, class_bounds

    tracer = spans.Tracer()
    tracer.install()
    try:
        certify(PowLogWeights(1.0, 0.0), 3.0, [4, 64],
                OracleConfig(iters=200, seed=1))
        # w_j**2 = j**120: the sums pass the float64 range at m = 367
        class_bounds(PowLogWeights(60.0, 0.0), 2.0, 1)
    finally:
        tracer.uninstall()
    assert tracer.missing == []
    totals = spans.layer_totals(tracer.spans, 0, len(tracer.spans))
    assert totals["oracle.random_search_oracle"]["calls"] == 1
    assert totals["oracle.random_search_oracle"]["samples"] == 200
    assert totals["oracle.structure_oracle"]["m_scanned"] > 0
    assert totals["bounds.build_table"]["log_domain_calls"] == 1
