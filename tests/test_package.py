"""The lazily loaded package namespace, the demos that import from it, and the
functions the benchmark's tracer wraps."""

import ast
import json
import os
import subprocess
import sys
from importlib import import_module
from pathlib import Path

import pytest

import budgetpath

ROOT = Path(__file__).resolve().parent.parent
SRC = str(ROOT / "src")
DEMOS = sorted((ROOT / "demos").glob("*.py"))


def _child(argv: list[str]) -> subprocess.CompletedProcess:
    return subprocess.run([sys.executable, *argv], capture_output=True, text=True,
                          env={**os.environ, "PYTHONPATH": SRC})


@pytest.mark.parametrize("name", budgetpath.__all__)
def test_public_name_is_its_home_module_attribute(name):
    value = getattr(budgetpath, name)
    home = sys.modules[value.__module__]
    assert home.__name__.startswith("budgetpath.")
    assert getattr(home, name) is value
    assert vars(budgetpath)[name] is value  # cached: later lookups are dict hits


def test_dir_lists_public_names():
    assert set(budgetpath.__all__) <= set(dir(budgetpath))


def test_star_import_defines_public_names():
    namespace = {}
    exec("from budgetpath import *", namespace)
    assert set(budgetpath.__all__) <= set(namespace)


def test_unknown_attribute_raises():
    with pytest.raises(AttributeError, match="no_such_name"):
        budgetpath.no_such_name


def test_names_load_only_their_modules():
    code = """
import json, sys
loaded = []
def step():
    loaded.append(sorted(m for m in sys.modules if m.startswith("budgetpath")))
import budgetpath
step()
budgetpath.EdgeList
step()
budgetpath.load_topology
step()
budgetpath.simulate
step()
print(json.dumps(loaded))
"""
    proc = _child(["-c", code])
    assert proc.returncode == 0, proc.stderr
    assert json.loads(proc.stdout) == [
        ["budgetpath"],
        ["budgetpath", "budgetpath.records", "budgetpath.topology"],
        ["budgetpath", "budgetpath.records", "budgetpath.topology"],
        ["budgetpath", "budgetpath.billing", "budgetpath.planner", "budgetpath.records",
         "budgetpath.search", "budgetpath.simulate", "budgetpath.topology"],
    ]


@pytest.mark.parametrize("demo", DEMOS, ids=lambda path: path.name)
def test_demo_runs(demo):
    proc = _child([str(demo)])
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout


MODULES = sorted(path.stem for path in (ROOT / "src" / "budgetpath").glob("*.py"))


def _traced_targets() -> list[str]:
    """The names in `TARGETS` of perfbench/spans.py, read without importing the benchmark."""
    tree = ast.parse((ROOT / "perfbench" / "spans.py").read_text())
    for statement in tree.body:
        if isinstance(statement, ast.Assign) and any(
            getattr(target, "id", None) == "TARGETS" for target in statement.targets
        ):
            return [name for name, _ in ast.literal_eval(statement.value)]
    raise AssertionError("perfbench/spans.py assigns no TARGETS")


@pytest.mark.parametrize("module", MODULES)
def test_module_imports(module):
    import_module("budgetpath" if module == "__init__" else f"budgetpath.{module}")


# A traced benchmark run reports a renamed or removed target only as an absent layer.
@pytest.mark.parametrize("target", _traced_targets())
def test_benchmark_trace_target_exists(target):
    module, *attributes = target.split(".")
    value = import_module(f"budgetpath.{module}")
    for attribute in attributes:
        value = getattr(value, attribute)
    assert callable(value)
