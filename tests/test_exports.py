"""Every exported name and every attribute the benchmark's tracer wraps must exist.

``perfbench/spans.py`` wraps solver attributes by name, and ``Tracer.install``
runs outside the benchmark's error handling, so a renamed or deleted
attribute would break ``perfbench/run.py --trace 1``.  These tests only read
``perfbench/``.  A source check also keeps the solver's arithmetic in its
contexts: raw ``libmp`` calls take no rounding mode from the context.  Another
pins each module's absolute imports, since the benchmark's import-time metric
is too noisy to show a new one.
"""

import ast
import importlib
import importlib.util
import pkgutil
import sys
from pathlib import Path

import pytest

import quintic

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"
SRC = Path(__file__).resolve().parent.parent / "src" / "quintic"

MODULES = ["quintic"] + [f"quintic.{info.name}" for info in pkgutil.iter_modules(quintic.__path__)]

# top-level packages each module imports by absolute name; add one here only on purpose
IMPORTS = {
    "__init__": set(),
    "bring": {"__future__", "dataclasses"},
    "cli": {"__future__", "argparse", "json", "sys"},
    "closedform": {"__future__", "dataclasses"},
    "errors": set(),
    "mpfield": {"__future__", "dataclasses", "functools", "math", "mpmath", "re"},
    "oracle": {"__future__", "cmath", "dataclasses", "itertools"},
    "polyring": {"__future__"},
    "tschirnhaus": {"__future__", "dataclasses"},
}


@pytest.mark.parametrize("name", MODULES)
def test_all_names_resolve(name):
    module = importlib.import_module(name)
    missing = [attr for attr in getattr(module, "__all__", ()) if not hasattr(module, attr)]
    assert not missing, f"{name}.__all__ names missing attributes: {missing}"


def _load(name, monkeypatch):
    monkeypatch.syspath_prepend(str(PERFBENCH))
    spec = importlib.util.spec_from_file_location(name, PERFBENCH / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    monkeypatch.setitem(sys.modules, name, module)
    spec.loader.exec_module(module)
    return module


def test_benchmark_wrapped_attributes_resolve(monkeypatch):
    spans = _load("spans", monkeypatch)
    run = _load("run", monkeypatch)
    targets = run.Solver(50).modules
    missing = [
        f"{key}.{attr}" for _, key, attr in spans.WRAPPED if key not in targets or not hasattr(targets[key], attr)
    ]
    assert not missing, f"perfbench/spans.py wraps attributes that do not exist: {missing}"


def test_no_raw_libmp_arithmetic():
    """Only mpfield may touch mpmath.libmp, and only to format a number."""
    uses = set()
    for path in sorted(SRC.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            if isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name) and node.value.id == "libmp":
                uses.add((path.stem, node.attr))
            elif isinstance(node, (ast.Import, ast.ImportFrom)):
                module = getattr(node, "module", None)
                names = (f"{module}.{alias.name}" if module else alias.name for alias in node.names)
                uses.update((path.stem, name) for name in names if "libmp" in name)
    assert uses <= {("mpfield", "mpmath.libmp"), ("mpfield", "to_str")}, sorted(uses)


def test_imports_pinned():
    found = {}
    for path in sorted(SRC.glob("*.py")):
        names = found.setdefault(path.stem, set())
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            if isinstance(node, ast.Import):
                names.update(alias.name.split(".")[0] for alias in node.names)
            elif isinstance(node, ast.ImportFrom) and node.level == 0:
                names.add(node.module.split(".")[0])
    assert found == IMPORTS
