"""The names the benchmark wraps or calls must exist in the package, and
accept the calls it makes.

``perfbench/spans.py`` replaces module attributes of ``cvconf`` by name
when a run is traced, and ``perfbench/workloads.py`` and ``perfbench/run.py``
call package functions directly.  A name that a simplification deletes or
renames, or whose signature it changes, would otherwise surface only as a
failing benchmark run.
"""

import ast
import importlib
import importlib.util
import sys
from pathlib import Path

import pytest

import cvconf.rates

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"
SPANS = PERFBENCH / "spans.py"


@pytest.fixture(scope="module")
def spans():
    """The tracer module, imported from its file without installing it."""
    spec = importlib.util.spec_from_file_location("perfbench_spans", SPANS)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_wrapped_entry_point_resolves(spans):
    missing = [f"{module.__name__}.{attr}" for module, attr, _, _ in spans.ENTRY_POINTS
               if not callable(getattr(module, attr, None))]
    assert missing == []


def test_rates_pool_is_a_module_attribute(spans):
    assert issubclass(spans.TracedPool, cvconf.rates.ProcessPoolExecutor)


def _package_names(path: Path) -> set[tuple[str, str]]:
    """(module, name) of every ``cvconf.<module>.<name>`` chain and every
    ``from cvconf.<module> import <name>`` in a source file."""
    names = set()
    for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
        if (isinstance(node, ast.Attribute) and isinstance(node.value, ast.Attribute)
                and isinstance(node.value.value, ast.Name) and node.value.value.id == "cvconf"):
            names.add((node.value.attr, node.attr))
        elif isinstance(node, ast.ImportFrom) and (node.module or "").startswith("cvconf."):
            names.update((node.module.removeprefix("cvconf."), a.name) for a in node.names)
    return names


@pytest.mark.parametrize("script", ["workloads.py", "run.py"])
def test_every_direct_call_resolves(script):
    names = _package_names(PERFBENCH / script)
    assert names, f"no cvconf names found in {script}"
    missing = [f"cvconf.{module}.{name}" for module, name in sorted(names)
               if not hasattr(importlib.import_module(f"cvconf.{module}"), name)]
    assert missing == []


@pytest.fixture(scope="module")
def workloads():
    """The benchmark's workloads module, imported from its file with its
    sibling ``oracle`` module, leaving ``sys.path`` and ``sys.modules`` as they were."""
    sys.path.insert(0, str(PERFBENCH))
    try:
        spec = importlib.util.spec_from_file_location("perfbench_workloads",
                                                      PERFBENCH / "workloads.py")
        module = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(module)
    finally:
        sys.path.remove(str(PERFBENCH))
        sys.modules.pop("oracle", None)
    return module


@pytest.mark.parametrize("name", ["sweep", "quadrature", "single-point"])
def test_tiny_round_of_each_workload(workloads, name):
    """One round at the sizes of ``perfbench/run.py --tiny``, in process:
    every operation succeeds and every check of the round holds."""
    workload = workloads.WORKLOADS[name](1, True)
    workload.setup()
    result = workload.round(0)
    assert result.complete and result.failed == 0, result.errors
    checks = workload.check(0, result)
    assert checks and all(checks.values()), checks
