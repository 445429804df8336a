"""The names the benchmark's span tracer wraps must exist in the package.

``perfbench/spans.py`` replaces module attributes of ``cvconf`` by name
when a run is traced.  A name that a simplification deletes or renames
would otherwise surface only as a failing traced benchmark run.
"""

import importlib.util
from pathlib import Path

import pytest

import cvconf.rates

SPANS = Path(__file__).resolve().parents[1] / "perfbench" / "spans.py"


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
