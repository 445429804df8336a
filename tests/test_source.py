"""Rules that every module of the package keeps."""

import ast
import importlib
from pathlib import Path

import cvconf

SRC = Path(__file__).resolve().parents[1] / "src" / "cvconf"


def test_no_assert_statements():
    """Numerical checks raise errors; ``python -O`` strips assertions."""
    paths = sorted(SRC.glob("*.py"))
    assert paths
    found = [f"{path.name}:{node.lineno}" for path in paths
             for node in ast.walk(ast.parse(path.read_text(encoding="utf-8")))
             if isinstance(node, ast.Assert)]
    assert found == []


def test_every_export_resolves():
    """A deleted or renamed name leaves no stale entry in any ``__all__``."""
    modules = [cvconf] + [importlib.import_module(f"cvconf.{path.stem}")
                          for path in sorted(SRC.glob("*.py")) if path.stem != "__init__"]
    stale = [f"{module.__name__}.{name}" for module in modules
             for name in module.__all__
             if not hasattr(module, name)]
    assert stale == []
