"""Rules that every module of the package keeps."""

import ast
import importlib
from dataclasses import fields
from pathlib import Path

import numpy as np

import cvconf
import cvconf.cli
import cvconf.holevo

SRC = Path(__file__).resolve().parents[1] / "src" / "cvconf"


def test_no_assert_statements():
    """Numerical checks raise errors; ``python -O`` strips assertions."""
    paths = sorted(SRC.glob("*.py"))
    assert paths
    found = [f"{path.name}:{node.lineno}" for path in paths
             for node in ast.walk(ast.parse(path.read_text(encoding="utf-8")))
             if isinstance(node, ast.Assert)]
    assert found == []


def test_no_unused_imports():
    """Every imported name is used or listed in ``__all__``, so a deletion
    leaves no stale import behind.  An import on a line marked
    ``# noqa: F401`` is kept on purpose and skipped."""
    unused = []
    for path in sorted(SRC.glob("*.py")):
        source = path.read_text(encoding="utf-8")
        lines = source.splitlines()
        tree = ast.parse(source)
        used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
        used |= {elt.value for node in tree.body if isinstance(node, ast.Assign)
                 and any(getattr(t, "id", None) == "__all__" for t in node.targets)
                 for elt in node.value.elts}
        for node in ast.walk(tree):
            if not isinstance(node, (ast.Import, ast.ImportFrom)) or (
                    isinstance(node, ast.ImportFrom) and node.module == "__future__"):
                continue
            if any("# noqa: F401" in line for line in lines[node.lineno - 1:node.end_lineno]):
                continue
            unused += [f"{path.name}:{node.lineno} {alias.asname or alias.name}"
                       for alias in node.names
                       if (alias.asname or alias.name).split(".")[0] not in used]
    assert unused == []


def test_every_export_resolves():
    """A deleted or renamed name leaves no stale entry in any ``__all__``."""
    modules = [cvconf] + [importlib.import_module(f"cvconf.{path.stem}")
                          for path in sorted(SRC.glob("*.py")) if path.stem != "__init__"]
    stale = [f"{module.__name__}.{name}" for module in modules
             for name in module.__all__
             if not hasattr(module, name)]
    assert stale == []


def _enclosing(tree: ast.Module, node: ast.AST) -> str:
    """Name of the top-level function or class holding ``node``, else "<module>"."""
    for top in tree.body:
        if isinstance(top, (ast.FunctionDef, ast.ClassDef)) and \
                top.lineno <= node.lineno <= top.end_lineno:
            return top.name
    return "<module>"


def test_outcome_model_is_written_once():
    """The outcome likelihood over the sign table, the product with
    ``SIGN_PATTERNS`` transposed, is formed in ``protocol._outcome_exponents``
    alone, and the posterior, the quadrature's joint density and the
    phase-space oracle's density are views of it."""
    formed, callers = [], set()
    for path in sorted(SRC.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        for node in ast.walk(tree):
            if isinstance(node, ast.Attribute) and node.attr == "T" and \
                    isinstance(node.value, ast.Name) and node.value.id == "SIGN_PATTERNS":
                formed.append(f"{path.stem}.{_enclosing(tree, node)}")
            if isinstance(node, ast.Name) and node.id == "_outcome_exponents":
                callers.add(f"{path.stem}.{_enclosing(tree, node)}")
    assert formed == ["protocol._outcome_exponents"]
    assert {"inference.posterior_table_batch", "protocol._joint_density_factors",
            "protocol.outcome_density"} <= callers


def _mentions_tau(node: ast.AST, names: set) -> bool:
    return any(isinstance(sub, ast.Attribute) and sub.attr == "tau" or
               isinstance(sub, ast.Name) and ("tau" in sub.id or sub.id in names)
               for sub in ast.walk(node))


def test_tap_model_is_written_once():
    """The tap's loss 1 - tau, the factor of (1 - tau) * mag**2, is formed in
    ``protocol._tap_exponents`` alone outside the phase-space oracle
    ``gaussian.py`` (a name bound by a loop over the transmissivities counts
    as tau), and the eavesdropper's means and the overlap exponents behind
    every Holevo value are views of it."""
    formed, callers = [], set()
    for path in sorted(SRC.glob("*.py")):
        if path.stem == "gaussian":
            continue
        tree = ast.parse(path.read_text(encoding="utf-8"))
        loop_names = {name.id for node in ast.walk(tree)
                      if isinstance(node, (ast.For, ast.comprehension))
                      and _mentions_tau(node.iter, set())
                      for name in ast.walk(node.target) if isinstance(name, ast.Name)}
        for node in ast.walk(tree):
            if isinstance(node, ast.BinOp) and isinstance(node.op, ast.Sub) and \
                    isinstance(node.left, ast.Constant) and node.left.value == 1 and \
                    _mentions_tau(node.right, loop_names):
                formed.append(f"{path.stem}.{_enclosing(tree, node)}")
            if isinstance(node, ast.Name) and node.id == "_tap_exponents":
                callers.add(f"{path.stem}.{_enclosing(tree, node)}")
    assert formed == ["protocol._tap_exponents"]
    assert {"protocol.eve_conditional_means", "holevo._overlap_exponents"} <= callers


def test_one_node_loop():
    """One tile loop, ``range(0, n, _TILE)`` in ``rates._node_rates``,
    evaluates the nodes of both estimators, and both the Monte-Carlo block
    and the quadrature reduce them through ``rates._weighted_sums``."""
    loops, callers, names = [], set(), set()
    for path in sorted(SRC.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        for node in ast.walk(tree):
            if isinstance(node, ast.Call) and getattr(node.func, "id", None) == "range" and \
                    len(node.args) == 3 and getattr(node.args[0], "value", None) == 0 and \
                    getattr(node.args[2], "id", None) == "_TILE":
                loops.append(f"{path.stem}.{_enclosing(tree, node)}")
            if isinstance(node, ast.Name) and node.id == "_weighted_sums":
                callers.add(f"{path.stem}.{_enclosing(tree, node)}")
            if isinstance(node, (ast.FunctionDef, ast.Name)):
                names.add(getattr(node, "name", None) or node.id)
    assert loops == ["rates._node_rates"]
    assert "_post_selected_rates" not in names
    assert {"rates._mc_block", "rates.quadrature_cross_check"} <= callers


def test_outcome_draw_is_written_once():
    """A normal draw around the outcome mean, a function that both draws
    ``.normal`` and names ``mean_coefficients``, is ``protocol._draw_outcomes``
    alone, so what the Monte-Carlo block and both oracle suites draw is the
    draw side of the likelihood beside it."""
    drawers, callers = set(), set()
    for path in sorted(SRC.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        for top in tree.body:
            if not isinstance(top, ast.FunctionDef):
                continue
            nodes = list(ast.walk(top))
            names = {node.id for node in nodes if isinstance(node, ast.Name)}
            if "mean_coefficients" in names and any(
                    isinstance(node, ast.Call) and getattr(node.func, "attr", None) == "normal"
                    for node in nodes):
                drawers.add(f"{path.stem}.{top.name}")
            if "_draw_outcomes" in names:
                callers.add(f"{path.stem}.{top.name}")
    assert drawers == {"protocol._draw_outcomes"}
    assert {"rates._mc_block", "cli._pipeline_check", "cli._spectrum_check"} <= callers


def test_one_row_evaluation():
    """``rates._rate_terms`` is the one per-row evaluation: in ``rates`` only
    it calls the information terms, the screen and the Holevo core, and the
    node loop ``_node_rates`` calls it."""
    tree = ast.parse((SRC / "rates.py").read_text(encoding="utf-8"))
    callers = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Call) and isinstance(node.func, ast.Name):
            callers.setdefault(node.func.id, set()).add(_enclosing(tree, node))
    for name in ("_information_terms", "_own_tap_holevo_with_bound", "_screened",
                 "_holevo_with_bound"):
        assert callers.get(name) == {"_rate_terms"}, name
    assert "_node_rates" in callers["_rate_terms"]


def test_monte_carlo_block_runs_the_node_loop():
    """The Monte-Carlo block evaluates its rows through the screened node
    loop ``rates._node_rates`` at stride ``_SUBSAMPLE``, and never through the
    full-chi oracle ``certified_rates``."""
    tree = ast.parse((SRC / "rates.py").read_text(encoding="utf-8"))
    block = next(node for node in tree.body
                 if isinstance(node, ast.FunctionDef) and node.name == "_mc_block")
    names = {node.id for node in ast.walk(block) if isinstance(node, ast.Name)}
    assert {"_node_rates", "_SUBSAMPLE"} <= names
    assert "certified_rates" not in names
    assert "_rate_terms" not in names


def test_parity_sums_are_one_butterfly():
    """``holevo._parity_sums`` takes the weights alone and branches on
    nothing, so both state sizes go through one butterfly, and no rule in
    ``holevo._RULES`` carries a sign table."""
    tree = ast.parse((SRC / "holevo.py").read_text(encoding="utf-8"))
    function = next(node for node in tree.body
                    if isinstance(node, ast.FunctionDef) and node.name == "_parity_sums")
    assert [arg.arg for arg in function.args.args] == ["weights"]
    assert not [node for node in ast.walk(function) if isinstance(node, (ast.If, ast.IfExp))]
    for rule in cvconf.holevo._RULES.values():
        assert not [part for part in rule if np.isin(part, (-1.0, 1.0)).all()]


def test_each_cli_key_is_declared_once():
    """Each ``RunConfig`` field carries its parser from text and its help
    line, and ``cli.py`` keeps no second table of the keys: no module-level
    dict literal is keyed by a field name."""
    names = set()
    for key in fields(cvconf.cli.RunConfig):
        assert callable(key.metadata.get("parse")), key.name
        assert isinstance(key.metadata.get("help"), str) and key.metadata["help"].strip(), key.name
        names.add(key.name)
    tree = ast.parse((SRC / "cli.py").read_text(encoding="utf-8"))
    tables = [node.lineno for top in tree.body if isinstance(top, (ast.Assign, ast.AnnAssign))
              for node in ast.walk(top) if isinstance(node, ast.Dict)
              and {getattr(k, "value", None) for k in node.keys} & names]
    assert tables == []
