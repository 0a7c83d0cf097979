"""Source-level invariants of the package."""

from __future__ import annotations

import ast
import importlib
import pathlib

from sympbw import linalg

SOURCE = pathlib.Path(__file__).resolve().parent.parent / "src" / "sympbw"


def test_no_assert_statements_in_package():
    # `python -O` strips assert statements, so invariants must raise explicitly
    files = sorted(SOURCE.glob("*.py"))
    assert files
    found = [
        f"{path.name}:{node.lineno}"
        for path in files
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path)))
        if isinstance(node, ast.Assert)
    ]
    assert found == []


def _literal(path: pathlib.Path, name: str):
    """The literal value assigned to a module-level name, read without importing."""
    for node in ast.parse(path.read_text(), filename=str(path)).body:
        if isinstance(node, ast.Assign) and any(
            isinstance(t, ast.Name) and t.id == name for t in node.targets
        ):
            return ast.literal_eval(node.value)
    raise LookupError(f"{path.name} assigns no {name}")


def test_traced_benchmark_names_resolve():
    # the traced benchmark run wraps these names and crashes on a missing one
    spans = SOURCE.parent.parent / "perfbench" / "spans.py"
    missing = [
        f"sympbw.{layer}.{name}"
        for layer, names in _literal(spans, "TRACED").items()
        for name in names
        if not callable(getattr(importlib.import_module(f"sympbw.{layer}"), name, None))
    ]
    missing += [
        f"sympbw.linalg.IncrementalBasis.{name}"
        for name in _literal(spans, "BASIS_METHODS")
        if name not in vars(linalg.IncrementalBasis)
    ]
    assert missing == []
