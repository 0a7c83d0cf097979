"""Source-level invariants of the package."""

from __future__ import annotations

import ast
import pathlib

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
