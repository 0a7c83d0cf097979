"""Source-level invariants of the package."""

from __future__ import annotations

import ast
import importlib
import pathlib

from sympbw import linalg

SOURCE = pathlib.Path(__file__).resolve().parent.parent / "src" / "sympbw"


def _raises_assertion_error(node) -> bool:
    exc = node.exc.func if isinstance(node.exc, ast.Call) else node.exc
    return isinstance(exc, ast.Name) and exc.id == "AssertionError"


def test_no_assert_statements_in_package():
    # `python -O` strips assert statements, so invariants must raise explicitly,
    # and with a real error type rather than the one assert statements use
    files = sorted(SOURCE.glob("*.py"))
    assert files
    found = [
        f"{path.name}:{node.lineno}"
        for path in files
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path)))
        if isinstance(node, ast.Assert)
        or isinstance(node, ast.Raise) and node.exc is not None
        and _raises_assertion_error(node)
    ]
    assert found == []


def _inexact(node, filename: str) -> bool:
    """A float or complex literal, a float() call, or a true division `/`
    outside linalg, which holds the package's exact divisions."""
    if isinstance(node, ast.Constant):
        return isinstance(node.value, (float, complex))
    if isinstance(node, ast.Call):
        return isinstance(node.func, ast.Name) and node.func.id == "float"
    if isinstance(node, (ast.BinOp, ast.AugAssign)):
        return isinstance(node.op, ast.Div) and filename != "linalg.py"
    return False


def test_no_float_arithmetic_in_package():
    # every number is an int or a Fraction: `/` on two ints makes a float, so
    # divisions go through linalg.exact_quotient
    files = sorted(SOURCE.glob("*.py"))
    assert files
    found = [
        f"{path.name}:{node.lineno}"
        for path in files
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path)))
        if _inexact(node, path.name)
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


def _module_level_names(tree):
    """(name, defining node) for each module-level def, class or assignment."""
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            names = [node.name]
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            names = [t.id for t in targets if isinstance(t, ast.Name)]
        else:
            continue
        for name in names:
            yield name, node


def _referenced_names(node, skip):
    """Names read by Name, Attribute or import nodes under node, outside skip."""
    for child in ast.walk(node):
        if child in skip:
            continue
        if isinstance(child, ast.Name):
            yield child.id
        elif isinstance(child, ast.Attribute):
            yield child.attr
        elif isinstance(child, ast.alias):
            yield child.name


def _unread(wanted) -> list:
    """The "file:name" of each module-level name that wanted(name, node)
    selects and that nothing in the package reads outside its own
    definition; sympbw/__init__.py reads every name it exports."""
    trees = {
        path.name: ast.parse(path.read_text(), filename=str(path))
        for path in sorted(SOURCE.glob("*.py"))
    }
    assert trees
    unread = []
    for filename, tree in trees.items():
        for name, definition in _module_level_names(tree):
            if not wanted(name, definition):
                continue
            own = set(ast.walk(definition))
            if not any(
                name in _referenced_names(other, own if other is tree else set())
                for other in trees.values()
            ):
                unread.append(f"{filename}:{name}")
    return unread


def test_private_helpers_are_used():
    # a private module-level helper that nothing in the package reads is dead
    assert _unread(
        lambda name, _: name.startswith("_") and not name.startswith("__")
    ) == []


def test_public_helpers_are_used():
    # a public function or class that the package neither reads nor exports
    # serves only the tests, and belongs there
    assert _unread(
        lambda name, node: not name.startswith("_") and isinstance(
            node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef))
    ) == []
