"""Source-level rules for the library package."""

from __future__ import annotations

import ast
from pathlib import Path

import fracqsl

SOURCES = sorted(Path(fracqsl.__file__).parent.glob("*.py"))


def _nodes():
    for path in SOURCES:
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            yield path, node


def test_no_assert_statements():
    # Checks written as assert vanish under ``python -O``; library code
    # raises a typed error instead.
    assert any(p.name == "jcmodel.py" for p in SOURCES)
    found = [f"{path.name}:{node.lineno}" for path, node in _nodes()
             if isinstance(node, ast.Assert)]
    assert not found, f"assert statements in library code: {found}"


def test_no_private_names_from_sibling_modules():
    # A module that needs a sibling's underscore name shares a decision
    # that belongs behind one module's public functions.
    found = [
        f"{path.name}:{node.lineno} {alias.name}"
        for path, node in _nodes()
        if isinstance(node, ast.ImportFrom)
        and (node.level > 0 or (node.module or "").split(".")[0] == "fracqsl")
        for alias in node.names
        if alias.name.startswith("_")
    ]
    assert not found, f"private names imported from sibling modules: {found}"


def test_no_augmented_multiply_in_mlfun():
    # numpy's in-place complex multiply rounds a one-element array
    # differently from a longer one, so an array ``*=`` in the kernel would
    # make a value depend on its batch-mates; write ``x = x * y`` instead.
    mlfun = next(p for p in SOURCES if p.name == "mlfun.py")
    found = [
        f"mlfun.py:{node.lineno}"
        for node in ast.walk(ast.parse(mlfun.read_text(encoding="utf-8")))
        if isinstance(node, ast.AugAssign) and isinstance(node.op, ast.Mult)
    ]
    assert not found, f"augmented multiply in mlfun: {found}"


def test_every_error_class_is_raised():
    # A typed error that nothing raises promises a failure mode the
    # library no longer has; delete the class with its last raiser.
    errors = next(p for p in SOURCES if p.name == "errors.py")
    declared = {
        node.name
        for node in ast.parse(errors.read_text(encoding="utf-8")).body
        if isinstance(node, ast.ClassDef) and node.name != "FracQslError"
    }
    raised = set()
    for _, node in _nodes():
        if isinstance(node, ast.Raise):
            exc = node.exc.func if isinstance(node.exc, ast.Call) else node.exc
            if isinstance(exc, ast.Name):
                raised.add(exc.id)
    assert declared
    assert not declared - raised, f"error classes never raised: {sorted(declared - raised)}"
