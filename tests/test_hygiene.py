"""Source-level rules for the library package."""

from __future__ import annotations

import ast
from pathlib import Path

import fracqsl

SOURCES = sorted(Path(fracqsl.__file__).parent.glob("*.py"))


def test_no_assert_statements():
    # Checks written as assert vanish under ``python -O``; library code
    # raises a typed error instead.
    assert any(p.name == "jcmodel.py" for p in SOURCES)
    found = [
        f"{path.name}:{node.lineno}"
        for path in SOURCES
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8")))
        if isinstance(node, ast.Assert)
    ]
    assert not found, f"assert statements in library code: {found}"
