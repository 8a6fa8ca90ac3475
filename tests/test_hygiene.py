"""Source-level rules for the library package."""

from __future__ import annotations

import ast
import json
import os
import subprocess
import sys
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


def test_no_scipy_imports():
    # numpy and the standard library are the only runtime dependencies;
    # scipy serves the tests as an oracle.
    assert SOURCES
    found = []
    for path, node in _nodes():
        if isinstance(node, ast.Import):
            modules = [alias.name for alias in node.names]
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            modules = [node.module]
        else:
            continue
        found += [f"{path.name}:{node.lineno} {m}" for m in modules if m.split(".")[0] == "scipy"]
    assert not found, f"scipy imported by library code: {found}"


def test_cli_query_loads_no_scipy():
    # A fresh interpreter, so nothing the test session imported counts.
    script = (
        "import json, sys\n"
        "from fracqsl.cli import main\n"
        "code = main(['ml', '-1.5', '--beta', '0.8'])\n"
        "print(json.dumps([code, sorted(m for m in sys.modules if m.split('.')[0] == 'scipy')]))\n"
    )
    env = dict(os.environ)
    src = str(Path(fracqsl.__file__).parent.parent)
    env["PYTHONPATH"] = os.pathsep.join(p for p in (src, env.get("PYTHONPATH")) if p)
    proc = subprocess.run(
        [sys.executable, "-c", script], capture_output=True, text=True, timeout=120, env=env
    )
    assert proc.returncode == 0, proc.stderr
    code, loaded = json.loads(proc.stdout.strip().splitlines()[-1])
    assert code == 0
    assert not loaded, f"scipy modules loaded by a CLI query: {loaded[:10]}"


def test_batch_kernel_shares_no_code_with_the_scalar_contour():
    # ``ml_linear_batch`` has its own window contours; ``ml_global``'s
    # contour is the route the batch is checked against, so nothing the
    # batch calls, directly or through a helper, may reach it.
    mlfun = next(p for p in SOURCES if p.name == "mlfun.py")
    functions = {
        node.name: node
        for node in ast.parse(mlfun.read_text(encoding="utf-8")).body
        if isinstance(node, ast.FunctionDef)
    }
    reached, todo = set(), ["ml_linear_batch"]
    while todo:
        name = todo.pop()
        if name in reached:
            continue
        reached.add(name)
        todo += [
            node.id
            for node in ast.walk(functions[name])
            if isinstance(node, ast.Name) and node.id in functions
        ]
    assert {"_window_contour", "_node_exponentials", "_residue_factor"} <= reached
    assert "_ml_contour" not in reached
    assert "ml_global" not in reached


def test_order_check_has_one_home():
    # The order is the one parameter every layer takes; its test lives in
    # ``mlfun.check_order`` alone, so the layers cannot drift apart again.
    mlfun = next(p for p in SOURCES if p.name == "mlfun.py")
    checks = [
        node
        for node in ast.parse(mlfun.read_text(encoding="utf-8")).body
        if isinstance(node, ast.FunctionDef) and node.name == "check_order"
    ]
    assert len(checks) == 1, "mlfun defines no check_order"
    home = {("mlfun.py", node.lineno) for node in ast.walk(checks[0]) if isinstance(node, ast.Raise)}
    found = set()
    for path, node in _nodes():
        if isinstance(node, ast.Raise):
            exc = node.exc.func if isinstance(node.exc, ast.Call) else node.exc
            if isinstance(exc, ast.Name) and exc.id == "InvalidOrder":
                found.add((path.name, node.lineno))
    assert home
    strays = sorted(f"{name}:{line}" for name, line in found - home)
    assert not strays, f"InvalidOrder raised outside mlfun.check_order: {strays}"
