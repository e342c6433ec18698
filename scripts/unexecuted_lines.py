#!/usr/bin/env python3
"""Statements of the package's functions that no test executes.

Runs the test suite (pytest over tests/, in this process) with a
sys.settrace line tracer that records only code from src/irsbandit, then
prints every statement inside a function body that no line event reached,
one `path:line: source` line each, then their count. A statement counts as
executed when any line of its own extent ran, so a compound statement
whose body ran is never listed, while the statements of a branch that never
ran are each listed. Docstrings, `global` and `nonlocal` compile to no
code and are never listed. The property tests run with
--hypothesis-seed=0 (a later argument overrides it), so a rerun draws the
same examples and lists the same statements. Only the standard library and
pytest are used. It is not part of the suite; a failing test does not stop
it. It exits 1 when it lists any statement and 0 when it lists none, so a
change that adds a branch no test reaches fails it. The sources are read
before the suite runs; when any of them differs afterwards, the recorded
line numbers may not match it, so it lists nothing, says so and exits 2.

Usage:
    python scripts/unexecuted_lines.py [extra pytest arguments]
"""

import ast
import os
import sys
import threading
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "irsbandit"
NO_CODE = (ast.Global, ast.Nonlocal)


def _is_docstring(stmt: ast.stmt) -> bool:
    return (
        isinstance(stmt, ast.Expr)
        and isinstance(stmt.value, ast.Constant)
        and isinstance(stmt.value.value, str)
    )


def _body_statements(stmts):
    """Every statement of a body and of the bodies nested in it, bar nested
    function and class bodies, which are walked as functions of their own."""
    for stmt in stmts:
        yield stmt
        if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            continue
        for field in ("body", "orelse", "finalbody"):
            yield from _body_statements(getattr(stmt, field, []))
        for part in getattr(stmt, "handlers", []) + getattr(stmt, "cases", []):
            yield from _body_statements(part.body)


def function_statements(tree: ast.Module):
    """Every statement in a function body of tree, docstrings and NO_CODE left out."""
    for node in ast.walk(tree):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            body = node.body[1:] if _is_docstring(node.body[0]) else node.body
            for stmt in _body_statements(body):
                if not isinstance(stmt, NO_CODE):
                    yield stmt


def trace_suite(pytest_args) -> dict[str, set[int]]:
    """Run pytest under a line tracer; the lines run in each package file."""
    import pytest

    hit: dict[str, set[int]] = {}
    owner: dict[str, set[int] | None] = {}  # co_filename -> its hit set, None if outside

    def lines_of(filename):
        if filename not in owner:
            path = os.path.abspath(filename)
            inside = Path(path).parent == PACKAGE
            owner[filename] = hit.setdefault(path, set()) if inside else None
        return owner[filename]

    def tracer(frame, event, arg):
        lines = lines_of(frame.f_code.co_filename)
        if lines is None:
            return None

        def local(frame, event, arg):
            if event == "line":
                lines.add(frame.f_lineno)
            return local

        return local

    os.chdir(ROOT)
    sys.path.insert(0, str(ROOT / "src"))
    threading.settrace(tracer)
    sys.settrace(tracer)
    try:
        args = ["-q", "-p", "no:cacheprovider", "--hypothesis-seed=0", str(ROOT / "tests")]
        pytest.main(args + pytest_args)
    finally:
        sys.settrace(None)
        threading.settrace(None)
    return hit


def read_sources() -> dict[Path, str]:
    """The text of every package file, by path."""
    return {path: path.read_text() for path in sorted(PACKAGE.glob("*.py"))}


def main() -> int:
    sources = read_sources()
    hit = trace_suite(sys.argv[1:])
    if read_sources() != sources:
        print("src/irsbandit changed while the suite ran; no statement is listed")
        return 2
    missed = 0
    for path, source in sources.items():
        lines = source.splitlines()
        ran = hit.get(str(path), set())
        stmts = sorted(function_statements(ast.parse(source)), key=lambda s: s.lineno)
        for stmt in stmts:
            if not ran.intersection(range(stmt.lineno, stmt.end_lineno + 1)):
                missed += 1
                name = path.relative_to(ROOT)
                print(f"{name}:{stmt.lineno}: {lines[stmt.lineno - 1].strip()}")
    print(f"{missed} function statements of src/irsbandit never executed")
    return 1 if missed else 0


if __name__ == "__main__":
    sys.exit(main())
