#!/usr/bin/env python3
"""Count the lines of the package's sources by kind.

Every line of each file under src/irsbandit falls in exactly one kind:
  - docstring: a line of a module, class or function docstring, found with
    ast (from its first line to its last, blank lines inside it included);
  - comment: any other line whose only token is a comment, found with
    tokenize;
  - blank: any other line holding only whitespace;
  - code: every other line, a code line with a trailing comment included.
It prints total, code, docstring, comment and blank lines for each file and
then for all of them. Only the standard library is used. It is not part of
the test suite.

Usage:
    python scripts/src_lines.py [package directory]
"""

import ast
import io
import sys
import tokenize
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
KINDS = ("code", "docstring", "comment", "blank")
SCOPES = (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)


def _docstring_lines(tree: ast.Module) -> set[int]:
    """The 1-based line numbers that the docstrings of tree span."""
    lines = set()
    for node in ast.walk(tree):
        if isinstance(node, SCOPES) and node.body:
            first = node.body[0]
            if (
                isinstance(first, ast.Expr)
                and isinstance(first.value, ast.Constant)
                and isinstance(first.value.value, str)
            ):
                lines.update(range(first.lineno, first.end_lineno + 1))
    return lines


def count(text: str) -> dict[str, int]:
    """The number of lines of text of each kind, and in all."""
    lines = text.splitlines()
    docstring = _docstring_lines(ast.parse(text))
    comment = {  # lines on which a comment is the first token
        tok.start[0]
        for tok in tokenize.generate_tokens(io.StringIO(text).readline)
        if tok.type == tokenize.COMMENT and not tok.line[: tok.start[1]].strip()
    }
    counts = dict.fromkeys(KINDS, 0)
    for n, line in enumerate(lines, start=1):
        if n in docstring:
            kind = "docstring"
        elif n in comment:
            kind = "comment"
        elif not line.strip():
            kind = "blank"
        else:
            kind = "code"
        counts[kind] += 1
    counts["total"] = len(lines)
    return counts


def main(argv: list[str]) -> int:
    package = Path(argv[0]) if argv else ROOT / "src" / "irsbandit"
    paths = sorted(package.glob("*.py"))
    rows = [(path.name, count(path.read_text(encoding="utf-8"))) for path in paths]
    columns = ("total", *KINDS)
    rows.append(("all", {k: sum(c[k] for _, c in rows) for k in columns}))
    width = max(len(name) for name, _ in rows)
    print(f"{'file':<{width}}  " + "  ".join(f"{k:>9}" for k in columns))
    for name, c in rows:
        print(f"{name:<{width}}  " + "  ".join(f"{c[k]:>9}" for k in columns))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
