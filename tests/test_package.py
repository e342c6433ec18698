import ast
import sys
from pathlib import Path

import pytest

import irsbandit

SOURCES = sorted(Path(irsbandit.__file__).parent.glob("*.py"))
ALLOWED = set(sys.stdlib_module_names) | {"numpy", "irsbandit"}


def _imported(tree: ast.AST) -> set[str]:
    """Top-level names of the modules a source imports; relative imports are the package's."""
    names = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            names.update(alias.name.partition(".")[0] for alias in node.names)
        elif isinstance(node, ast.ImportFrom):
            names.add("irsbandit" if node.level else node.module.partition(".")[0])
    return names


def test_sources_found():
    assert {p.name for p in SOURCES} >= {"channel.py", "config.py", "engine.py"}


@pytest.mark.parametrize("path", SOURCES, ids=lambda p: p.name)
def test_package_imports_only_stdlib_and_numpy(path):
    imported = _imported(ast.parse(path.read_text(encoding="utf-8")))
    assert imported <= ALLOWED, sorted(imported - ALLOWED)
