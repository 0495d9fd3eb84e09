"""Every top-level import of a ``latmech`` module is used.

The project depends on no lint tool, so this parses each module (the
package ``__init__``, which re-exports, aside) and fails on an imported
name that the module never reads.
"""

import ast
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parents[1] / "src" / "latmech"
MODULES = sorted(p for p in SRC.glob("*.py") if p.name != "__init__.py")


def _unused_imports(tree) -> list:
    """``(line, name)`` of each name bound by a top-level import and never
    read in the module; a name listed in ``__all__`` counts as read."""
    bound = {}
    for node in tree.body:
        if isinstance(node, ast.Import):
            for alias in node.names:
                bound[alias.asname or alias.name.split(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                bound[alias.asname or alias.name] = node.lineno
    read = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    for node in tree.body:
        if (isinstance(node, ast.Assign)
                and any(isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets)):
            read.update(elt.value for elt in node.value.elts)
    return sorted((line, name) for name, line in bound.items() if name not in read)


def test_modules_are_found():
    assert [p.name for p in MODULES if p.name == "cli.py"]


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.stem)
def test_no_unused_imports(path):
    assert _unused_imports(ast.parse(path.read_text(), str(path))) == []


def test_unused_import_is_caught():
    tree = ast.parse("from __future__ import annotations\n"
                     "import os, numpy as np\n"
                     "from .a import b, c as d\n"
                     "__all__ = ['b']\n"
                     "def f():\n"
                     "    import sys\n"
                     "    return np.zeros(1)\n")
    assert _unused_imports(tree) == [(2, "os"), (3, "d")]
