"""Every module reads each name it imports.

The check parses each module of ``src/glasscut/`` and ``tests/`` with
``ast``: a name bound by an ``import`` (other than ``from __future__``)
must be read somewhere in the module, or be listed in its ``__all__``.
It needs nothing beyond the standard library, so it runs wherever the
tests run.
"""

import ast
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
MODULES = sorted((ROOT / "src" / "glasscut").glob("*.py")) + sorted((ROOT / "tests").glob("*.py"))


def unused_imports(source: str) -> list[str]:
    """The names that ``source`` imports and never reads, in import order."""
    tree = ast.parse(source)
    imported: dict[str, int] = {}
    read: set[str] = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                imported[alias.asname or alias.name.partition(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                imported[alias.asname or alias.name] = node.lineno
        elif isinstance(node, ast.Name) and not isinstance(node.ctx, ast.Store):
            read.add(node.id)
        elif (isinstance(node, ast.Assign) and isinstance(node.value, (ast.List, ast.Tuple))
              and any(isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets)):
            read.update(elt.value for elt in node.value.elts if isinstance(elt, ast.Constant))
    return [f"{name} (line {line})" for name, line in imported.items() if name not in read]


def test_the_check_sees_an_unused_import():
    source = ("from __future__ import annotations\n"
              "import os, os.path as osp\nfrom a import b, c as d\n"
              "__all__ = ['d']\nprint(os.sep)\n")
    assert unused_imports(source) == ["osp (line 2)", "b (line 3)"]


@pytest.mark.parametrize("path", MODULES, ids=lambda path: f"{path.parent.name}/{path.name}")
def test_every_imported_name_is_read(path):
    assert unused_imports(path.read_text(encoding="utf-8")) == []
