"""Every name a ``ringlab`` module imports is used in that module.

``__init__.py`` is left out: its imports are the package's exports."""

import ast
from pathlib import Path

import pytest

import ringlab

MODULES = sorted(p for p in Path(ringlab.__file__).parent.glob("*.py") if p.name != "__init__.py")


def _unused_imports(source: str) -> list[str]:
    tree = ast.parse(source)
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                imported[alias.asname or alias.name.partition(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                imported[alias.asname or alias.name] = node.lineno
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return [f"{name} (line {line})" for name, line in sorted(imported.items()) if name not in used]


@pytest.mark.parametrize("path", MODULES, ids=[p.name for p in MODULES])
def test_every_import_is_used(path):
    assert _unused_imports(path.read_text()) == []


def test_the_guard_sees_an_unused_import():
    source = "from __future__ import annotations\nimport json, os.path\nfrom os import path as p, sep\nx: sep = os.sep\n"
    assert _unused_imports(source) == ["json (line 2)", "p (line 3)"]
