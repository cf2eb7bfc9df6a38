"""Every private function or method of ``ringlab`` has a caller in ``ringlab``.

A ``_``-prefixed function or method (dunders aside) that nothing in the
package names outside its own body is dead code: its last caller is gone."""

import ast
from pathlib import Path

import ringlab

SOURCES = sorted(Path(ringlab.__file__).parent.glob("*.py"))


def _uncalled_helpers(sources: dict[str, str]) -> list[str]:
    """``file:name`` of each private helper defined in ``sources`` (file name
    to source text) that is named nowhere but inside its own definition."""
    helpers = []
    names = []
    for path, source in sources.items():
        for node in ast.walk(ast.parse(source)):
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                if node.name.startswith("_") and not node.name.endswith("__"):
                    helpers.append((path, node.name, node.lineno, node.end_lineno))
            elif isinstance(node, ast.Name):
                names.append((path, node.id, node.lineno))
            elif isinstance(node, ast.Attribute):
                names.append((path, node.attr, node.lineno))

    def named_outside(path, name, first, last):
        return any(n == name and not (p == path and first <= line <= last) for p, n, line in names)

    return [f"{path}:{name}" for path, name, first, last in helpers if not named_outside(path, name, first, last)]


def test_every_private_helper_is_called():
    assert _uncalled_helpers({p.name: p.read_text() for p in SOURCES}) == []


def test_the_guard_sees_an_uncalled_helper():
    source = (
        "def _used():\n    return 1\n"
        "def _self_only(n):\n    return _self_only(n - 1) if n else 0\n"
        "class C:\n    def __init__(self):\n        self.x = _used()\n"
        "    def _method(self):\n        return self._other()\n"
        "    def _other(self):\n        return 2\n"
    )
    assert _uncalled_helpers({"m.py": source}) == ["m.py:_self_only", "m.py:_method"]
