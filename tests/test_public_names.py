"""Every name ``ringlab`` exports is named elsewhere in ``ringlab``.

A name that ``__init__.py`` exports and that no module of the package names
outside its own definition serves only the tests: it leaves the public API,
or it sits in ``ALLOWED`` with the reason it stays.  An allowance goes as soon
as its name stops being exported or gains a caller."""

import ast
from pathlib import Path

import ringlab

PACKAGE = Path(ringlab.__file__).parent

ALLOWED = {
    "ext": "benchmarks/layers.py patches it by name",
    "substitute": "benchmarks/layers.py patches it by name",
    "tor": "ROADMAP item 1 gives it a caller in its table",
    "fiber_product_presentation": "ROADMAP item 1 gives it a caller",
    "dual_module": "the acceptance test of biduality calls it",
}


def _export_problems(init: str, sources: dict[str, str], allowed) -> list[str]:
    """What is wrong with the exports of ``init`` (the source of
    ``__init__.py``) given the package's other ``sources`` (file name to
    source text): each uncalled export outside ``allowed``, and each
    allowance that is not exported or has a caller."""
    exports = [
        alias.asname or alias.name
        for node in ast.parse(init).body
        if isinstance(node, ast.ImportFrom)
        for alias in node.names
    ]
    definitions = {}
    names = []
    for path, source in sources.items():
        tree = ast.parse(source)
        for node in tree.body:
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                definitions[node.name] = (path, node.lineno, node.end_lineno)
        for node in ast.walk(tree):
            if isinstance(node, ast.Name):
                names.append((path, node.id, node.lineno))
            elif isinstance(node, ast.Attribute):
                names.append((path, node.attr, node.lineno))

    def called(name):
        path, first, last = definitions.get(name, (None, 0, -1))
        return any(n == name and not (p == path and first <= line <= last) for p, n, line in names)

    uncalled = [name for name in exports if not called(name)]
    return [f"uncalled export: {name}" for name in uncalled if name not in allowed] + [
        f"stale allowance: {name}" for name in allowed if name not in uncalled
    ]


def test_every_export_is_called_or_allowed():
    sources = {p.name: p.read_text() for p in sorted(PACKAGE.glob("*.py")) if p.name != "__init__.py"}
    assert _export_problems((PACKAGE / "__init__.py").read_text(), sources, ALLOWED) == []


def test_the_guard_sees_an_uncalled_export():
    init = "from .m import used, Self, planted\n"
    source = (
        "def used():\n    return 1\n"
        "class Self:\n    def again(self):\n        return Self()\n"
        "def planted(n):\n    return planted(n - 1) if n else used()\n"
    )
    assert _export_problems(init, {"m.py": source}, {}) == [
        "uncalled export: Self",
        "uncalled export: planted",
    ]


def test_the_guard_sees_a_stale_allowance():
    init = "from .m import used, kept\n"
    source = "def used():\n    return 1\ndef kept():\n    return used()\n"
    allowed = {"kept": "waits for a caller", "used": "gained a caller", "gone": "no longer exported"}
    assert _export_problems(init, {"m.py": source}, allowed) == [
        "stale allowance: used",
        "stale allowance: gone",
    ]
