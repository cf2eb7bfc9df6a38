"""Every private function or method of ``ringlab`` has a caller in ``ringlab``,
and so has every public method or property of its classes.

A ``_``-prefixed function or method (dunders aside) that nothing in the
package names outside its own body is dead code: its last caller is gone.  A
public method or property of a ``ringlab`` class is held to the same rule,
unless ``ALLOWED_METHODS`` gives the reason it stays; an allowance goes as
soon as its method gains a caller.  The match is by name, so a method whose
name another attribute or function shares counts as called."""

import ast
from pathlib import Path

import ringlab

SOURCES = sorted(Path(ringlab.__file__).parent.glob("*.py"))

ALLOWED_METHODS = {
    "Matrix.apply": "benchmarks/layers.py patches it by name",
    "Matrix.rref": "benchmarks/layers.py patches it by name",
    "Matrix.kernel_basis": "benchmarks/layers.py patches it by name",
    "Matrix.solve": "benchmarks/layers.py patches it by name",
    "_Scan.reduced_betti": "ROADMAP item 7 gives it a caller",
}


def _uncalled(sources: dict[str, str], picked) -> list[tuple]:
    """(file, class or None, name) of each function or method defined in
    ``sources`` (file name to source text) that ``picked(class, name)``
    selects and that is named nowhere but inside its own definition; class
    is the class whose body defines it directly."""
    definitions = []
    names = []
    for path, source in sources.items():
        tree = ast.parse(source)
        owner = {id(f): c.name for c in ast.walk(tree) if isinstance(c, ast.ClassDef) for f in c.body}
        for node in ast.walk(tree):
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                if picked(owner.get(id(node)), node.name):
                    definitions.append((path, owner.get(id(node)), node.name, node.lineno, node.end_lineno))
            elif isinstance(node, ast.Name):
                names.append((path, node.id, node.lineno))
            elif isinstance(node, ast.Attribute):
                names.append((path, node.attr, node.lineno))

    def named_outside(path, name, first, last):
        return any(n == name and not (p == path and first <= line <= last) for p, n, line in names)

    return [(path, cls, name) for path, cls, name, first, last in definitions if not named_outside(path, name, first, last)]


def _uncalled_helpers(sources: dict[str, str]) -> list[str]:
    """``file:name`` of each private helper that nothing else names."""
    private = _uncalled(sources, lambda cls, name: name.startswith("_") and not name.endswith("__"))
    return [f"{path}:{name}" for path, _, name in private]


def _method_problems(sources: dict[str, str], allowed) -> list[str]:
    """Each public method that nothing else names and ``allowed`` does not
    list, as ``Class.name``, and each allowance that names no such method."""
    uncalled = [f"{cls}.{name}" for _, cls, name in _uncalled(sources, lambda cls, name: cls and name[0] != "_")]
    return [f"uncalled method: {m}" for m in uncalled if m not in allowed] + [
        f"stale allowance: {m}" for m in allowed if m not in uncalled
    ]


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


def test_every_public_method_is_called_or_allowed():
    assert _method_problems({p.name: p.read_text() for p in SOURCES}, ALLOWED_METHODS) == []


def test_the_guard_sees_an_uncalled_method():
    source = (
        "def helper(c):\n    return c.used() + c.size\n"
        "class C:\n    def used(self):\n        return self.planted() if False else 1\n"
        "    @property\n    def size(self):\n        return 2\n"
        "    def again(self, n):\n        return self.again(n - 1) if n else 0\n"
        "    def planted(self):\n        return 3\n"
        "    def __repr__(self):\n        return 'C'\n"
        "    def _private(self):\n        return self._private()\n"
    )
    # planted is named by used, outside its own body; again only by itself
    assert _method_problems({"m.py": source}, {}) == ["uncalled method: C.again"]
    assert _method_problems({"m.py": source.replace("self.planted()", "0")}, {}) == [
        "uncalled method: C.again",
        "uncalled method: C.planted",
    ]


def test_the_guard_sees_a_stale_allowance():
    source = "class C:\n    def used(self):\n        return 1\n    def kept(self):\n        return self.used()\n"
    allowed = {"C.kept": "waits for a caller", "C.used": "gained a caller", "C.gone": "no longer defined"}
    assert _method_problems({"m.py": source}, allowed) == ["stale allowance: C.used", "stale allowance: C.gone"]
