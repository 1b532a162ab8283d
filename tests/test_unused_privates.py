"""Every module-level private name of the package is read by the package.

A helper, class or constant whose name starts with one underscore is
the package's own, so when no module of src/ reads it any more it is
dead code, whatever the tests still call.  The scan parses the package
with ast and never imports it.  A name counts as read where any other
top-level statement of any package module loads it, as a plain name or
as an attribute; a helper that only calls itself is not read.
"""

import ast
import os

PACKAGE = os.path.join(os.path.dirname(__file__), os.pardir, "src", "regionopt")


def _is_private(name: str) -> bool:
    return name.startswith("_") and not name.endswith("__")


def _defined(statement) -> list:
    """The private names a top-level statement defines."""
    if isinstance(statement, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
        names = [statement.name]
    elif isinstance(statement, ast.Assign):
        names = [t.id for t in statement.targets if isinstance(t, ast.Name)]
    elif isinstance(statement, ast.AnnAssign) and isinstance(statement.target, ast.Name):
        names = [statement.target.id]
    else:
        names = []
    return [name for name in names if _is_private(name)]


def _loaded(statement) -> set:
    """The names a statement loads, as plain names or attributes."""
    loaded = set()
    for node in ast.walk(statement):
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            loaded.add(node.id)
        elif isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
            loaded.add(node.attr)
    return loaded


def unread_privates(sources: dict) -> list:
    """(module, name) of each module-level private name that no other
    top-level statement of the modules in sources (module -> text) reads."""
    statements = [
        (module, statement, _loaded(statement))
        for module, text in sorted(sources.items())
        for statement in ast.parse(text).body
    ]
    return [
        (module, name)
        for module, statement, _ in statements
        for name in _defined(statement)
        if not any(
            name in loaded for _, other, loaded in statements if other is not statement
        )
    ]


def _package_sources() -> dict:
    sources = {}
    for name in sorted(os.listdir(PACKAGE)):
        if name.endswith(".py"):
            with open(os.path.join(PACKAGE, name)) as handle:
                sources[name] = handle.read()
    return sources


def test_scan_flags_an_unread_private():
    sources = {
        "a.py": "_used = 1\n_dead = 2\ndef _self(n):\n    return _self(n)\n",
        "b.py": "from a import _used\nclass _Kept:\n    pass\nx = _used, _Kept\n",
    }
    assert unread_privates(sources) == [("a.py", "_dead"), ("a.py", "_self")]


def test_every_private_name_is_read_by_the_package():
    sources = _package_sources()
    assert any(_defined(s) for text in sources.values() for s in ast.parse(text).body)
    assert unread_privates(sources) == []
