"""Every imported name is read by the module that imports it.

No linter runs over this repository, so an import left behind when its
last use goes away would otherwise stay unnoticed.  The scan covers the
package, the tests, the demos and the benchmark; a name listed in a
module's __all__ counts as read, since re-exporting it is its use.  The
scan only reads the files.
"""

import ast
import os

import pytest

ROOT = os.path.join(os.path.dirname(__file__), os.pardir)
SCANNED = ("src", "tests", "demos", "perfbench")


def _python_files():
    for top in SCANNED:
        for folder, _, names in os.walk(os.path.join(ROOT, top)):
            for name in sorted(names):
                if name.endswith(".py"):
                    yield os.path.relpath(os.path.join(folder, name), ROOT)


def unused_imports(source: str) -> list:
    """The names source imports and never reads, in import order."""
    tree = ast.parse(source)
    imported = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            imported += [(a.asname or a.name).split(".")[0] for a in node.names]
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            imported += [a.asname or a.name for a in node.names]
    read = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(
            isinstance(target, ast.Name) and target.id == "__all__"
            for target in node.targets
        ):
            read |= set(ast.literal_eval(node.value))
    return [name for name in imported if name not in read]


def test_scan_flags_an_unread_import():
    source = "import os\nimport sys\nfrom a import b, c as d\n__all__ = ['d']\nsys\n"
    assert unused_imports(source) == ["os", "b"]


@pytest.mark.parametrize("path", sorted(_python_files()))
def test_no_unused_imports(path):
    with open(os.path.join(ROOT, path)) as handle:
        assert unused_imports(handle.read()) == []
