"""Every name a module imports is used in it, and every private helper of
the package has a reader.

No linter is a dependency of the project, so this reads the modules of the
package (its `__init__` re-exports by design and is left out), the tests
and the demos with `ast`: each name an import binds must appear as a
`Name` node somewhere in the same module.  Each private name (`_name`, not
a dunder) that a package module defines at top level, as a function, class
or constant, must be read as a `Name` or an `Attribute` somewhere in the
package: one only the tests read has outlived its callers.
"""

import ast
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = sorted((ROOT / "src" / "clusterbrick").glob("*.py"))
MODULES = sorted(
    [p for p in PACKAGE if p.name != "__init__.py"]
    + list((ROOT / "tests").glob("*.py")) + list((ROOT / "demos").glob("*.py")))


def unused_imports(source: str) -> list[str]:
    """Names bound by the imports of `source` that no `Name` node reads."""
    tree = ast.parse(source)
    bound = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            bound += [a.asname or a.name.partition(".")[0] for a in node.names]
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            bound += [a.asname or a.name for a in node.names if a.name != "*"]
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return [name for name in bound if name not in used]


def test_the_check_sees_an_unused_import():
    assert unused_imports("import os\nfrom a.b import c as d, e\nimport x.y\ne(x)\n") \
        == ["os", "d"]
    assert unused_imports("from __future__ import annotations\n") == []


@pytest.mark.parametrize("path", MODULES, ids=lambda p: str(p.relative_to(ROOT)))
def test_module_uses_every_import(path):
    assert unused_imports(path.read_text(encoding="utf-8")) == []


def _is_private(name: str) -> bool:
    return name.startswith("_") and not name.endswith("__")


def unread_private_names(sources: list[str]) -> list[str]:
    """Private top-level names of `sources` that no `Name` or `Attribute`
    in any of them reads."""
    defined, read = [], set()
    for source in sources:
        tree = ast.parse(source)
        for node in tree.body:
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                defined.append(node.name)
            elif isinstance(node, (ast.Assign, ast.AnnAssign)):
                targets = node.targets if isinstance(node, ast.Assign) else [node.target]
                defined += [n.id for t in targets for n in ast.walk(t)
                            if isinstance(n, ast.Name)]
        for node in ast.walk(tree):
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                read.add(node.id)
            elif isinstance(node, ast.Attribute):
                read.add(node.attr)
    return [name for name in defined if _is_private(name) and name not in read]


def test_the_check_sees_an_unread_private_name():
    sources = ["_A = 1\n_B: int = 2\n_C, D = 3, 4\n__all__ = []\n"
               "def _f(): pass\nclass _K: pass\ndef g(): return _A\n",
               "import m\nm._f()\n"]
    assert unread_private_names(sources) == ["_B", "_C", "_K"]


def test_every_private_package_name_is_read():
    sources = [p.read_text(encoding="utf-8") for p in PACKAGE]
    assert unread_private_names(sources) == []
