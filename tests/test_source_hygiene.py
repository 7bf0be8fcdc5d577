"""Every name a package module imports is read somewhere in that module, and
every public definition of the package is read somewhere in the package or
in the benchmark harness."""

import ast
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
MODULES = sorted((ROOT / "src" / "photonguide").glob("*.py"))
READERS = MODULES + sorted((ROOT / "perfbench").rglob("*.py"))

# No caller yet: ROADMAP item 4 gives scalar_product one in verify.
UNREAD_EXEMPT = ["scalar_product"]


def unused_imports(source: str) -> list[str]:
    """Names bound by import statements that no ast.Name reads; the root of
    an attribute chain such as ``np.linalg.norm`` is such a Name."""
    tree = ast.parse(source)
    imported = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            imported.update(alias.asname or alias.name.split(".")[0] for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            imported.update(alias.asname or alias.name for alias in node.names)
    read = {node.id for node in ast.walk(tree)
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)}
    return sorted(imported - read)


def public_definitions(source: str) -> list[str]:
    """Public module-level functions and classes, and the public methods of
    those classes as ``Class.method``."""
    names = []
    for node in ast.parse(source).body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)) and not node.name.startswith("_"):
            names.append(node.name)
        if isinstance(node, ast.ClassDef):
            names.extend(f"{node.name}.{item.name}" for item in node.body
                         if isinstance(item, ast.FunctionDef) and not item.name.startswith("_"))
    return names


def read_names(source: str) -> set[str]:
    """Every name read as an ast.Name or as the attribute of an ast.Attribute;
    a string such as an entry of ``__init__._MODULE_NAMES`` is not a read."""
    read = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            read.add(node.id)
        elif isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
            read.add(node.attr)
    return read


def test_finds_an_unused_import():
    source = ("from __future__ import annotations\nimport os.path\nimport numpy as np\n"
              "from a import b, c\nos.sep; c()\n")
    assert unused_imports(source) == ["b", "np"]


@pytest.mark.parametrize("path", MODULES, ids=lambda path: path.name)
def test_no_unused_imports(path):
    assert unused_imports(path.read_text()) == []


def test_finds_an_unread_definition():
    source = ("NAMES = ('f', 'g')\ndef f(): pass\ndef g(): pass\ndef _h(): pass\n"
              "class C:\n    def m(self): pass\n    def n(self): pass\n    def _p(self): pass\n"
              "f(); C().m\n")
    assert public_definitions(source) == ["f", "g", "C", "C.m", "C.n"]
    read = read_names(source)
    assert [name for name in public_definitions(source) if name.rsplit(".", 1)[-1] not in read] == ["g", "C.n"]


def test_every_public_definition_is_read():
    # A public name stays only if the package or the benchmark reaches it.
    read = set().union(*(read_names(path.read_text()) for path in READERS))
    unread = [name for path in MODULES for name in public_definitions(path.read_text())
              if name.rsplit(".", 1)[-1] not in read]
    assert unread == UNREAD_EXEMPT
