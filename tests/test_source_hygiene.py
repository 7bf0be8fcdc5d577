"""Every name a package module imports is read somewhere in that module, and
every public definition of the package is read somewhere in the package or
in the benchmark harness: as an attribute anywhere, as a bare name only
where it is defined or imported by name."""

import ast
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
MODULES = sorted((ROOT / "src" / "photonguide").glob("*.py"))
BENCHMARK = sorted((ROOT / "perfbench").rglob("*.py"))

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


def public_definitions(tree: ast.Module) -> list[str]:
    """Public module-level functions and classes, and the public methods of
    those classes as ``Class.method``."""
    names = []
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)) and not node.name.startswith("_"):
            names.append(node.name)
        if isinstance(node, ast.ClassDef):
            names.extend(f"{node.name}.{item.name}" for item in node.body
                         if isinstance(item, ast.FunctionDef) and not item.name.startswith("_"))
    return names


def package_module(node: ast.ImportFrom) -> str | None:
    """The package module a ``from ... import`` reads from, by its last
    dotted part, "photonguide" for the package itself; None outside it."""
    if node.level:
        return (node.module or "photonguide").rpartition(".")[2]
    if node.module and node.module.split(".")[0] == "photonguide":
        return node.module.rpartition(".")[2]
    return None


def reads(tree: ast.Module) -> tuple[set[str], set[str], set[tuple[str, str]]]:
    """The names a file reads as an ast.Name, the names it reads as the
    attribute of an ast.Attribute, and (module, name) for each package name
    it imports by name and reads; a string that spells a name, such as an
    entry of a table of names, is not a read."""
    bare, attrs, imported = set(), set(), {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            bare.add(node.id)
        elif isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
            attrs.add(node.attr)
        elif isinstance(node, ast.ImportFrom) and (module := package_module(node)):
            imported.update({alias.asname or alias.name: (module, alias.name) for alias in node.names})
    return bare, attrs, {source for local, source in imported.items() if local in bare}


def unread_definitions(package: dict[str, str], others: list[str]) -> list[str]:
    """Public definitions of the package modules ({module: source}) that no
    file reads.  An attribute read counts in any file, package or other; a
    bare name only in its defining module or in a file that imports it by
    name from that module."""
    trees = {module: ast.parse(source) for module, source in package.items()}
    own = {module: reads(tree) for module, tree in trees.items()}
    scans = [*own.values(), *(reads(ast.parse(source)) for source in others)]
    attrs = set().union(*(scan[1] for scan in scans))
    imported = set().union(*(scan[2] for scan in scans))
    unread = []
    for module, tree in trees.items():
        for name in public_definitions(tree):
            leaf = name.rsplit(".", 1)[-1]
            if not (leaf in attrs or leaf in own[module][0]
                    or (module, leaf) in imported):
                unread.append(name)
    return unread


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
    assert public_definitions(ast.parse(source)) == ["f", "g", "C", "C.m", "C.n"]
    assert unread_definitions({"a": source}, []) == ["g", "C.n"]


def test_a_bare_name_counts_only_where_it_is_imported():
    # g is a bare name in b, which does not import it: unread.  u is
    # imported from a under another name, w by attribute; v is imported
    # from the package, which does not bind it, and x from the wrong module.
    package = {"a": "def g(): pass\ndef u(): pass\ndef v(): pass\ndef w(): pass\ndef x(): pass\n",
               "b": "g = 1\ng\nfrom .a import u as uu\nuu()\n",
               "c": "from .b import x\nx()\n"}
    others = ["from photonguide import v\nv()\n", "from photonguide import a\na.w()\n"]
    assert unread_definitions(package, others) == ["g", "v", "x"]


def test_every_public_definition_is_read():
    # A public name stays only if the package or the benchmark reaches it.
    package = {path.stem: path.read_text() for path in MODULES}
    assert unread_definitions(package, [path.read_text() for path in BENCHMARK]) == UNREAD_EXEMPT
