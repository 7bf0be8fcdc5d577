"""Every name a package module imports is read somewhere in that module, and
every public definition of the package is read somewhere in the package or
in the benchmark harness: as an attribute anywhere, as a bare name only
where it is defined or imported by name.  The package has one exception
type."""

import ast
import builtins
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
MODULES = sorted((ROOT / "src" / "photonguide").glob("*.py"))
BENCHMARK = sorted((ROOT / "perfbench").rglob("*.py"))

# No caller yet: ROADMAP item 4 gives scalar_product one in verify.
UNREAD_EXEMPT = ["scalar_product"]

# The parameters and dataclass fields of the package that may have a default,
# each because a program caller relies on it or two values are in use.  Every
# other setting is passed by its callers: verify's seed, step and weight term
# come from the CLI parser alone, and each suite fixes its own sizes.
DEFAULTS = {
    "cli._add_common:default_format": "verify prints text by default (None), every other command csv",
    "cli.main:argv": "the console script and python -m photonguide read sys.argv",
    "position_operator.Scheme:order": "verify's commutator checks take order 4, every other scheme order 2",
    "position_operator.eigenvalue_residual:kind": "verify's eigenvalue check uses the vector family",
    "position_operator.eigenvalue_residual:include_weight_term": "the point_calls benchmark keeps the weight term",
    "position_operator.connection_identity_residual:helicities": "verify's missing-sector control drops lam = 0",
    "verify.CheckResult:direction": "negative controls pass above their tolerance, every other check below",
    "waveguide_kinematics.decompose:azimuth": "verify's tunneling check decomposes at azimuth 0",
    "waveguide_kinematics.klein_gordon_residual:azimuth": "cmd_dispersion takes the residual at azimuth 0",
}


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


def imported_roots(source: str) -> set[str]:
    """The top-level packages that import statements at any depth read from;
    a relative import counts as none."""
    roots = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Import):
            roots.update(alias.name.split(".")[0] for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and not node.level:
            roots.add(node.module.split(".")[0])
    return roots


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


def defaults(tree: ast.Module, module: str) -> list[str]:
    """``module.function:parameter`` for every parameter with a default, at
    any depth, and ``module.Class:field`` for every annotated class field
    with a value, as a dataclass declares a field with a default."""
    found = []

    def visit(node, prefix):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, ast.FunctionDef):
                args = child.args
                positional = args.posonlyargs + args.args
                named = positional[len(positional) - len(args.defaults):]
                named += [arg for arg, default in zip(args.kwonlyargs, args.kw_defaults) if default is not None]
                found.extend(f"{module}.{prefix}{child.name}:{arg.arg}" for arg in named)
                visit(child, f"{prefix}{child.name}.")
            elif isinstance(child, ast.ClassDef):
                found.extend(f"{module}.{prefix}{child.name}:{item.target.id}" for item in child.body
                             if isinstance(item, ast.AnnAssign) and item.value is not None)
                visit(child, f"{prefix}{child.name}.")
            else:
                visit(child, prefix)

    visit(tree, "")
    return found


def test_finds_an_unused_import():
    source = ("from __future__ import annotations\nimport os.path\nimport numpy as np\n"
              "from a import b, c\nos.sep; c()\n")
    assert unused_imports(source) == ["b", "np"]


@pytest.mark.parametrize("path", MODULES, ids=lambda path: path.name)
def test_no_unused_imports(path):
    assert unused_imports(path.read_text()) == []


def test_finds_an_import_at_any_depth():
    source = ("import numpy as np\nfrom . import cli\nfrom .errors import E\n"
              "def f():\n    import scipy.sparse as sp\n    from os.path import join\n")
    assert imported_roots(source) == {"numpy", "scipy", "os"}


def test_only_the_fock_layer_imports_scipy():
    # The Fock layer owns the sparse format; every other module, verify's
    # fock suite included, goes through it.
    assert [path.name for path in MODULES if "scipy" in imported_roots(path.read_text())] == \
        ["second_quantization.py"]


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


def test_finds_every_default():
    source = ("from dataclasses import dataclass\n@dataclass\nclass C:\n    a: int\n    b: int = 2\n"
              "    def m(self, x, y=1, *, z, w=3): pass\n"
              "def f(p, /, q=0, *rest, **named):\n    def g(r=None): pass\n")
    assert defaults(ast.parse(source), "mod") == ["mod.C:b", "mod.C.m:y", "mod.C.m:w", "mod.f:q", "mod.f.g:r"]


def test_only_the_listed_defaults():
    # A default that only tests reach is an option with one value in use.
    found = [name for path in MODULES for name in defaults(ast.parse(path.read_text()), path.stem)]
    assert sorted(found) == sorted(DEFAULTS)


# The k-space modules contract through momentum_basis._dot: an @ there hands
# a small product to the BLAS kernel, whose rounding differs between CPUs.
K_SPACE = ["dirac_like.py", "momentum_basis.py", "position_operator.py"]


def matmuls(source: str) -> int:
    """The number of @ operators in source, @= included."""
    return sum(isinstance(node, (ast.BinOp, ast.AugAssign)) and isinstance(node.op, ast.MatMult)
               for node in ast.walk(ast.parse(source)))


def test_finds_every_matmul():
    assert matmuls("a @ b\nc = (a @ b) @ c\nc @= d\nd * e\nnp.matmul(a, b)\n") == 4


@pytest.mark.parametrize("name", K_SPACE)
def test_no_matmul_in_the_k_space_modules(name):
    assert matmuls((ROOT / "src" / "photonguide" / name).read_text()) == 0


BUILTIN_EXCEPTIONS = {name for name, value in vars(builtins).items()
                      if isinstance(value, type) and issubclass(value, BaseException)}


def exception_classes(package: dict[str, str]) -> list[str]:
    """module.Class(bases) for each class of the package derived, at any
    depth, from a built-in exception; a base is matched by its name, or by
    the last attribute of a dotted one."""
    classes = {(module, node.name): [base.id if isinstance(base, ast.Name) else base.attr
                                     for base in node.bases if isinstance(base, (ast.Name, ast.Attribute))]
               for module, source in package.items()
               for node in ast.walk(ast.parse(source)) if isinstance(node, ast.ClassDef)}
    derived = set(BUILTIN_EXCEPTIONS)
    for _ in classes:
        derived |= {name for (_, name), bases in classes.items() if derived.intersection(bases)}
    return sorted(f"{module}.{name}({', '.join(bases)})"
                  for (module, name), bases in classes.items() if derived.intersection(bases))


def test_finds_every_exception_class():
    package = {"a": "class E(ValueError): pass\nclass F(E): pass\nclass G: pass\n",
               "b": "import builtins\nfrom .a import F, G\nclass H(F): pass\nclass I(G, builtins.KeyError): pass\n"
                    "class J(G): pass\ndef f():\n    class K(Warning): pass\n"}
    assert exception_classes(package) == ["a.E(ValueError)", "a.F(E)", "b.H(F)", "b.I(G, KeyError)", "b.K(Warning)"]


def test_one_error_type():
    # The CLI maps PhotonGuideError to exit 2 and tells errors apart by their
    # messages, so a subclass would be a name that no caller reads.
    errors = (ROOT / "src" / "photonguide" / "errors.py").read_text()
    assert [node.name for node in ast.walk(ast.parse(errors)) if isinstance(node, ast.ClassDef)] == \
        ["PhotonGuideError"]
    package = {path.stem: path.read_text() for path in MODULES}
    assert exception_classes(package) == ["errors.PhotonGuideError(ValueError)"]
