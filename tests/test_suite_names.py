"""The suite itself: no test module defines a test name twice, no module
of the suite or the package imports a name it never reads, no module of
the package keeps a container at module level, and none reaches
``numpy.linalg`` or forms a complex float.

Python keeps only the last top-level ``def`` of a name, so an earlier test of
the same name is silently never collected.  A module-level dict, list or set
is shared by every run in the process: the benchmark runs many operations in
one process, so a cache kept there would carry work from one into the next.
Per-run caches live on per-run objects.  Every split and class the package
reads is exact, so a float eigensolve or SVD in it is a route no certificate
covers, and a complex float is a value no exact check reads; the tests'
float oracle and the complex values of a CycArray live in
``float_reference``.
"""

import ast
from collections import Counter
from pathlib import Path

TESTS = Path(__file__).resolve().parent
SOURCES = TESTS.parent / "src" / "cotwist"


def test_no_shadowed_test_functions():
    shadowed = {}
    for path in sorted(TESTS.glob("*.py")):
        tree = ast.parse(path.read_text(), filename=str(path))
        names = Counter(node.name for node in tree.body
                        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef))
                        and node.name.startswith("test_"))
        repeated = sorted(name for name, count in names.items() if count > 1)
        if repeated:
            shadowed[path.name] = repeated
    assert shadowed == {}


def unused_imports(tree: ast.Module) -> list[str]:
    """Names bound by an import that no expression reads and ``__all__`` does not list."""
    imported = {alias.asname or alias.name.split(".")[0]
                for node in ast.walk(tree) if isinstance(node, (ast.Import, ast.ImportFrom))
                and getattr(node, "module", None) != "__future__" for alias in node.names}
    read = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    exported = {element.value for node in tree.body if isinstance(node, ast.Assign)
                and any(isinstance(target, ast.Name) and target.id == "__all__"
                        for target in node.targets)
                for element in node.value.elts}
    return sorted(imported - read - exported)


def test_no_unused_imports():
    unused = {}
    for path in sorted([*TESTS.glob("*.py"), *SOURCES.glob("*.py")]):
        names = unused_imports(ast.parse(path.read_text(), filename=str(path)))
        if names:
            unused[path.name] = names
    assert unused == {}


#: node types and factory names whose value is a mutable container
CONTAINER_NODES = (ast.Dict, ast.List, ast.Set, ast.DictComp, ast.ListComp, ast.SetComp)
CONTAINER_FACTORIES = {"dict", "list", "set", "defaultdict"}


def module_level_containers(tree: ast.Module) -> list[str]:
    """Names a module binds at its top level to a dict, list, set or defaultdict,
    ``__all__`` excepted."""
    bound = []
    for node in tree.body:
        if isinstance(node, ast.Assign):
            targets, value = node.targets, node.value
        elif isinstance(node, ast.AnnAssign) and node.value is not None:
            targets, value = [node.target], node.value
        else:
            continue
        func = value.func if isinstance(value, ast.Call) else None
        factory = getattr(func, "id", None) or getattr(func, "attr", None)
        if isinstance(value, CONTAINER_NODES) or factory in CONTAINER_FACTORIES:
            bound += [name for name in map(ast.unparse, targets) if name != "__all__"]
    return bound


def test_no_module_level_state():
    sample = ("A = {}\nB: list[int] = []\nC = collections.defaultdict(list)\n"
              "D = set()\n__all__ = ['A']\nE = (1, 2)\n")
    assert module_level_containers(ast.parse(sample)) == ["A", "B", "C", "D"]
    found = {}
    for path in sorted(SOURCES.glob("*.py")):
        names = module_level_containers(ast.parse(path.read_text(), filename=str(path)))
        if names:
            found[path.name] = names
    assert found == {}


def linalg_uses(tree: ast.Module) -> list[str]:
    """Imports of ``numpy.linalg`` or of a name from it, and reads of a ``.linalg`` attribute."""
    found = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            found += [alias.name for alias in node.names if "linalg" in alias.name.split(".")]
        elif isinstance(node, ast.ImportFrom) and (
                "linalg" in (node.module or "").split(".")
                or any(alias.name == "linalg" for alias in node.names)):
            found.append(f"from {node.module} import")
        elif isinstance(node, ast.Attribute) and node.attr == "linalg":
            found.append(ast.unparse(node))
    return found


def test_package_runs_no_linalg():
    sample = ("import numpy.linalg\nfrom numpy import linalg\nfrom numpy.linalg import svd\n"
              "x = np.linalg.eig(a)\ny = np.dot(a, b)\n")
    assert linalg_uses(ast.parse(sample)) == ["numpy.linalg", "from numpy import",
                                              "from numpy.linalg import", "np.linalg"]
    found = {}
    for path in sorted(SOURCES.glob("*.py")):
        uses = linalg_uses(ast.parse(path.read_text(), filename=str(path)))
        if uses:
            found[path.name] = uses
    assert found == {}


def complex_uses(tree: ast.Module) -> list[str]:
    """Imaginary literals, and names or attributes that start with ``complex``."""
    return [ast.unparse(node) for node in ast.walk(tree)
            if isinstance(node, ast.Constant) and isinstance(node.value, complex)
            or isinstance(node, ast.Name) and node.id.startswith("complex")
            or isinstance(node, ast.Attribute) and node.attr.startswith("complex")]


def test_package_forms_no_complex_float():
    sample = "z = np.exp(2j * x)\nw = complex(1, 2)\nv = a.astype(np.complex128)\nu = 2.0\n"
    assert sorted(complex_uses(ast.parse(sample))) == ["2j", "complex", "np.complex128"]
    found = {}
    for path in sorted(SOURCES.glob("*.py")):
        uses = complex_uses(ast.parse(path.read_text(), filename=str(path)))
        if uses:
            found[path.name] = uses
    assert found == {}
