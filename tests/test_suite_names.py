"""The suite itself: no test module defines a test name twice, and no module
of the suite or the package imports a name it never reads.

Python keeps only the last top-level ``def`` of a name, so an earlier test of
the same name is silently never collected.
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
