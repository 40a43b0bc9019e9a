"""The suite itself: no test module defines a test name twice.

Python keeps only the last top-level ``def`` of a name, so an earlier test of
the same name is silently never collected.
"""

import ast
from collections import Counter
from pathlib import Path

TESTS = Path(__file__).resolve().parent


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
