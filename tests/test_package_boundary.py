"""The package depends only on itself: nothing in ``src/repro`` imports ``tests``.

The reference forms the byte-identity suites compare against live in
``tests/reference.py``, beside the suites.  The dependency runs one way —
tests import the package, never the reverse — so the shipped package
works without the test tree.
"""

import ast
import pathlib

SRC = pathlib.Path(__file__).resolve().parent.parent / "src" / "repro"
SOURCES = sorted(SRC.rglob("*.py"))


def imported_modules(tree: ast.AST) -> list[str]:
    """Every absolute module name an ``import`` or ``from … import`` names."""
    names = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            names += [alias.name for alias in node.names]
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            names.append(node.module)
    return names


def test_package_imports_no_tests():
    assert len(SOURCES) > 10, f"no package sources under {SRC}"
    offending = {}
    for path in SOURCES:
        names = imported_modules(ast.parse(path.read_text(), filename=str(path)))
        hits = [name for name in names if name.split(".")[0] == "tests"]
        if hits:
            offending[str(path.relative_to(SRC))] = hits
    assert not offending, f"package modules import the test tree: {offending}"

