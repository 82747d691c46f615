"""Static checks on the package source that no linter on the path enforces.

Invariants must be real errors, since ``python -O`` strips ``assert``; and a
name imported with ``from ... import`` must be used by its module, so that
deleted code does not linger as dead imports.
"""

import ast
import pathlib

import pytest

PACKAGE = pathlib.Path(__file__).resolve().parent.parent / "src" / "qtmac"
MODULES = sorted(PACKAGE.glob("*.py"))


def test_package_found():
    assert any(path.name == "cli.py" for path in MODULES)


@pytest.mark.parametrize("path", MODULES, ids=lambda path: path.name)
def test_no_assert_statements(path):
    tree = ast.parse(path.read_text(), filename=str(path))
    lines = [node.lineno for node in ast.walk(tree)
             if isinstance(node, ast.Assert)]
    assert not lines, f"{path.name}: assert at lines {lines}"


# the package __init__ imports names in order to re-export them
@pytest.mark.parametrize("path", [path for path in MODULES
                                  if path.name != "__init__.py"],
                         ids=lambda path: path.name)
def test_no_unused_from_imports(path):
    tree = ast.parse(path.read_text(), filename=str(path))
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                imported[alias.asname or alias.name] = node.lineno
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    unused = {name: line for name, line in imported.items() if name not in used}
    assert not unused, f"{path.name}: unused imports {unused}"
