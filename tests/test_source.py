"""Static checks on the package source that no linter on the path enforces.

Invariants must be real errors, since ``python -O`` strips ``assert``; a
name imported with ``from ... import`` must be used by its module, so that
deleted code does not linger as dead imports; and reciprocal parameters are
reached one way, by computing in ``ctx.inverted()``, so no module forks on
the arithmetic mode to get there.
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


# the scalar layer owns the mode; the CLI checks usage against it, and
# ctnorm's substitution t = q^k exists for symbolic coefficients only
READS_MODE = {"algebra.py", "cli.py", "ctnorm.py"}


@pytest.mark.parametrize("path", [path for path in MODULES
                                  if path.name not in READS_MODE],
                         ids=lambda path: path.name)
def test_no_mode_fork(path):
    tree = ast.parse(path.read_text(), filename=str(path))
    lines = [node.lineno for node in ast.walk(tree)
             if isinstance(node, ast.Attribute) and node.attr == "generic"]
    assert not lines, f"{path.name}: reads .generic at lines {lines}"


@pytest.mark.parametrize("path", MODULES, ids=lambda path: path.name)
def test_no_coefficient_inversion(path):
    tree = ast.parse(path.read_text(), filename=str(path))
    lines = [node.lineno for node in ast.walk(tree)
             if (isinstance(node, ast.Attribute) and node.attr == "invert_params")
             or (isinstance(node, ast.Name) and node.id == "invert_params")
             or (isinstance(node, ast.FunctionDef)
                 and node.name == "invert_params")]
    assert not lines, f"{path.name}: invert_params at lines {lines}"
