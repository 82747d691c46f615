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


def _callers(name):
    """(module, function) of every package function that calls ``name``."""
    callers = set()
    for path in MODULES:
        tree = ast.parse(path.read_text(), filename=str(path))
        for func in ast.walk(tree):
            if isinstance(func, (ast.FunctionDef, ast.AsyncFunctionDef)):
                for node in ast.walk(func):
                    if (isinstance(node, ast.Call)
                            and getattr(node.func, "attr",
                                        getattr(node.func, "id", None))
                            == name):
                        callers.add((path.name, func.name))
    return callers


def test_one_generation_recursion():
    # E and Estar are generated by one recursion along generation_step
    callers = _callers("generation_step")
    assert len(callers) == 1, f"generation_step called from {sorted(callers)}"


def test_one_home_for_the_hecke_operators():
    # td T_i and td H_i are written out once, in hecke_step; both families
    # raise through phi_form, so no T_j^-1 word is left to call it
    callers = _callers("demazure_lustig")
    assert callers == {("emac.py", "hecke_step")}, \
        f"demazure_lustig called from {sorted(callers)}"


def test_one_home_for_the_basis_action():
    # the Hecke step on a spectral basis vector switches the generation
    # recursion; the binomial recursion reads its labels off the maximal
    # index sets, so no expansion of a word in the basis is left in the
    # package
    callers = _callers("basis_action")
    assert callers == {("emac.py", "common_form")}, \
        f"basis_action called from {sorted(callers)}"


def test_one_home_for_sums_in_parts():
    # a sum of products over one divisor is ScalarContext.product_sum, and
    # a sum of forms algebra.form_sum: no other code runs a lcm by hand
    callers = _callers("lcm_cofactors")
    assert callers <= {("algebra.py", "product_sum"),
                       ("algebra.py", "form_sum")}, \
        f"lcm_cofactors called from {sorted(callers)}"


def test_one_home_for_the_successor_graph():
    # the one-step successors c_I(eta), I maximal, are listed once, by
    # comb.one_step with the index set of each; every sum over them and
    # the one-step ratio read that map, so no caller raises by hand
    callers = _callers("c_I_apply")
    assert callers == {("comb.py", "one_step")}, \
        f"c_I_apply called from {sorted(callers)}"
    gone = {"maximal_sets", "successors_one_step", "c_I_ratio"}
    defined = {(path.name, node.name) for path in MODULES
               for node in ast.walk(ast.parse(path.read_text()))
               if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef))
               and node.name in gone}
    assert not defined, f"defined again: {sorted(defined)}"


def _names(node):
    """Every name and attribute name read under node."""
    for sub in ast.walk(node):
        if isinstance(sub, ast.Name):
            yield sub.id
        elif isinstance(sub, ast.Attribute):
            yield sub.attr


# a function that only the tests call lives in the tests
def test_every_package_function_is_used_by_the_package():
    init = ast.parse((PACKAGE / "__init__.py").read_text())
    exported = {alias.asname or alias.name for node in init.body
                if isinstance(node, ast.ImportFrom) for alias in node.names}
    defined, readers = [], {}
    for path in MODULES:
        tree = ast.parse(path.read_text(), filename=str(path))
        for stmt in tree.body:
            own = (stmt.name if isinstance(stmt, (ast.FunctionDef,
                                                  ast.AsyncFunctionDef))
                   else None)
            if own is not None:
                defined.append((path.name, own))
            for name in _names(stmt):
                readers.setdefault(name, set()).add((path.name, own))
    unused = [(module, name) for module, name in defined
              if name not in exported
              and not readers.get(name, set()) - {(module, name)}]
    assert not unused, f"used by no package code: {unused}"


# int() rounds 1.5 toward zero and so answers for another input; every part,
# index or position read from a caller goes through comb._part instead
@pytest.mark.parametrize("name", ["comb.py", "emac.py", "istar.py",
                                  "pieri.py"])
def test_no_truncating_int(name):
    tree = ast.parse((PACKAGE / name).read_text(), filename=name)
    allowed = set()
    if name == "comb.py":
        (part,) = [node for node in tree.body
                   if isinstance(node, ast.FunctionDef) and node.name == "_part"]
        allowed = {id(node) for node in ast.walk(part)}
    # int called, or passed to a call as in map(int, parts)
    lines = [node.lineno for node in ast.walk(tree)
             if isinstance(node, ast.Call) and id(node) not in allowed
             and any(isinstance(f, ast.Name) and f.id == "int"
                     for f in [node.func, *node.args])]
    assert not lines, f"{name}: int(...) at lines {lines}"


# an oracle must not reach the fast path it checks
FAST_PATHS = {"monomial_sum", "one_minus_product", "common_form",
              "spectral_evaluate", "generate_Estar"}

# the Pieri residuals check the expansion, so they must not reach the route
# that computes its coefficients
EXPANSION_PATHS = {"spectral_evaluate", "monomial_sum", "one_minus_product",
                   "spectral_e_gap", "common_form", "interpolation_expansion"}


def _references(module, owner, name):
    tree = ast.parse((PACKAGE / module).read_text(), filename=module)
    if owner is not None:
        (tree,) = [node for node in tree.body
                   if isinstance(node, ast.ClassDef) and node.name == owner]
    (func,) = [node for node in tree.body
               if isinstance(node, ast.FunctionDef) and node.name == name]
    used = {node.id for node in ast.walk(func) if isinstance(node, ast.Name)}
    return used | {node.attr for node in ast.walk(func)
                   if isinstance(node, ast.Attribute)}


@pytest.mark.parametrize("module, owner, name", [
    ("algebra.py", "ZPolynomial", "at_point"),
    ("istar.py", None, "vanishing_solve_oracle"),
    ("istar.py", None, "xi_form"),
    ("emac.py", None, "cycle_form"),
    ("emac.py", None, "phi_form"),
    ("emac.py", None, "hecke_symmetrize"),
])
def test_oracles_are_independent_of_the_fast_paths(module, owner, name):
    used = _references(module, owner, name)
    assert not used & FAST_PATHS, f"{name} references {sorted(used & FAST_PATHS)}"


@pytest.mark.parametrize("name", ["interpolation_residual",
                                  "homogeneous_residual", "_residual",
                                  "_label_form"])
def test_residuals_are_independent_of_the_expansion(name):
    used = _references("pieri.py", None, name)
    assert not used & EXPANSION_PATHS, \
        f"{name} references {sorted(used & EXPANSION_PATHS)}"


# binomial_recursive is the independent check of binomial_direct, so it must
# not reach binomial_direct's route through the spectral evaluation
BINOMIAL_DIRECT_PATHS = {"spectral_evaluate", "binomial_direct",
                         "principal_value", "monomial_sum"}


def test_binomial_recursion_is_independent_of_the_direct_route():
    used = _references("istar.py", None, "binomial_recursive")
    assert not used & BINOMIAL_DIRECT_PATHS, \
        f"binomial_recursive references {sorted(used & BINOMIAL_DIRECT_PATHS)}"


def test_binomial_recursion_computes_at_the_given_point():
    # at a rational point nothing of the recursion runs over Q(q,t); GENERIC
    # is the default of ctx only
    tree = ast.parse((PACKAGE / "istar.py").read_text(), filename="istar.py")
    (func,) = [node for node in tree.body if isinstance(node, ast.FunctionDef)
               and node.name == "binomial_recursive"]
    lines = [node.lineno for stmt in func.body for node in ast.walk(stmt)
             if getattr(node, "id", getattr(node, "attr", None)) == "GENERIC"]
    assert not lines, f"binomial_recursive reads GENERIC at lines {lines}"


def _imported_modules(path):
    """Every module path an import statement of the file names, with
    ``from a import b`` counted as both a and a.b."""
    tree = ast.parse(path.read_text(), filename=str(path))
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            yield from (alias.name for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            yield node.module
            yield from (f"{node.module}.{alias.name}" for alias in node.names)


# Q(q,t) keeps its denominators factored in algebra.py, which alone asks
# sympy for factors it cannot find; sympy's field is the tests' reference
@pytest.mark.parametrize("path", MODULES, ids=lambda path: path.name)
def test_only_the_scalar_layer_imports_sympy(path):
    names = {name for name in _imported_modules(path)
             if name == "sympy" or name.startswith("sympy.")}
    fields = {name for name in names if name == "sympy.polys.fields"
              or name.startswith("sympy.polys.fields.")}
    assert not fields, f"{path.name} imports {sorted(fields)}"
    if path.name != "algebra.py":
        assert not names, f"{path.name} imports {sorted(names)}"


def _sympy_imports_outside_functions(node, inside=False):
    """Line numbers of the sympy imports under node that no function body
    encloses: those run when the module is imported."""
    if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
        inside = True
    elif isinstance(node, ast.Import) and not inside:
        if any(alias.name.split(".")[0] == "sympy" for alias in node.names):
            yield node.lineno
    elif isinstance(node, ast.ImportFrom) and not inside:
        if node.level == 0 and node.module.split(".")[0] == "sympy":
            yield node.lineno
    for child in ast.iter_child_nodes(node):
        yield from _sympy_imports_outside_functions(child, inside)


# sympy costs most of the start-up time and memory of a process, and no
# benchmark query needs it, so it is imported at the first factorisation
# fallback, inside the function that asks for it
@pytest.mark.parametrize("path", MODULES, ids=lambda path: path.name)
def test_no_sympy_import_at_module_level(path):
    tree = ast.parse(path.read_text(), filename=str(path))
    lines = list(_sympy_imports_outside_functions(tree))
    assert not lines, f"{path.name}: sympy imported at module level, lines {lines}"


# importing dataclasses costs every process several milliseconds of start-up
# (it imports inspect); the package's records are plain classes
@pytest.mark.parametrize("path", MODULES, ids=lambda path: path.name)
def test_no_dataclasses_import(path):
    names = {name for name in _imported_modules(path)
             if name.split(".")[0] == "dataclasses"}
    assert not names, f"{path.name} imports {sorted(names)}"


def _memo_decorators():
    """(module, function, decorator) for every decorator named memo, called
    or not."""
    for path in MODULES:
        tree = ast.parse(path.read_text(), filename=str(path))
        for func in ast.walk(tree):
            if isinstance(func, (ast.FunctionDef, ast.AsyncFunctionDef)):
                for dec in func.decorator_list:
                    target = dec.func if isinstance(dec, ast.Call) else dec
                    if getattr(target, "attr",
                               getattr(target, "id", None)) == "memo":
                        yield path.name, func.name, dec


# a memo table keys on the arguments as given and the function reads its
# labels in its body, so a hit runs no normaliser
def test_memo_is_a_bare_decorator():
    found = list(_memo_decorators())
    called = [(module, name) for module, name, dec in found
              if not (isinstance(dec, ast.Name) and dec.id == "memo")]
    assert found and not called, f"memo is not a bare @memo on {called}"


# every cache is a memo table, so one decorator keeps what is cached; a
# functools cache is an object, not a function, and tracers wrap functions
FUNCTOOLS_CACHES = {"cache", "lru_cache", "cached_property"}


def _cache_names(node):
    if isinstance(node, ast.ImportFrom) and node.module == "functools":
        return {alias.name for alias in node.names} & FUNCTOOLS_CACHES
    if isinstance(node, ast.Attribute) \
            and getattr(node.value, "id", None) == "functools":
        return {node.attr} & FUNCTOOLS_CACHES
    # a local variable may be called cache; these names are functools' only
    name = getattr(node, "id", getattr(node, "attr", None))
    return {name} & {"lru_cache", "cached_property"}


def test_memo_is_the_only_cache():
    found = [(path.name, node.lineno, name) for path in MODULES
             for node in ast.walk(ast.parse(path.read_text()))
             for name in _cache_names(node)]
    assert not found, f"a cache other than memo: {found}"


# comparisons stay exact: no float or complex constant, and no cmath
def test_no_floating_point():
    found = []
    for path in MODULES:
        tree = ast.parse(path.read_text(), filename=str(path))
        found += [(path.name, node.lineno) for node in ast.walk(tree)
                  if isinstance(node, ast.Constant)
                  and isinstance(node.value, (float, complex))]
        found += [(path.name, name) for name in _imported_modules(path)
                  if name.split(".")[0] == "cmath"]
    assert not found, f"floating point at {found}"
