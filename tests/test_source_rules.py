"""Rules on the package source, read from its syntax trees."""

import ast
from pathlib import Path

import hyperlat

SOURCES = sorted(Path(hyperlat.__file__).parent.glob("*.py"))


def _offenders(is_offence):
    out = []
    for path in SOURCES:
        tree = ast.parse(path.read_text(), filename=str(path))
        out += [f"{path.name}:{node.lineno}" for node in ast.walk(tree) if is_offence(node)]
    return out


def test_no_assert_statements_in_the_package():
    # python -O strips asserts; invariants must raise typed errors instead
    assert _offenders(lambda node: isinstance(node, ast.Assert)) == []


def _raises_assertion_error(node):
    if not isinstance(node, ast.Raise) or node.exc is None:
        return False
    exc = node.exc.func if isinstance(node.exc, ast.Call) else node.exc
    return isinstance(exc, ast.Name) and exc.id == "AssertionError"


def test_no_assertion_errors_raised_in_the_package():
    # an AssertionError names no failure a caller can handle; raise a typed one
    assert _offenders(_raises_assertion_error) == []


def _diagonalises(node):
    if isinstance(node, ast.ImportFrom):
        return any(alias.name == "congruence_diagonal" for alias in node.names)
    if isinstance(node, ast.Call) and isinstance(node.func, ast.Name):
        return node.func.id == "congruence_diagonal"
    return (isinstance(node, ast.Attribute) and node.attr == "congruence_diagonal"
            and isinstance(node.value, ast.Name) and node.value.id == "linalg")


def test_only_lattices_and_restricted_forms_are_diagonalised():
    # a lattice caches its rational diagonal and every other module reads
    # that cache; groups diagonalises restricted forms, which may be degenerate
    offenders = [where for where in _offenders(_diagonalises)
                 if where.split(":")[0] not in ("lattice.py", "groups.py")]
    assert offenders == []


def _defaults_to_a_budget(node):
    if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
        return False
    names = [d.id if isinstance(d, ast.Name) else d.attr
             for d in node.args.defaults + node.args.kw_defaults
             if isinstance(d, (ast.Name, ast.Attribute))]
    return any(name.endswith(("_CAP", "_BUDGET", "_BOX")) for name in names)


def test_no_cap_or_budget_constant_is_a_function_default():
    # a default is bound once, when the function is defined: a test that
    # patches the module constant reaches only an engine that reads it when
    # it runs
    assert _offenders(_defaults_to_a_budget) == []
