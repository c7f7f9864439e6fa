"""Rules on the package source, read from its syntax trees."""

import ast
import json
import subprocess
import sys
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
    # that cache
    offenders = [where for where in _offenders(_diagonalises)
                 if where.split(":")[0] != "lattice.py"]
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


def _defines_value_methods(node):
    if not isinstance(node, ast.ClassDef) or node.name in ("Record", "AlgebraicNumber"):
        return False
    for stmt in node.body:
        if isinstance(stmt, ast.FunctionDef) and stmt.name in ("__eq__", "__hash__"):
            return True
        targets = (stmt.targets if isinstance(stmt, ast.Assign)
                   else [stmt.target] if isinstance(stmt, ast.AnnAssign) else [])
        if any(isinstance(t, ast.Name) and t.id == "__slots__" for t in targets):
            return True
    return False


def test_only_record_and_algebraic_numbers_define_value_methods():
    # `record.Record` is the one value mechanism: its subclasses take equality
    # and the hash over their fields from it, and keep a `__dict__` for
    # `cached_property`; `polynomials.AlgebraicNumber`, an element of
    # Z[alpha], also compares equal to the ints it coerces
    assert _offenders(_defines_value_methods) == []


def _module_tables():
    """Per module: its top-level defs (functions, classes, assigned names) and
    the names its relative imports bind, each to (module, name), or to
    (module, None) for a submodule."""
    modules = {path.stem for path in SOURCES}
    defs, imports = {}, {}
    for path in SOURCES:
        mod = path.stem
        defs[mod], imports[mod] = {}, {}
        for node in ast.parse(path.read_text()).body:
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                defs[mod][node.name] = node
            elif isinstance(node, (ast.Assign, ast.AnnAssign)):
                targets = node.targets if isinstance(node, ast.Assign) else [node.target]
                defs[mod].update((t.id, node) for t in targets if isinstance(t, ast.Name))
            elif isinstance(node, ast.ImportFrom) and node.level == 1:
                for alias in node.names:
                    if node.module:
                        target = (node.module, alias.name)
                    elif alias.name in modules:
                        target = (alias.name, None)
                    else:
                        target = ("__init__", alias.name)
                    imports[mod][alias.asname or alias.name] = target
    return defs, imports


def _resolve(defs, imports, mod, name):
    """The top-level def that `name` means in `mod`, through re-exports."""
    while name is not None and name not in defs[mod]:
        if name not in imports[mod]:
            return None
        mod, name = imports[mod][name]
    return mod, name


def _references(node):
    """Names and `name.attr` pairs a def reads, type annotations left out:
    the package does not evaluate them."""
    hints = {id(sub) for n in ast.walk(node)
             for hint in (getattr(n, "annotation", None), getattr(n, "returns", None))
             if hint is not None for sub in ast.walk(hint)}
    for sub in ast.walk(node):
        if id(sub) in hints:
            continue
        if isinstance(sub, ast.Name):
            yield sub.id, None
        elif isinstance(sub, ast.Attribute) and isinstance(sub.value, ast.Name):
            yield sub.value.id, sub.attr


def _reached_from_cli_main():
    """The (module, name) defs a static call graph reaches from `cli.main`;
    reaching a class reaches its whole body."""
    defs, imports = _module_tables()
    seen, todo = set(), [("cli", "main")]
    while todo:
        key = todo.pop()
        if key in seen:
            continue
        seen.add(key)
        mod, name = key
        if name is None:
            continue
        for base, attr in _references(defs[mod][name]):
            target = _resolve(defs, imports, mod, base)
            if target is None:
                continue
            todo.append(target)
            if target[1] is None and attr is not None:
                member = _resolve(defs, imports, target[0], attr)
                if member is not None:
                    todo.append(member)
    return defs, imports, seen


def test_every_public_name_is_reached_by_a_report():
    # a public function no subcommand reaches and no acceptance test imports
    # serves no report: it goes
    defs, imports, seen = _reached_from_cli_main()
    reached_modules = {mod for mod, _ in seen}
    acceptance = ast.parse((Path(__file__).parent / "test_acceptance.py").read_text())
    imported = {alias.name for node in ast.walk(acceptance)
                if isinstance(node, ast.ImportFrom) and node.module
                and node.module.split(".")[0] == "hyperlat" for alias in node.names}
    unreached = []
    for name in hyperlat.__all__:
        target = _resolve(defs, imports, "__init__", name) or (name, None)
        reached = target[0] in reached_modules if target[1] is None else target in seen
        if not reached and name not in imported:
            unreached.append(name)
    assert unreached == []


# Modules a CLI run must not load: each costs start-up time in every
# `hyperlat` process, and the CLI reads and writes JSON, parses its options
# and caches its results without them.
NOT_LOADED = ("json", "re", "enum", "functools", "collections", "types", "operator",
              "argparse", "dataclasses", "inspect", "fractions", "random")

RUNS = (
    "info --lattice um2.json",
    "roots --lattice um2.json --height 3",
    "criteria k3 --lattice um2.json --generators trans_group.json --budget 2",
    "classify --lattice d12.json --isometry pell.json",
    "entropy --lattice um2.json --group trans_group.json --budget 3",
    "dirichlet --lattice d12.json --group pell_group.json --point 1,0 --budget 3",
    "tile-check --lattice d12.json --group pell_group.json --point 1,0 --budget 3 --samples 10",
    "orbit --lattice d12.json --group pell_group.json --point 1,0 --depth 2",
    "enumerate --lattice um2.json --norm -2 --height 1 --primitive",
)


def test_cli_runs_load_no_heavy_stdlib_module(tmp_path):
    # the import and the runs themselves: an import moved into a handler
    # still costs every run that reaches it
    inputs = {
        "um2.json": {"gram": [[0, 1, 0], [1, 0, 0], [0, 0, -2]]},
        "d12.json": {"gram": [[1, 0], [0, -2]]},
        "pell.json": {"matrix": [[3, 4], [2, 3]]},
        "pell_group.json": {"generators": [{"matrix": [[3, 4], [2, 3]]}]},
        "trans_group.json": {"generators": [{"matrix": [[1, 1, 2], [0, 1, 0], [0, 1, 1]]}]},
    }
    for name, data in inputs.items():  # with every kind of JSON whitespace
        text = json.dumps(data, indent="\t").replace("\n", "\r\n")
        (tmp_path / name).write_text(f" \r\n{text}\r\n\t ")
    src = str(Path(hyperlat.__file__).parents[1])
    code = ("import sys; sys.path.insert(0, sys.argv[1]); import hyperlat.cli as cli\n"
            "codes = [cli.main(run.split()) for run in sys.argv[3:]]\n"
            "loaded = [m for m in sys.argv[2].split() if m in sys.modules]\n"
            "print(codes, loaded, file=sys.stderr)")
    proc = subprocess.run([sys.executable, "-S", "-c", code, src, " ".join(NOT_LOADED), *RUNS],
                          cwd=tmp_path, capture_output=True, text=True, check=True)
    assert proc.stdout.count('"tool": "hyperlat"') == len(RUNS)
    assert proc.stderr == f"{[0] * len(RUNS)} []\n"
