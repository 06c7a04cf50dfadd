"""Properties of the package source and of importing it."""

import ast
import functools
import subprocess
import sys
from pathlib import Path

import cfinite

PACKAGE = Path(cfinite.__file__).resolve().parent


def test_no_assert_statements():
    # `python -O` drops assert statements, so no check may rely on one
    found = [
        f"{name}:{node.lineno}"
        for name, tree in _module_trees().items()
        for node in ast.walk(tree)
        if isinstance(node, ast.Assert)
    ]
    assert found == []


def _child(*args):
    return subprocess.run(
        [sys.executable, *args],
        env={"PYTHONPATH": str(PACKAGE.parent)},
        capture_output=True,
        text=True,
        timeout=120,
    )


def test_cli_import_leaves_numpy_unloaded():
    # numpy serves only the numeric root tier
    script = """
import sys
import cfinite.cli
assert "numpy" not in sys.modules, "importing cfinite.cli loaded numpy"
from cfinite.gfseries import catalan_gf
from cfinite.powersum import Polynomial, polynomial_roots
from cfinite.seqcore import catalan_ballot
assert catalan_ballot(13) == 208012
assert catalan_gf(500).coefficient(13) == 208012
assert "numpy" not in sys.modules, "a Catalan generator loaded numpy"
roots = polynomial_roots(Polynomial((-2, 0, 1)))
assert sorted(round(z.real, 9) for z, _ in roots) == [-1.414213562, 1.414213562]
assert "numpy" in sys.modules
"""
    done = _child("-c", script)
    assert done.returncode == 0, done.stderr
    # -X importtime lists every module the command imports
    done = _child("-X", "importtime", "-m", "cfinite.cli", "catalan", "-n", "13", "--json")
    assert done.returncode == 0, done.stderr
    assert "cfinite.seqcore" in done.stderr and "numpy" not in done.stderr


@functools.cache
def _module_trees():
    return {
        path.name: ast.parse(path.read_text(), str(path))
        for path in sorted(PACKAGE.glob("*.py"))
    }


def _referenced_names(tree) -> set:
    names = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            names.add(node.id)
        elif isinstance(node, ast.Attribute):
            names.add(node.attr)
    return names


def test_no_unused_imports():
    # no linter runs on this package, so leftovers from deletions are caught here;
    # __init__.py imports only to re-export
    found = []
    for name, tree in _module_trees().items():
        if name == "__init__.py":
            continue
        used = _referenced_names(tree)
        for node in ast.walk(tree):
            if isinstance(node, (ast.Import, ast.ImportFrom)):
                for alias in node.names:
                    bound = alias.asname or alias.name.split(".")[0]
                    if bound not in used:
                        found.append(f"{name}:{node.lineno} {bound}")
    assert found == []


def test_no_process_wide_int_digit_limit_change():
    # sys.set_int_max_str_digits changes the limit for every user of the
    # interpreter; documents keep to the limit they are given
    found = [
        f"{name}:{node.lineno}"
        for name, tree in _module_trees().items()
        for node in ast.walk(tree)
        if isinstance(node, ast.Call)
        and getattr(node.func, "attr", getattr(node.func, "id", None)) == "set_int_max_str_digits"
    ]
    assert found == []


def test_no_unreferenced_private_functions():
    trees = _module_trees()
    used = set().union(*(_referenced_names(tree) for tree in trees.values()))
    found = [
        f"{name}:{node.lineno} {node.name}"
        for name, tree in trees.items()
        for node in tree.body
        if isinstance(node, ast.FunctionDef)
        and node.name.startswith("_")
        and not node.name.startswith("__")
        and node.name not in used
    ]
    assert found == []
