"""Properties of the package source and of importing it."""

import ast
import subprocess
import sys
from pathlib import Path

import cfinite

PACKAGE = Path(cfinite.__file__).resolve().parent


def test_no_assert_statements():
    # `python -O` drops assert statements, so no check may rely on one
    found = [
        f"{path.name}:{node.lineno}"
        for path in sorted(PACKAGE.glob("*.py"))
        for node in ast.walk(ast.parse(path.read_text(), str(path)))
        if isinstance(node, ast.Assert)
    ]
    assert found == []


def test_cli_import_leaves_numpy_unloaded():
    script = """
import sys
import cfinite.cli
assert "numpy" not in sys.modules, "importing cfinite.cli loaded numpy"
from cfinite.powersum import Polynomial, polynomial_roots
from cfinite.seqcore import catalan_ballot
assert catalan_ballot(6) == 42
roots = polynomial_roots(Polynomial((-2, 0, 1)))
assert sorted(round(z.real, 9) for z, _ in roots) == [-1.414213562, 1.414213562]
assert "numpy" in sys.modules
"""
    done = subprocess.run(
        [sys.executable, "-c", script],
        env={"PYTHONPATH": str(PACKAGE.parent)},
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert done.returncode == 0, done.stderr
