"""Properties of the package source and of importing it."""

import ast
import functools
import importlib
import os
import subprocess
import sys
from pathlib import Path

import pytest

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
    # -B: a test run leaves no bytecode next to the sources
    return subprocess.run(
        [sys.executable, "-B", *args],
        env={**os.environ, "PYTHONPATH": str(PACKAGE.parent)},
        capture_output=True,
        text=True,
        timeout=120,
    )


def test_numpy_is_never_loaded():
    # the numeric root tier runs on the standard library alone
    script = """
import sys
import cfinite.cli
from cfinite.gfseries import catalan_gf
from cfinite.powersum import binet_form, Polynomial, polynomial_roots
from cfinite.recurrence import LinearRecurrence
from cfinite.seqcore import catalan_ballot
assert catalan_ballot(13) == 208012
assert catalan_gf(500).coefficient(13) == 208012
roots = polynomial_roots(Polynomial((-2, 0, 1)))
assert sorted(round(z.real, 9) for z, _ in roots) == [-1.414213562, 1.414213562]
binet_form(LinearRecurrence((1, 1, 1)), (1, 1, 2))
assert "numpy" not in sys.modules, "the numeric root tier loaded numpy"
"""
    done = _child("-c", script)
    assert done.returncode == 0, done.stderr


def test_binet_runs_with_numpy_unimportable():
    script = """
import contextlib, io, json, sys
sys.modules["numpy"] = None  # any import of numpy now raises ImportError
from cfinite import cli
from cfinite.powersum import binet_form, evaluate_powersum
from cfinite.recurrence import iterate_recurrence, LinearRecurrence
cases = [
    ((1, 1), (1, 1)),  # Fibonacci
    ((1, 1, 1), (1, 1, 2)),  # tribonacci: a real root and a complex pair
    ((-1, 1), (1, 0)),  # x^2 - x + 1: the complex pair exp(+-i pi/3)
    ((-1, -2, 1, 2), (1, 2, 6, 12)),  # n F_n: repeated irrational roots
]
for coefficients, initial in cases:
    rec = LinearRecurrence(coefficients)
    ps = binet_form(rec, initial)
    for n, target in enumerate(iterate_recurrence(rec, initial, 40), start=1):
        error = abs(complex(evaluate_powersum(ps, n)) - target)
        assert error <= 1e-9 * max(1, abs(target)), (coefficients, n, error)
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = cli.main(["binet", "--initial", ",".join(map(str, initial)), "--json", "--",
                         ",".join(map(str, coefficients))])
    assert code == 0 and json.loads(out.getvalue())["status"] == "ok", out.getvalue()
"""
    done = _child("-c", script)
    assert done.returncode == 0, done.stderr


def _imported(*args) -> set:
    """Modules a child process imports, read off its -X importtime lines."""
    done = _child("-X", "importtime", *args)
    assert done.returncode == 0, done.stderr
    names = set()
    for line in done.stderr.splitlines():
        parts = line.split("|")
        if len(parts) == 3 and parts[1].strip().isdigit():
            names.add(parts[2].strip())
    return names


CERTIFICATE = Path(__file__).resolve().parent / "fixtures" / "order2.json"

# cfinite argv -> (modules it must import, modules it must not import)
FOOTPRINTS = {
    ("catalan", "-n", "13", "--json"): (
        {"cfinite.seqcore"},
        {"cfinite.certify", "hashlib", "cfinite.powersum", "numpy"},
    ),
    ("guess", "--terms", "1,1,2,3,5,8,13,21,34,55", "--json"): (
        {"cfinite.recurrence", "cfinite.linalg"},
        {"cfinite.certify", "hashlib", "cfinite.powersum", "numpy"},
    ),
    ("gf", "catalan", "--json"): (
        {"cfinite.gfseries"},
        {"cfinite.certify", "hashlib", "cfinite.powersum", "cfinite.recurrence", "numpy"},
    ),
    # certificates use exact polynomials from gfseries, never the numeric tier
    ("refute", "4", "--json"): (
        {"cfinite.certify", "cfinite.gfseries", "cfinite.recurrence", "cfinite.linalg", "hashlib"},
        {"cfinite.powersum", "numpy"},
    ),
    ("validate", "--input", str(CERTIFICATE), "--json"): (
        {"cfinite.certify", "cfinite.gfseries", "cfinite.recurrence", "cfinite.linalg", "hashlib"},
        {"cfinite.powersum", "numpy"},
    ),
}


@pytest.mark.parametrize("argv", sorted(FOOTPRINTS), ids=lambda argv: argv[0])
def test_subcommand_imports_only_its_engines(argv):
    needed, unused = FOOTPRINTS[argv]
    imported = _imported("-m", "cfinite.cli", *argv)
    assert needed <= imported
    assert imported & unused == set()


def test_package_import_loads_no_submodule():
    imported = _imported("-c", "import cfinite")
    assert "cfinite" in imported
    assert {name for name in imported if name.startswith("cfinite.")} == set()


def test_package_polynomial_leaves_the_numeric_tier_unloaded():
    imported = _imported("-c", "import cfinite; cfinite.Polynomial")
    assert "cfinite.gfseries" in imported
    assert "cfinite.powersum" not in imported


# The names `cfinite` re-exported when its __init__ imported every submodule.
PUBLIC = {
    "certify": (
        "GfMismatchCertificate", "HankelCertificate", "ParityCertificate",
        "PolynomialCertificate", "RefutationBundle", "parse_bundle", "refute_all",
        "refute_by_gf", "refute_by_hankel", "refute_by_parity", "refute_by_polynomial",
        "serialize_bundle", "validate_certificate", "validate_document",
        "validate_serialized",
    ),
    "errors": (
        "BFileError", "CertificateError", "CFiniteError", "DimensionError",
        "InsufficientDataError", "MixedRadicandError", "ResourceLimitError",
        "RootFindingError", "SingularSystemError",
    ),
    "gfseries": (
        "catalan_gf", "degree_parity_check", "expand_rational", "pade_reconstruct",
        "rational_gf", "RationalFunction", "sqrt_one_minus_4x", "TruncatedSeries",
    ),
    "linalg": (),
    "powersum": (
        "binet_form", "catalan_asymptotic_constant", "characteristic_polynomial",
        "DominantPart", "dominant_part", "evaluate_powersum", "falling_factorial",
        "Polynomial", "polynomial_roots", "PowerSum", "tail_lower_bound_check",
        "vandermonde_modulus",
    ),
    "recurrence": (
        "descend_field", "guess_recurrence", "hankel_evidence",
        "hankel_nonsingular_witness", "IntegerRecurrenceVector", "iterate_recurrence",
        "kernel_nontrivial", "LinearRecurrence", "normalize_coprime", "verify",
    ),
    "seqcore": (
        "catalan_ballot", "catalan_closed", "catalan_convolution", "catalan_holonomic",
        "catalan_is_odd", "catalan_is_odd_by_reduction", "fibonacci",
        "QuadraticFieldElement", "Sequence",
    ),
}
# ... and, being bound by those imports, the submodules themselves
EVERY_PUBLIC = {*PUBLIC, *(name for names in PUBLIC.values() for name in names)}


def test_lazy_namespace_keeps_the_public_api():
    for module, names in PUBLIC.items():
        submodule = importlib.import_module(f"cfinite.{module}")
        assert getattr(cfinite, module) is submodule
        for name in names:
            assert getattr(cfinite, name) is getattr(submodule, name), name
    star = {}
    exec("from cfinite import *", star)
    assert set(star) - {"__builtins__"} == EVERY_PUBLIC
    # cli and schema are bound once something imports them, as before
    listed = {name for name in dir(cfinite) if not name.startswith("_")}
    assert EVERY_PUBLIC <= listed <= EVERY_PUBLIC | {"cli", "schema"}
    with pytest.raises(AttributeError, match="no_such_name"):
        cfinite.no_such_name
    with pytest.raises(ImportError):
        exec("from cfinite import no_such_name", {})


def test_submodule_resolves_after_bare_import():
    done = _child("-c", "import cfinite; print(cfinite.certify.refute_all is cfinite.refute_all)")
    assert (done.returncode, done.stdout) == (0, "True\n"), done.stderr


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
    # no linter runs on this package, so leftovers from deletions are caught here
    found = []
    for name, tree in _module_trees().items():
        used = _referenced_names(tree)
        for node in ast.walk(tree):
            if isinstance(node, (ast.Import, ast.ImportFrom)):
                for alias in node.names:
                    if alias.asname == alias.name:
                        continue  # `import x as x`: a deliberate re-export
                    bound = alias.asname or alias.name.split(".")[0]
                    if bound not in used:
                        found.append(f"{name}:{node.lineno} {bound}")
    # __init__.py re-exports through its table, not by importing
    for module, names in cfinite._EXPORTS.items():
        submodule = importlib.import_module(f"cfinite.{module}")
        found += [f"__init__.py {module}.{n}" for n in names if not hasattr(submodule, n)]
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
