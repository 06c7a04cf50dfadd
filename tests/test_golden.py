"""Golden cfinite-cert/1 documents: the byte-level contract of the format.

Each fixture under tests/fixtures/ was written by the producer and is
regenerated here byte for byte; every one must also validate standalone.
The READ_ONLY fixtures are documents the producer no longer writes: their
bundles are built by hand and the fixtures are never rewritten.
The documents under fixtures/forged/ are not golden: they are forgeries
that tests/test_certify.py builds and the validator must refuse.
The cli_* fixtures are the standard output of the commands in
GOLDEN_STDOUT, compared byte for byte; the --help pages are formatted at
80 columns.
To rewrite them after a deliberate format change, run
`PYTHONPATH=src python tests/test_golden.py` and say why in the change.
"""

import dataclasses
import os
import random
from fractions import Fraction
from pathlib import Path

import pytest

from cfinite import linalg
from cfinite.certify import (
    parse_bundle,
    refute_all,
    refute_by_parity,
    RefutationBundle,
    serialize_bundle,
    validate_serialized,
)
from cfinite.cli import main, parse_rational_list
from cfinite.recurrence import LinearRecurrence
from cfinite.seqcore import catalan_closed

FIXTURES = Path(__file__).parent / "fixtures"


def _exact_fit(k: int) -> tuple:
    """The order-k candidate matching C_1..C_{2k}: it solves the order-k windows."""
    rows = [[catalan_closed(n + j) for j in range(k)] for n in range(1, k + 1)]
    rhs = [catalan_closed(n + k) for n in range(1, k + 1)]
    return tuple(linalg.solve(rows, rhs))


def _random_candidate(k: int, seed: int) -> tuple:
    rng = random.Random(seed)
    return tuple(Fraction(rng.randint(-9, 9), rng.randint(1, 9)) for _ in range(k))


def _null_residual(coefficients) -> RefutationBundle:
    """A parity-only bundle with a null residual, as written before the order
    cap for windows past C_5000."""
    candidate = LinearRecurrence(coefficients)
    cert = dataclasses.replace(refute_by_parity(candidate), residual=None)
    return RefutationBundle(candidate, (cert,))


GOLDEN = {
    "order0": lambda: refute_all(LinearRecurrence(parse_rational_list(""))),
    "order1": lambda: refute_all(LinearRecurrence(parse_rational_list("4"))),
    "order2": lambda: refute_all(LinearRecurrence(parse_rational_list("1/2,3"))),
    "exact_fit5": lambda: refute_all(LinearRecurrence(_exact_fit(5))),
    "random8": lambda: refute_all(LinearRecurrence(_random_candidate(8, 8))),
    # written with a residual cap of C_10, which the window C_8..C_11 passed
    "parity_null_residual": lambda: _null_residual(parse_rational_list("1/3,2,5/3")),
}
READ_ONLY = {"parity_null_residual"}


def _path(name: str) -> Path:
    return FIXTURES / f"{name}.json"


@pytest.mark.parametrize("name", sorted(GOLDEN))
def test_fixture_regenerates_byte_for_byte(name):
    assert serialize_bundle(GOLDEN[name]()) == _path(name).read_text()


@pytest.mark.parametrize("name", sorted(GOLDEN))
def test_fixture_validates(name):
    text = _path(name).read_text()
    bundle = validate_serialized(text)
    assert bundle == GOLDEN[name]()
    assert serialize_bundle(parse_bundle(text)) == text


# Standard output of cfinite commands, byte for byte; file name -> argv.
GOLDEN_STDOUT = {
    "cli_catalan13.json": ("catalan", "-n", "13", "--json"),
    "cli_gf_catalan200.json": ("gf", "catalan", "--truncation", "200", "--json"),
    "cli_help.txt": ("--help",),
    # guess: found at order 9 on integers, found at order 1 on fractions,
    # Catalan not found, and an order-1 Hankel witness past offset 1
    "cli_guess_order9.json": (
        "guess", "--max-order", "10", "--json", "--terms",
        "1,2,3,1,0,-1,2,5,1,5,0,4,4,19,18,40,43,69,85,145,197,322,461,702,1008,1513",
    ),
    "cli_guess_halves.json": ("guess", "--json", "--terms", "1,1/2,1/4,1/8,1/16,1/32,1/64"),
    "cli_guess_catalan20.json": (
        "guess", "--max-order", "8", "--json", "--terms",
        "1,1,2,5,14,42,132,429,1430,4862,16796,58786,208012,742900,2674440,"
        "9694845,35357670,129644790,477638700,1767263190",
    ),
    "cli_guess_offset4.json": ("guess", "--max-order", "5", "--json", "--terms", "1,2,4,8,16,33"),
    # binet on squarefree characteristic polynomials: irrational roots
    # (Fibonacci), rational roots (2^n - 1), and a dropped zero root
    "cli_binet_fibonacci.json": ("binet", "--initial", "1,1", "--json", "1,1"),
    "cli_binet_2n_minus_1.json": ("binet", "--initial", "1,3", "--json", "--", "-2,3"),
    "cli_binet_zero_root.json": ("binet", "--initial", "1,1", "--json", "0,2"),
    **{
        f"cli_help_{command}.txt": (command, "--help")
        for command in ("catalan", "guess", "refute", "binet", "gf", "validate")
    },
}


def _exit_code(argv) -> int:
    """main's exit status; --help exits from inside argparse."""
    try:
        return main(list(argv))
    except SystemExit as exc:
        return exc.code


@pytest.mark.parametrize("name", sorted(GOLDEN_STDOUT))
def test_cli_stdout_byte_for_byte(name, capsys, monkeypatch):
    monkeypatch.setenv("COLUMNS", "80")
    assert _exit_code(GOLDEN_STDOUT[name]) == 0
    assert capsys.readouterr().out == (FIXTURES / name).read_text()


def test_parity_fixture_has_null_residual():
    (cert,) = validate_serialized(_path("parity_null_residual").read_text()).certificates
    assert cert.residual is None


if __name__ == "__main__":
    import contextlib
    import io

    FIXTURES.mkdir(exist_ok=True)
    os.environ["COLUMNS"] = "80"
    for name, build in GOLDEN.items():
        if name not in READ_ONLY:
            _path(name).write_text(serialize_bundle(build()))
    for name, argv in GOLDEN_STDOUT.items():
        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            _exit_code(argv)
        (FIXTURES / name).write_text(out.getvalue())
