"""The record types: frozen classes on one small base, with the behaviour
the frozen dataclasses they replace had."""

from fractions import Fraction

import pytest

from cfinite._record import Record, replace
from cfinite.certify import (
    GfMismatchCertificate,
    HankelCertificate,
    ParityCertificate,
    PolynomialCertificate,
    RefutationBundle,
)
from cfinite.cli import CommandResult
from cfinite.errors import MixedRadicandError
from cfinite.gfseries import DegreeParityVerdict, Polynomial, RationalFunction
from cfinite.powersum import DominantPart, PowerSum
from cfinite.recurrence import IntegerRecurrenceVector, LinearRecurrence, VerificationResult
from cfinite.seqcore import QuadraticFieldElement, Sequence

HANKEL = HankelCertificate(1, ((0, 1, 1), (1, 1, 1)))

# (type, field names, field values, repr of the dataclass version); the
# values are in normal form, so __post_init__ leaves them as given
RECORDS = [
    (
        ParityCertificate,
        ("coprime_vector", "odd_index", "exponent", "window_start", "parity_table", "residual"),
        ((4, -1), 1, 1, 1, (0, 1), 3),
        "ParityCertificate(coprime_vector=(4, -1), odd_index=1, exponent=1, window_start=1, "
        "parity_table=(0, 1), residual=3)",
    ),
    (
        PolynomialCertificate,
        ("order", "coefficients", "polynomial", "value_at_minus_order", "witness_index", "residual"),
        (1, (Fraction(4),), Polynomial((0, 2)), Fraction(-240), 1, Fraction(3)),
        "PolynomialCertificate(order=1, coefficients=(Fraction(4, 1),), polynomial=Polynomial((0, 2)), "
        "value_at_minus_order=Fraction(-240, 1), witness_index=1, residual=Fraction(3, 1))",
    ),
    (
        HankelCertificate,
        ("order_bound", "witnesses"),
        (1, ((0, 1, 1), (1, 1, 1))),
        "HankelCertificate(order_bound=1, witnesses=((0, 1, 1), (1, 1, 1)))",
    ),
    (
        GfMismatchCertificate,
        ("numerator", "denominator", "mismatch_index", "series_value", "catalan_value"),
        (Polynomial((1,)), Polynomial((1, -4)), 2, Fraction(4), 2),
        "GfMismatchCertificate(numerator=Polynomial((1,)), denominator=Polynomial((1, -4)), "
        "mismatch_index=2, series_value=Fraction(4, 1), catalan_value=2)",
    ),
    (
        RefutationBundle,
        ("candidate", "certificates"),
        (LinearRecurrence((4,)), (HANKEL,)),
        "RefutationBundle(candidate=LinearRecurrence(coefficients=(Fraction(4, 1),)), "
        "certificates=(HankelCertificate(order_bound=1, witnesses=((0, 1, 1), (1, 1, 1))),))",
    ),
    (
        LinearRecurrence,
        ("coefficients",),
        ((Fraction(1), Fraction(1, 2)),),
        "LinearRecurrence(coefficients=(Fraction(1, 1), Fraction(1, 2)))",
    ),
    (
        IntegerRecurrenceVector,
        ("entries",),
        ((1, -2, 3),),
        "IntegerRecurrenceVector(entries=(1, -2, 3))",
    ),
    (
        VerificationResult,
        ("passed", "failed_index", "residual"),
        (False, 3, Fraction(1, 2)),
        "VerificationResult(passed=False, failed_index=3, residual=Fraction(1, 2))",
    ),
    (
        Sequence,
        ("name", "terms"),
        ("fib", (1, 1, 2, 3)),
        "Sequence(name='fib', terms=(1, 1, 2, 3))",
    ),
    (
        QuadraticFieldElement,
        ("rational", "surd", "radicand"),
        (Fraction(1, 2), Fraction(3), 5),
        "QuadraticFieldElement(rational=Fraction(1, 2), surd=Fraction(3, 1), radicand=5)",
    ),
    (
        RationalFunction,
        ("numerator", "denominator"),
        (Polynomial((Fraction(1),)), Polynomial((Fraction(1), Fraction(-1)))),
        "RationalFunction(numerator=Polynomial((Fraction(1, 1),)), "
        "denominator=Polynomial((Fraction(1, 1), Fraction(-1, 1))))",
    ),
    (
        DegreeParityVerdict,
        ("lhs_degree", "rhs_degree", "first_difference"),
        (3, 2, (0, 1, 1)),
        "DegreeParityVerdict(lhs_degree=3, rhs_degree=2, first_difference=(0, 1, 1))",
    ),
    (
        PowerSum,
        ("terms", "valid_from"),
        (((Polynomial((1,)), 2),), 2),
        "PowerSum(terms=((Polynomial((1,)), 2),), valid_from=2)",
    ),
    (
        DominantPart,
        ("degree", "alpha", "unit_terms"),
        (1, 2.0, ((1.5, 1),)),
        "DominantPart(degree=1, alpha=2.0, unit_terms=((1.5, 1),))",
    ),
    (
        CommandResult,
        ("document", "human_lines", "exit_code"),
        ({"status": "ok"}, ("a",), 1),
        "CommandResult(document={'status': 'ok'}, human_lines=('a',), exit_code=1)",
    ),
]
IDS = [cls.__name__ for cls, *_ in RECORDS]

# another valid value of each type's first field
OTHER_FIRST = {
    ParityCertificate: (2, -1),
    PolynomialCertificate: 2,
    HankelCertificate: 2,
    GfMismatchCertificate: Polynomial((2,)),
    RefutationBundle: LinearRecurrence((5,)),
    LinearRecurrence: (Fraction(2),),
    IntegerRecurrenceVector: (1, 2),
    VerificationResult: True,
    Sequence: "other",
    QuadraticFieldElement: Fraction(1, 3),
    RationalFunction: Polynomial((Fraction(2),)),
    DegreeParityVerdict: 5,
    PowerSum: ((Polynomial((1,)), 3),),
    DominantPart: 2,
    CommandResult: {},
}


def test_every_record_type_is_covered():
    # every module defining one is imported above
    assert {cls for cls, *_ in RECORDS} == set(Record.__subclasses__())
    assert len(RECORDS) == 15


@pytest.mark.parametrize("cls, names, values, shown", RECORDS, ids=IDS)
def test_positional_and_keyword_construction(cls, names, values, shown):
    assert cls._fields == names
    record = cls(*values)
    assert record == cls(**dict(zip(names, values)))
    assert record == cls(*values[:1], **dict(zip(names[1:], values[1:])))
    assert tuple(getattr(record, name) for name in names) == values
    assert repr(record) == shown


@pytest.mark.parametrize("cls, names, values, shown", RECORDS, ids=IDS)
def test_wrong_arguments_are_refused(cls, names, values, shown):
    with pytest.raises(TypeError, match="takes"):
        cls(*values, None)
    with pytest.raises(TypeError, match="unexpected or repeated argument 'no_such_field'"):
        cls(*values, no_such_field=1)
    with pytest.raises(TypeError, match=f"repeated argument {names[0]!r}"):
        cls(*values, **{names[0]: values[0]})
    with pytest.raises(TypeError, match=f"missing {names[0]!r}"):
        cls(**dict(zip(names[1:], values[1:])))


@pytest.mark.parametrize("cls, names, values, shown", RECORDS, ids=IDS)
def test_assignment_raises(cls, names, values, shown):
    record = cls(*values)
    for name in (*names, "no_such_field"):
        with pytest.raises(AttributeError, match="cannot assign"):
            setattr(record, name, None)
        with pytest.raises(AttributeError, match="cannot delete"):
            delattr(record, name)
    assert tuple(getattr(record, name) for name in names) == values
    assert not hasattr(record, "no_such_field")


@pytest.mark.parametrize("cls, names, values, shown", RECORDS, ids=IDS)
def test_equality_and_hash_read_the_fields(cls, names, values, shown):
    record = cls(*values)
    assert record == cls(*values)
    assert not record != cls(*values)
    assert record != values  # a tuple of the same values is no record
    assert replace(record, **{names[0]: OTHER_FIRST[cls]}) != record
    if cls is not CommandResult:  # a command's document is a dict, never hashable
        assert hash(record) == hash(values)
        assert len({record, cls(*values)}) == 1


@pytest.mark.parametrize("cls, names, values, shown", RECORDS, ids=IDS)
def test_replace_changes_only_the_given_fields(cls, names, values, shown):
    record = cls(*values)
    assert replace(record) == record
    assert replace(record) is not record
    changed = replace(record, **{names[0]: OTHER_FIRST[cls]})
    assert tuple(getattr(changed, name) for name in names) == (OTHER_FIRST[cls], *values[1:])
    assert record == cls(*values)
    with pytest.raises(TypeError, match="no_such_field"):
        replace(record, no_such_field=1)


def test_defaults():
    assert VerificationResult(True) == VerificationResult(True, None, None)
    shown = "VerificationResult(passed=True, failed_index=None, residual=None)"
    assert repr(VerificationResult(True)) == shown
    assert PowerSum(()).valid_from == 1
    assert repr(PowerSum(())) == "PowerSum(terms=(), valid_from=1)"
    result = CommandResult({})
    assert (result.human_lines, result.exit_code, result.human) == ((), 0, "")
    assert CommandResult({}, exit_code=2) == CommandResult({}, (), 2)


def test_post_init_normalises():
    assert Sequence("s", [1, 2]).terms == (1, 2)
    element = QuadraticFieldElement(1, 2, 3)
    assert (type(element.rational), type(element.surd)) == (Fraction, Fraction)
    assert LinearRecurrence([1, 2]) == LinearRecurrence((Fraction(1), Fraction(2)))
    assert all(type(c) is Fraction for c in LinearRecurrence([1, 2]).coefficients)
    assert IntegerRecurrenceVector([Fraction(2), 3]).entries == (2, 3)
    assert type(IntegerRecurrenceVector([Fraction(2), 3]).entries[0]) is int
    # (1 - x^2)/(2 - 2x) is (1 + x)/2, scaled to q(0) = 1
    rf = RationalFunction(Polynomial((1, 0, -1)), Polynomial((2, -2)))
    assert (rf.numerator, rf.denominator) == (Polynomial((Fraction(1, 2), Fraction(1, 2))), Polynomial((1,)))
    assert PowerSum([[Polynomial((1,)), 2]]).terms == ((Polynomial((1,)), 2),)


def test_replace_runs_post_init():
    rec = replace(LinearRecurrence((1,)), coefficients=[2, 3])
    assert rec.coefficients == (Fraction(2), Fraction(3))
    assert all(type(c) is Fraction for c in rec.coefficients)
    with pytest.raises(ValueError, match="not coprime"):
        replace(IntegerRecurrenceVector((1, 2)), entries=(2, 4))
    with pytest.raises(ValueError, match="nonzero at 0"):
        replace(RationalFunction(Polynomial((1,)), Polynomial((1, 1))), denominator=Polynomial((0, 1)))


def test_post_init_refuses():
    with pytest.raises(ValueError, match="squarefree"):
        QuadraticFieldElement(1, 1, 4)
    with pytest.raises(MixedRadicandError):
        LinearRecurrence((QuadraticFieldElement(0, 1, 2), QuadraticFieldElement(0, 1, 3)))
    for entries in ((), (1, 0), (2, 4)):
        with pytest.raises(ValueError):
            IntegerRecurrenceVector(entries)
    with pytest.raises(ValueError, match="nonzero at 0"):
        RationalFunction(Polynomial((1,)), Polynomial((0, 1)))
    with pytest.raises(ValueError, match="nonzero"):
        PowerSum(((Polynomial((1,)), 0),))
    with pytest.raises(ValueError, match="duplicate"):
        PowerSum(((Polynomial((1,)), 2), (Polynomial((3,)), 2)))
    with pytest.raises(ValueError, match="at least one unit term"):
        DominantPart(0, 1.0, ())


def test_quadratic_field_element_keeps_its_own_equality():
    # rational elements equal their rationals, across radicands too
    assert QuadraticFieldElement(2, 0, 2) == 2
    assert hash(QuadraticFieldElement(2, 0, 2)) == hash(2)
    assert QuadraticFieldElement(1, 0, 2) == QuadraticFieldElement(1, 0, 3)
    assert QuadraticFieldElement(1, 1, 2) != QuadraticFieldElement(1, 1, 3)
