"""Refutation engines, validators, and certificate serialization."""

import contextlib
import dataclasses
import functools
import json
import math
import random
import re
import signal
import sys
import time
import tracemalloc
from decimal import Decimal
from fractions import Fraction
from itertools import islice
from pathlib import Path

import pytest

import cfinite.certify as certify_module
import cfinite.gfseries as gfseries_module
from cfinite import linalg
from cfinite.certify import (
    bundle_to_document,
    certificate_from_fields,
    certificate_to_fields,
    GfMismatchCertificate,
    HankelCertificate,
    LIST_CAP,
    ORDER_CAP,
    parse_bundle,
    ParityCertificate,
    PolynomialCertificate,
    polynomial_certificate_value,
    refute_all,
    refute_by_gf,
    refute_by_hankel,
    refute_by_parity,
    refute_by_polynomial,
    RefutationBundle,
    serialize_bundle,
    summand_polynomial,
    validate_certificate,
    validate_document,
    validate_serialized,
)
from cfinite.errors import CertificateError, ResourceLimitError
from cfinite.gfseries import _expansion, expand_rational, rational_gf, RationalFunction
from cfinite.powersum import Polynomial
from cfinite.recurrence import guess_recurrence, hankel_nonsingular_witness, LinearRecurrence
from cfinite.schema import SCHEMA_TAG
from cfinite.seqcore import catalan_closed, catalan_convolution

TIMES_FOUR = LinearRecurrence((4,))
BIG_DENOMINATORS = LinearRecurrence((Fraction(1, 10**2500 + 1), Fraction(1, 10**2500 + 3)))
EMPTY = LinearRecurrence(())


def candidate_residual(coefficients, n: int) -> Fraction:
    """sum_{j<k} a_j C_{n+j} - C_{n+k}, exactly: the residual oracle."""
    k = len(coefficients)
    acc = -Fraction(catalan_closed(n + k))
    for j, a in enumerate(coefficients):
        acc += Fraction(a) * catalan_closed(n + j)
    return acc


# the checks a certificate passes: the four validators, by kind, the gf
# link's re-expansion and the Hankel path check
CHECKS = (
    *(v.__name__ for v in certify_module._VALIDATORS.values()),
    "_check_rational_gf",
    "_check_catalan_hankel",
)


def count_checks(monkeypatch) -> dict:
    """Patch every check in CHECKS to count its calls; the counts, by name."""
    calls = dict.fromkeys(CHECKS, 0)

    def counting(name, check):
        def counted(*args):
            calls[name] += 1
            return check(*args)

        return counted

    for kind, validate in list(certify_module._VALIDATORS.items()):
        counted = counting(validate.__name__, validate)
        monkeypatch.setitem(certify_module._VALIDATORS, kind, counted)
        monkeypatch.setattr(certify_module, validate.__name__, counted)  # direct calls too
    for module, name in (
        (gfseries_module, "_check_rational_gf"),
        (certify_module, "_check_catalan_hankel"),
    ):
        monkeypatch.setattr(module, name, counting(name, getattr(module, name)))
    return calls


@contextlib.contextmanager
def _time_limit(seconds: int):
    def expire(signum, frame):
        raise TimeoutError(f"validation still running after {seconds} s")

    previous = signal.signal(signal.SIGALRM, expire)
    signal.alarm(seconds)
    try:
        yield
    finally:
        signal.alarm(0)
        signal.signal(signal.SIGALRM, previous)


def _forge_fields(text, edit, *replacements):
    """Apply `edit` to the parsed document, recompute its digest, and apply
    text replacements to the result (for literals json.dumps cannot write)."""
    doc = json.loads(text)
    edit(doc)
    doc["sha256"] = certify_module._payload_digest(doc)
    forged = json.dumps(doc)
    for old, new in replacements:
        forged = forged.replace(old, new)
    return forged


def _set_parity(**fields):
    return lambda doc: doc["certificates"][0].update(fields)


def _set_coefficient(value):
    return lambda doc: doc["candidate"]["coefficients"].__setitem__(0, value)


# Each rewrites a genuine serialized TIMES_FOUR bundle (parity window 3,
# exponent 2, odd index 1, table (0, 1)) with a number of the wrong type; all
# but the last recompute the digest (the last is refused before it is read).
# Before the number types were checked, the first two validated (int()
# truncates floats and reads booleans as 0 / 1) and the last three escaped
# as OverflowError or ValueError.
NUMBER_TYPE_FORGERIES = {
    "float_fields": lambda text: _forge_fields(
        text, _set_parity(window_start=3.5, exponent=2.25)
    ),
    "bool_fields": lambda text: _forge_fields(
        text, _set_parity(odd_index=True, parity_table=[False, True])
    ),
    "infinity": lambda text: _forge_fields(text, _set_coefficient(math.inf)),
    "huge_float": lambda text: _forge_fields(
        text, _set_coefficient(math.inf), ("Infinity", "1e400")
    ),
    "long_integer": lambda text: text.replace('"residual":3', '"residual":' + "1" * 5000, 1),
}


def _set_kind(kind, edit):
    """Apply `edit` to the document's first certificate of this kind."""
    return lambda doc: edit(next(c for c in doc["certificates"] if c["kind"] == kind))


def _forge_kind(candidate, kind, **fields):
    text = serialize_bundle(refute_all(candidate))
    return _forge_fields(text, _set_kind(kind, lambda cert: cert.update(fields)))


def _forge_witness(order, bound=1, **fields):
    """A TIMES_FOUR bundle with Hankel bound `bound`, the order-`order`
    witness edited, digest recomputed."""
    text = serialize_bundle(refute_all(TIMES_FOUR, hankel_bound=bound))
    return _forge_fields(
        text, _set_kind("hankel", lambda cert: cert["witnesses"][order].update(fields))
    )


def _forge_certificates(value):
    text = serialize_bundle(refute_all(TIMES_FOUR))
    return _forge_fields(text, lambda doc: doc.update(certificates=value))


def _parity_of(vector, residual=1) -> ParityCertificate:
    """A parity certificate for `vector` with its derived window and table."""
    return ParityCertificate(vector, *certify_module._parity_window(vector), residual)


def huge_digit_parity_text() -> str:
    """A TIMES_FOUR document with the order-64 parity vector (X, 0, ..., 0, 1),
    X one digit under the int/str conversion limit (4,299 sevens by default),
    and residual 1: its recomputed residual X C_256 + C_320 is past the limit."""
    huge = int("7" * (sys.get_int_max_str_digits() - 1))
    return serialize_bundle(RefutationBundle(TIMES_FOUR, (_parity_of((huge,) + (0,) * 63 + (1,)),)))


def gf_over_one_minus_x_to(d: int) -> str:
    """TIMES_FOUR's document with the gf certificate x/(1 - x**d) at mismatch
    index 2d + 1, within the index bound; its series 1, 0, ... leaves C_2 = 1."""
    q = Polynomial((1,) + (0,) * (d - 1) + (-1,))
    cert = GfMismatchCertificate(Polynomial((0, 1)), q, 2 * d + 1, Fraction(0), 1)
    return json.dumps(_swap_certificate(TIMES_FOUR, 3, cert))


# Re-digested documents that fuzzing found validating, or escaping with an
# uncaught exception, or expanding without end; each must be refused with
# CertificateError in well under a second, with the reason's pattern.
HOLE_FORGERIES = {
    "hankel_order_bound": (
        lambda: _forge_kind(TIMES_FOUR, "hankel", order_bound=10**30),
        "cannot cover orders",
    ),
    "hankel_offset": (lambda: _forge_witness(0, offset=10**30), "need order 0, offset 1"),
    "hankel_offset_past_bound": (lambda: _forge_witness(0, offset=4), "need order 0, offset 1"),
    # a true minor at the wrong offset: the order-2 window determinant of C_5..C_9
    "hankel_true_minor_at_offset_five": (
        lambda: _forge_witness(2, bound=2, offset=5, determinant="330"),
        "witness 2 is at order 2, offset 5",
    ),
    "empty_certificate_list": (lambda: _forge_certificates([]), "no certificate"),
    "empty_certificate_object": (lambda: _forge_certificates({}), "no certificate"),
    "gf_far_index": (
        lambda: _forge_kind(TIMES_FOUR, "gf-mismatch", mismatch_index=10**11),
        "outside 1..3",
    ),
    # the series of x/(1 - 4x) is 1, 4, 16, ...: it leaves C_2 = 1 first,
    # and 16 != C_3 = 2 is a true but later mismatch
    "gf_later_index": (
        lambda: _forge_kind(
            TIMES_FOUR, "gf-mismatch", mismatch_index=3, series_value="16", catalan_value="2"
        ),
        "leaves C_2 first",
    ),
    # order 0: the series is 0, so 0 != C_2 = 1 holds but index 1 is first
    "gf_order_zero_index_two": (
        lambda: _forge_kind(EMPTY, "gf-mismatch", mismatch_index=2),
        "outside 1..1",
    ),
    # the message once printed the recomputed residual and escaped as ValueError
    "parity_residual_past_the_digit_limit": (
        huge_digit_parity_text, "stored residual 1 != recomputed a number too long to print"
    ),
    # once expanded to index 2001 and reduced by gcd first, 5.9 s
    "gf_over_one_minus_x_to_1000": (lambda: gf_over_one_minus_x_to(1000), "leaves C_2 first"),
}


THREE = LinearRecurrence((3,))


def _forge_candidate(**fields):
    text = serialize_bundle(refute_all(THREE))
    return _forge_fields(text, lambda doc: doc["candidate"].update(fields))


# Re-digested THREE bundles in forms the writer never writes (its parity
# table is (1, 0), its gf numerator x and p(-1) = 6).  Each reads as the
# genuine bundle, and each validated before a document had one written form.
NON_CANONICAL_FORMS = {
    "parity_table_string": lambda: _forge_kind(THREE, "parity", parity_table="10"),
    "numerator_string": lambda: _forge_kind(THREE, "gf-mismatch", numerator="01"),
    "unreduced_rational": lambda: _forge_kind(THREE, "polynomial", value_at_minus_order="6/1"),
    "order_string": lambda: _forge_kind(THREE, "polynomial", order="1"),
    "extra_certificate_key": lambda: _forge_kind(THREE, "hankel", note="unchecked"),
    "candidate_coefficients_string": lambda: _forge_candidate(coefficients="3"),
}


def _swap_certificate(candidate, index, cert) -> dict:
    """refute_all(candidate)'s document with certificate `index` replaced by
    `cert`, written and digested as the producer writes a document."""
    certificates = list(refute_all(candidate).certificates)
    certificates[index] = cert
    return bundle_to_document(RefutationBundle(candidate, tuple(certificates)))


def _polynomial_plus_x() -> PolynomialCertificate:
    """TIMES_FOUR's polynomial certificate with p + x stored, and its own value at -1."""
    cert = refute_by_polynomial(TIMES_FOUR)
    p = cert.polynomial + Polynomial((0, 1))
    return dataclasses.replace(cert, polynomial=p, value_at_minus_order=Fraction(p(-1)))


STAY = LinearRecurrence((1,))  # b(n+1) = b(n): C_2 - C_1 = 0, so window 1 has residual 0

# Re-digested documents in which every stored field agrees with what it is
# computed from, each refused by one check of validate_document; reason pattern.
TRUST_BOUNDARY_FORGERIES = {
    "polynomial_of_another_candidate": (
        lambda: _swap_certificate(TIMES_FOUR, 1, refute_by_polynomial(LinearRecurrence((2,)))),
        "polynomial certificate coefficients differ from candidate",
    ),
    "gf_of_another_candidate": (
        lambda: _swap_certificate(TIMES_FOUR, 3, refute_by_gf(LinearRecurrence((2,)))),
        "stored p/q is not the candidate's generating function",
    ),
    "hankel_bound_below_order": (
        lambda: _swap_certificate(LinearRecurrence((1, 1)), 2, refute_by_hankel(1)),
        "hankel bound 1 below candidate order 2",
    ),
    "value_at_minus_k_off_the_closed_form": (
        lambda: _swap_certificate(TIMES_FOUR, 1, _polynomial_plus_x()),
        "value at -k does not match the closed form",
    ),
    "zero_residual_witness": (
        lambda: _swap_certificate(
            STAY, 1,
            dataclasses.replace(
                refute_by_polynomial(STAY), witness_index=1, residual=Fraction(0)
            ),
        ),
        "residual must be nonzero",
    ),
    # residual(1) = 3 and residual(2) = 2: a true residual, but not the first
    "witness_moved_to_a_later_window": (
        lambda: _swap_certificate(
            TIMES_FOUR, 1,
            dataclasses.replace(
                refute_by_polynomial(TIMES_FOUR), witness_index=2,
                residual=candidate_residual((4,), 2),
            ),
        ),
        "witness index 2 is not the first nonzero window",
    ),
}


FORGED = Path(__file__).parent / "fixtures" / "forged"


def wide_candidate_gf_bundle(order: int = 64) -> RefutationBundle:
    """TIMES_FOUR's gf certificate under a candidate of `order` coefficients
    1/d over distinct 30-digit d, written by the producer: the certificate
    validates, the candidate's common denominator (about 1,900 digits at
    order 64) is under the digit cap, and the candidate's own pair is not
    the stored x/(1 - 4x).  FORGED / "gf_link_wide_candidate.json" holds it."""
    candidate = LinearRecurrence(tuple(Fraction(1, 10**29 + j) for j in range(order)))
    return RefutationBundle(candidate, (refute_by_gf(TIMES_FOUR),))


def hankel_past_cap_text() -> str:
    """A TIMES_FOUR bundle whose Hankel certificate is consistent in size but
    one order past ORDER_CAP (determinants unchecked), digest recomputed."""
    bound = ORDER_CAP + 1
    witnesses = [{"determinant": "1", "offset": 1, "order": k} for k in range(bound + 1)]
    return _forge_kind(TIMES_FOUR, "hankel", order_bound=bound, witnesses=witnesses)


PAST_CAP = ORDER_CAP + 1


def _alone(cert, candidate=TIMES_FOUR) -> dict:
    """The document of `candidate` with `cert` as its only certificate."""
    return bundle_to_document(RefutationBundle(candidate, (cert,)))


# Documents naming one order ORDER_CAP + 1, each consistent up to the cap
# check; the one certificate runs first, so no other builds a Catalan value.
PAST_CAP_DOCUMENTS = {
    "candidate": lambda: _alone(refute_by_parity(TIMES_FOUR), LinearRecurrence((0,) * PAST_CAP)),
    "parity": lambda: _alone(_parity_of((1,) * (PAST_CAP + 1))),
    "polynomial": lambda: _alone(
        PolynomialCertificate(
            PAST_CAP, (Fraction(0),) * PAST_CAP, Polynomial((1,)), Fraction(1), 1, Fraction(1)
        )
    ),
    "hankel": lambda: _alone(
        HankelCertificate(PAST_CAP, tuple((k, 1, 1) for k in range(PAST_CAP + 1)))
    ),
    "gf_numerator": lambda: _alone(
        GfMismatchCertificate(Polynomial((0,) * PAST_CAP + (1,)), Polynomial((1,)), 1, 0, 1)
    ),
    "gf_denominator": lambda: _alone(
        GfMismatchCertificate(
            Polynomial((0, 1)), Polynomial((1,) + (0,) * (PAST_CAP - 1) + (-1,)), 2, 0, 1
        )
    ),
}


# Orders of the polynomial-field forgery tests.
FORGERY_ORDERS = (1, 2, 3, 4, 5, 6, 7, 8, 24)


@functools.cache
def genuine_bundle(k: int) -> RefutationBundle:
    """The refute_all bundle of a random order-k candidate."""
    rng = random.Random(37 + k)
    coeffs = tuple(Fraction(rng.randint(-9, 9), rng.randint(1, 9)) for _ in range(k))
    return refute_all(LinearRecurrence(coeffs))


@functools.cache
def genuine_text(k: int) -> str:
    return serialize_bundle(genuine_bundle(k))


def forge_polynomial(cert, extra_degree=0):
    """Add 7(x+k)(x-n*) x**extra_degree to p: p(-k) and p(n*) keep their values."""
    k, n = cert.order, cert.witness_index
    added = Polynomial((-7 * k * n, 7 * (k - n), 7)) * Polynomial((0,) * extra_degree + (1,))
    return dataclasses.replace(cert, polynomial=cert.polynomial + added)


def forged_polynomial_text(k: int, extra_degree=0) -> str:
    """genuine_text(k) with its polynomial field forged, digest recomputed."""
    text = genuine_text(k)
    forged = forge_polynomial(parse_bundle(text).certificates[1], extra_degree)
    fields = certificate_to_fields(forged)
    return _forge_fields(text, lambda doc: doc["certificates"].__setitem__(1, fields))


def reference_validate_gf(cert: GfMismatchCertificate) -> None:
    """validate_gf as it was before its integer check: the stored p/q
    expanded in Fractions by gfseries._expansion up to its first departure
    from C_n.  The oracle for the integer-residual check."""
    p, q = cert.numerator, cert.denominator
    if q(0) == 0:
        raise CertificateError("denominator must be nonzero at 0")
    degree = max(p.degree, q.degree)
    n = cert.mismatch_index
    if not 1 <= n <= 2 * degree + 1:
        raise CertificateError(f"mismatch index {n} outside 1..{2 * degree + 1}")
    certify_module._check_order_cap("gf degree", degree)
    catalan = [catalan_closed(i) for i in range(1, n + 1)]
    series = islice(_expansion(p, q), 1, n + 1)
    departures = ((i, s) for i, (s, c) in enumerate(zip(series, catalan), 1) if s != c)
    first, s = next(departures, (None, None))
    if first != n:
        found = f"it leaves C_{first} first" if first else f"it matches C_1..C_{n}"
        raise CertificateError(f"mismatch index {n} is not the series' first departure: {found}")
    if s != cert.series_value:
        raise CertificateError(
            f"stored series value {cert.series_value} != recomputed {certify_module._shown(s)}"
        )
    if catalan[-1] != cert.catalan_value:
        raise CertificateError(f"stored Catalan value {cert.catalan_value} != exact {catalan[-1]}")


def _refusal(check, cert) -> str | None:
    """check(cert)'s CertificateError message, None when it accepts."""
    try:
        check(cert)
    except CertificateError as exc:
        return str(exc)
    return None


# Orders of the gf oracle sweep: every one-digit forgery of the certificates
# through order 8 is checked, and a seeded sample of 30 above it.
GF_SWEEP_ORDERS = (0, 1, 2, 3, 4, 5, 6, 7, 8, 10, 12, 16, 24, 32, 48, 64)
GF_FORGED_FIELDS = ("numerator", "denominator", "mismatch_index", "series_value", "catalan_value")


@functools.cache
def gf_sweep() -> tuple:
    """refute_by_gf's certificate of one seeded candidate per GF_SWEEP_ORDERS
    order, with integer, small rational and 1/(10^20 + j) coefficients."""
    rng = random.Random(47)
    kinds = (
        lambda: Fraction(rng.randint(-9, 9)),
        lambda: Fraction(rng.randint(-9, 9), rng.randint(2, 6)),
        lambda: Fraction(1, 10**20 + rng.randrange(2)),
    )
    return tuple(
        refute_by_gf(LinearRecurrence(tuple(rng.choice(kinds)() for _ in range(k))))
        for k in GF_SWEEP_ORDERS
    )


def _digit_positions(fields) -> list:
    """(field, entry, position) of every digit in the gf fields GF_FORGED_FIELDS."""
    return [
        (name, i, at)
        for name in GF_FORGED_FIELDS
        for i, text in enumerate(fields[name] if isinstance(fields[name], list) else [str(fields[name])])
        for at, ch in enumerate(text)
        if ch.isdigit()
    ]


def _forge_gf_digit(fields, name, i, at, rng):
    """The certificate read from `fields` with that digit changed to another
    drawn from rng; None when the reader refuses the edit (a zero denominator)."""
    value = fields[name]
    texts = list(value) if isinstance(value, list) else [str(value)]
    text = texts[i]
    texts[i] = f"{text[:at]}{(int(text[at]) + rng.randint(1, 9)) % 10}{text[at + 1 :]}"
    edit = texts if isinstance(value, list) else type(value)(texts[0])
    try:
        return certificate_from_fields({**fields, name: edit})
    except CertificateError:
        return None


def _wide_denominators(count: int) -> tuple:
    """count coefficients 1/d over distinct odd d, each 300 digits short of
    the int/str conversion limit (4,000 digits by default), so every one fits
    a document while their common denominator has about count times as many."""
    base = 10 ** (sys.get_int_max_str_digits() - 301)
    return tuple(Fraction(1, base + 2 * j + 1) for j in range(count))


def _constant_polynomial_certificate(coefficients) -> PolynomialCertificate:
    """A polynomial certificate whose p is the constant p(-k): consistent up
    to the identity that ties p to the coefficients."""
    value = Fraction(polynomial_certificate_value(len(coefficients)))
    return PolynomialCertificate(
        len(coefficients), coefficients, Polynomial((value,)), value, 1, Fraction(1)
    )


def forged_document(bundle: RefutationBundle) -> dict:
    """The bundle's document as a forger writes it by hand, digest and all:
    bundle_to_document's fields without its common-denominator check."""
    doc = {
        "schema": SCHEMA_TAG,
        "candidate": {
            "order": bundle.candidate.order,
            "coefficients": [str(c) for c in bundle.candidate.coefficients],
        },
        "certificates": [certificate_to_fields(c) for c in bundle.certificates],
    }
    doc["sha256"] = certify_module._payload_digest(doc)
    return doc


# One-certificate bundles whose rationals each fit a document, but some
# common denominator has more digits than a document's integers may;
# (maker, name in the refusal).  The candidate one (64 coefficients, a
# 251 KiB document) took 28.5 s in normalize_coprime before it was refused,
# and the cost grew about 8x per doubling of the order.
DENOMINATOR_CAP_BUNDLES = {
    "candidate": (
        lambda: RefutationBundle(
            LinearRecurrence(_wide_denominators(64)), (refute_by_parity(TIMES_FOUR),)
        ),
        "candidate coefficients",
    ),
    "polynomial_coefficients": (
        lambda: RefutationBundle(
            TIMES_FOUR, (_constant_polynomial_certificate(_wide_denominators(8)),)
        ),
        "polynomial certificate coefficients",
    ),
    "polynomial_p": (
        lambda: RefutationBundle(
            TIMES_FOUR,
            (
                dataclasses.replace(
                    refute_by_polynomial(TIMES_FOUR), polynomial=Polynomial(_wide_denominators(4))
                ),
            ),
        ),
        "polynomial certificate p",
    ),
    "gf_p_and_q": (
        lambda: RefutationBundle(
            TIMES_FOUR,
            (GfMismatchCertificate(Polynomial(_wide_denominators(4)), Polynomial((1,)), 1, 0, 1),),
        ),
        "gf certificate p and q",
    ),
}


class TestParityEngine:
    def test_times_four(self):
        cert = refute_by_parity(TIMES_FOUR)
        assert cert.coprime_vector == (4, -1)
        assert cert.odd_index == 1
        assert cert.exponent == 2
        assert cert.window_start == 3
        assert cert.parity_table == (0, 1)  # C_3 = 2 even, C_4 = 5 odd
        assert cert.residual == 4 * 2 - 5 == 3

    def test_order_zero(self):
        cert = refute_by_parity(EMPTY)
        assert cert.coprime_vector == (-1,)
        assert cert.odd_index == 0
        assert cert.window_start == 1
        assert cert.residual == -1  # -C_1

    def test_fractional_coefficients(self):
        cert = refute_by_parity(LinearRecurrence((Fraction(1, 3), 2, Fraction(5, 3))))
        assert cert.coprime_vector == (1, 6, 5, -3)
        assert cert.odd_index == 0
        assert cert.exponent == 3  # least m with 2**(m-1) > 3
        assert cert.window_start == 8
        # oracle: parities of C_8..C_11 = 429, 1430, 4862, 16796
        values = [catalan_closed(n) for n in range(8, 12)]
        assert [v % 2 for v in values] == [1, 0, 0, 0]
        assert cert.parity_table == (1, 0, 0, 0)
        assert cert.residual == 1 * values[0] + 6 * values[1] + 5 * values[2] - 3 * values[3]

    def test_window_is_sole_power_of_two(self):
        for k in range(9):
            cert = refute_by_parity(LinearRecurrence((Fraction(1),) * k if k else ()))
            window = range(cert.window_start, cert.window_start + k + 1)
            powers = [n for n in window if n & (n - 1) == 0]
            assert powers == [cert.window_start + cert.odd_index]

    def test_above_cap_keeps_parity_table_only(self):
        # documents written before the order cap may carry a null residual
        cert = dataclasses.replace(refute_by_parity(TIMES_FOUR), residual=None)
        validate_certificate(cert)

    def test_validator_rejects_mutations(self):
        cert = refute_by_parity(TIMES_FOUR)
        bad = [
            dataclasses.replace(cert, coprime_vector=(8, -1)),
            dataclasses.replace(cert, odd_index=0),
            dataclasses.replace(cert, window_start=4),
            dataclasses.replace(cert, exponent=3),
            dataclasses.replace(cert, parity_table=(1, 1)),
            dataclasses.replace(cert, residual=5),
            dataclasses.replace(cert, coprime_vector=(2, -2)),
        ]
        for mutant in bad:
            with pytest.raises(CertificateError):
                validate_certificate(mutant)

    def test_forged_window_refused_before_it_is_computed(self):
        # a validator that trusted these fields would build 2**(10**10), or
        # C_n at n = 2**40 - 1 (a consistent window: 2**40 is its lone power)
        text = serialize_bundle(refute_all(TIMES_FOUR))
        forgeries = [
            _forge_fields(text, _set_parity(exponent=10**10)),
            _forge_fields(text, _set_parity(exponent=40, window_start=2**40 - 1)),
        ]
        for forged in forgeries:
            start = time.perf_counter()
            with pytest.raises(CertificateError, match="derived from the vector"):
                validate_serialized(forged)
            assert time.perf_counter() - start < 1


class TestPolynomialEngine:
    def test_worked_instance_order_one(self):
        # hand derivation for a = (4): the two degree-3 summands are
        # 4*(x+1)*x^2 and -1*x*(2x)(2x-1); their sum collapses to 6x^2,
        # p(-1) = 6, first nonzero value p(1) = 6, and the window residual
        # is 4*C_1 - C_2 = 3 with multiplier (1+1)_2 * (1!)^2 / 0! = 2.
        cert = refute_by_polynomial(TIMES_FOUR)
        assert cert.polynomial == Polynomial((0, 0, 6))
        assert cert.value_at_minus_order == 6
        assert cert.witness_index == 1
        assert cert.residual == 3
        assert cert.polynomial(1) == cert.residual * 2

    def test_value_at_minus_k_ignores_coefficients(self):
        rng = random.Random(13)
        for _ in range(6):
            coeffs = tuple(Fraction(rng.randint(-9, 9), rng.randint(1, 9)) for _ in range(2))
            cert = refute_by_polynomial(LinearRecurrence(coeffs))
            # (-1)*(-1)_2*(-2)_4 = -(2)(120)
            assert cert.value_at_minus_order == -240

    def test_closed_form_value(self):
        for k in range(1, 9):
            # oracle: direct products for (-1)_k and (-2)_{2k}
            ff1 = math.prod(range(-1, -1 - k, -1))
            ff2 = math.prod(range(-2, -2 - 2 * k, -1))
            assert polynomial_certificate_value(k) == -ff1 * ff2

    def test_summand_degrees(self):
        # the from-factors S_j have degree 3k and the ratio the engine's
        # build rests on: S_j (x+j) = 2(2x+2j-3) S_{j-1}
        for k in range(17):
            previous = summand_polynomial(k, 0)
            assert previous.degree == 3 * k
            for j in range(1, k + 1):
                s = summand_polynomial(k, j)
                assert s.degree == 3 * k
                assert s * Polynomial((j, 1)) == previous * Polynomial((4 * j - 6, 4))
                previous = s

    # the from-factors summands, built once per (k, j) across the cases
    reference_summand = staticmethod(functools.lru_cache(maxsize=None)(summand_polynomial))

    @classmethod
    def assert_weighted_sum_of_reference_summands(cls, coeffs):
        """p is sum_j a_j S_j over the from-factors summands, a_k = -1, with
        every coefficient a Fraction: the integer sum of the cleared a_j
        times the integer S_j, over the one common denominator."""
        k = len(coeffs)
        cert = refute_by_polynomial(LinearRecurrence(tuple(coeffs)))
        weights, scale = linalg.clear_denominators([*coeffs, Fraction(-1)])
        total = [0] * (3 * k + 1)
        for j, w in enumerate(weights):
            if w:  # a zero a_j adds nothing
                total = [t + w * c for t, c in zip(total, cls.reference_summand(k, j).coeffs)]
        expected = Polynomial(Fraction(c, scale) for c in total)
        assert cert.polynomial == expected
        assert all(type(c) is Fraction for c in cert.polynomial.coeffs)
        assert cert.value_at_minus_order == expected(-k)

    def test_polynomial_is_the_weighted_sum_of_reference_summands(self):
        rng = random.Random(25)
        for k in range(1, 25):
            coeffs = [Fraction(rng.randint(-9, 9), rng.randint(1, 9)) for _ in range(k)]
            coeffs[rng.randrange(k)] = Fraction(0)
            self.assert_weighted_sum_of_reference_summands(coeffs)

    @pytest.mark.parametrize(
        "coeffs",
        [
            (1, 2, 3, 4, 5),  # integers: the scale is 1
            (-7, 0, 10**30, 1),
            tuple(Fraction(1, 10**20 + j) for j in range(6)),  # lcm of the denominators near 10^120
            (Fraction(-3, 10**20 + 1), Fraction(5, 10**20 + 7), 2, Fraction(1, 3)),
            (0, 0, 0, 0, Fraction(1, 2)),  # several zero weights
            (0, Fraction(2, 3), 0, 0, Fraction(-5, 7), 0, 0),
            (0,) * 9,  # every a_j zero: p = -S_k
            # past the bench's orders: zero weights, an lcm near 10^(20k), all a_j zero
            *(tuple(Fraction(j % 3 - 1, j % 4 + 1) if j % 5 == 0 else 0 for j in range(k))
              for k in (32, 64, 128)),
            *(tuple(Fraction(1, 10**20 + j) for j in range(k)) for k in (32, 64, 128)),
            *((0,) * k for k in (32, 64, 128)),
        ],
    )
    def test_integer_sum_matches_the_fraction_sum(self, coeffs):
        self.assert_weighted_sum_of_reference_summands(list(coeffs))

    def test_summation_does_no_polynomial_arithmetic(self, monkeypatch):
        # p is built on integer lists, never by Polynomial + or *
        calls = []
        for name in ("__add__", "__radd__", "__mul__", "__rmul__"):
            original = getattr(Polynomial, name)

            def counting(self, other, name=name, original=original):
                calls.append(name)
                return original(self, other)

            monkeypatch.setattr(Polynomial, name, counting)
        cert = refute_by_polynomial(LinearRecurrence((1, Fraction(1, 2), 0, -3, Fraction(4, 9), 5)))
        assert calls == []
        assert cert.value_at_minus_order == polynomial_certificate_value(6)

    def test_engine_builds_no_summand_from_factors(self, monkeypatch):
        calls = []
        for name in ("summand_polynomial", "linear_factor_product"):
            original = getattr(certify_module, name)

            def counting(*args, name=name, original=original):
                calls.append(name)
                return original(*args)

            monkeypatch.setattr(certify_module, name, counting)
        refute_by_polynomial(LinearRecurrence((1, 2, 3, 4, 5)))
        assert calls == []

    def test_order_zero_delegates(self):
        with pytest.raises(ValueError):
            refute_by_polynomial(EMPTY)

    def test_validator_rejects_mutations(self):
        cert = refute_by_polynomial(TIMES_FOUR)
        bad = [
            dataclasses.replace(cert, polynomial=Polynomial((0, 0, 5))),
            dataclasses.replace(cert, value_at_minus_order=Fraction(5)),
            dataclasses.replace(cert, witness_index=2),
            dataclasses.replace(cert, residual=Fraction(4)),
            dataclasses.replace(cert, coefficients=(Fraction(5),)),
        ]
        for mutant in bad:
            with pytest.raises(CertificateError):
                validate_certificate(mutant)

    @pytest.mark.parametrize("k", FORGERY_ORDERS)
    def test_polynomial_forgery_rejected(self, k):
        cert = parse_bundle(genuine_text(k)).certificates[1]
        forged = forge_polynomial(cert)
        assert forged.polynomial(-k) == cert.value_at_minus_order
        assert forged.polynomial(cert.witness_index) == cert.polynomial(cert.witness_index)
        with pytest.raises(CertificateError, match="not the candidate's"):
            validate_certificate(forged)
        with pytest.raises(CertificateError, match="not the candidate's"):
            validate_serialized(forged_polynomial_text(k))
        raised = forge_polynomial(cert, extra_degree=3 * k - 1)
        assert raised.polynomial.degree == 3 * k + 1
        with pytest.raises(CertificateError, match=f"degree <= {3 * k}"):
            validate_certificate(raised)
        with pytest.raises(CertificateError, match=f"degree <= {3 * k}"):
            validate_serialized(forged_polynomial_text(k, extra_degree=3 * k - 1))


class TestHankelEngine:
    def test_order_zero(self):
        cert = refute_by_hankel(0)
        assert cert.witnesses == ((0, 1, 1),)

    def test_order_one(self):
        cert = refute_by_hankel(1)
        assert cert.witnesses[1] == (1, 1, 1)  # det ((1,1),(1,2)) = 1

    def test_order_ten(self):
        cert = refute_by_hankel(10)
        assert len(cert.witnesses) == 11
        assert all(det != 0 for _, _, det in cert.witnesses)

    def test_engine_makes_one_pass(self, monkeypatch):
        bounds = []
        check = certify_module._check_catalan_hankel

        def counting(bound):
            bounds.append(bound)
            return check(bound)

        monkeypatch.setattr(certify_module, "_check_catalan_hankel", counting)
        refute_by_hankel(6)
        assert bounds == [6]

    def test_cofactor_oracle(self):
        seq = catalan_convolution(10)

        def cofactor(matrix):
            if len(matrix) == 1:
                return matrix[0][0]
            return sum(
                (-1) ** j
                * matrix[0][j]
                * cofactor([row[:j] + row[j + 1 :] for row in matrix[1:]])
                for j in range(len(matrix))
            )

        cert = refute_by_hankel(3)
        for k, offset, det in cert.witnesses:
            rows = [seq.window(offset + i, k + 1) for i in range(k + 1)]
            assert det == cofactor(rows)

    def test_validator_rejects_mutations(self):
        cert = refute_by_hankel(2)
        bad = [
            dataclasses.replace(cert, witnesses=cert.witnesses[:-1]),
            dataclasses.replace(cert, witnesses=((0, 1, 1), (1, 1, 2), cert.witnesses[2])),
            dataclasses.replace(cert, witnesses=((0, 1, 0), *cert.witnesses[1:])),
        ]
        for mutant in bad:
            with pytest.raises(CertificateError):
                validate_certificate(mutant)

    def test_one_pass_matches_per_order_oracle(self):
        seq = catalan_convolution(49)
        oracle = [(k, 1, hankel_nonsingular_witness(seq, k, 1)) for k in range(25)]
        assert refute_by_hankel(24).witnesses == tuple(oracle)
        for bound in (0, 1, 7, 13):
            assert refute_by_hankel(bound).witnesses == tuple(oracle[: bound + 1])

    def test_validator_refuses_mixed_offsets(self):
        seq = catalan_convolution(40)
        witnesses = tuple(
            (k, 1 + k % 3, int(hankel_nonsingular_witness(seq, k, 1 + k % 3)))
            for k in range(12)
        )
        assert {det for k, offset, det in witnesses if offset == 3} != {1}
        with pytest.raises(CertificateError, match="witness 1 is at order 1, offset 2"):
            validate_certificate(HankelCertificate(11, witnesses))

    def test_true_minor_off_offset_one_refused(self):
        seq = catalan_convolution(40)
        bound = 5
        for offset in (2 * bound + 1, 2 * bound + 2):
            offsets = [1] * bound + [offset]
            witnesses = tuple(
                (k, at, int(hankel_nonsingular_witness(seq, k, at))) for k, at in enumerate(offsets)
            )
            with pytest.raises(CertificateError, match=f"witness 5 is at order 5, offset {offset};"):
                validate_certificate(HankelCertificate(bound, witnesses))

    def test_layout_checked_before_any_catalan_value(self, monkeypatch):
        # 330 is the true order-2 window determinant of C_5..C_9
        assert linalg.hankel_minors([catalan_closed(n) for n in range(5, 10)])[2] == 330

        def unreachable(start, count):
            raise AssertionError("a Catalan value was built")

        monkeypatch.setattr(certify_module, "_catalan_table", unreachable)
        for witnesses, message in (
            (((0, 1, 1), (1, 1, 1), (2, 5, 330)), "witness 2 is at order 2, offset 5; need order 2"),
            (((0, 2, 1),), "witness 0 is at order 0, offset 2; need order 0"),
            (((0, 1, 1), (1, 0, 1)), "witness 1 is at order 1, offset 0; need order 1"),
            (((0, 1, 1), (1, 1, 1), (2, 10**30, 1)), f"witness 2 is at order 2, offset {10**30}"),
            (((0, 1, 1), (2, 1, 1), (1, 1, 1)), "witness 1 is at order 2, offset 1; need order 1"),
        ):
            cert = HankelCertificate(len(witnesses) - 1, witnesses)
            with pytest.raises(CertificateError, match=f"^{message}"):
                validate_certificate(cert)

    def test_validator_makes_one_pass(self, monkeypatch):
        cert = refute_by_hankel(9)
        bounds = []
        check = certify_module._check_catalan_hankel

        def counting(bound):
            bounds.append(bound)
            return check(bound)

        monkeypatch.setattr(certify_module, "_check_catalan_hankel", counting)
        validate_certificate(cert)
        assert bounds == [9]

    def test_witness_count_checked_first(self):
        cert = refute_by_hankel(2)
        for bound in (-1, 1, 3, 10**30):
            with pytest.raises(CertificateError, match="cannot cover orders"):
                validate_certificate(dataclasses.replace(cert, order_bound=bound))
        with pytest.raises(CertificateError, match="cannot cover orders"):
            validate_certificate(HankelCertificate(-1, ()))

    def test_order_bound_cap(self):
        assert ORDER_CAP >= 128
        start = time.perf_counter()
        with pytest.raises(ResourceLimitError, match="past the cap of"):
            validate_serialized(hankel_past_cap_text())
        with pytest.raises(ResourceLimitError, match="past the cap of"):
            refute_by_hankel(ORDER_CAP + 1)
        assert time.perf_counter() - start < 1
        # the count check comes first, so an inconsistent bound stays a CertificateError
        with pytest.raises(CertificateError, match="cannot cover orders"):
            validate_certificate(HankelCertificate(ORDER_CAP + 1, ((0, 1, 1),)))

    def test_order_128_document_validates(self):
        for bound in (128, 512):
            bundle = refute_all(TIMES_FOUR, hankel_bound=bound)
            assert validate_serialized(serialize_bundle(bundle)) == bundle

    def test_path_check_matches_the_bareiss_oracle(self):
        for bound in range(65):
            table = certify_module._catalan_table(1, 2 * bound + 1)
            certify_module._check_catalan_hankel(bound)  # raises unless the path moments match
            assert linalg.hankel_minors(table) == [1] * (bound + 1)

    @pytest.mark.parametrize("bound", [0, 1, 6, 24])
    def test_corrupted_catalan_value_refused(self, monkeypatch, bound):
        cert = refute_by_hankel(bound)
        table = certify_module._catalan_table
        for index in range(2 * bound + 1):

            def corrupted(start, count, index=index):
                values = table(start, count)
                values[index] += 1
                return values

            monkeypatch.setattr(certify_module, "_catalan_table", corrupted)
            message = f"^path moment B_\\({index}, 0\\) != C_{index + 1}$"
            with pytest.raises(CertificateError, match=message):
                validate_certificate(cert)
            with pytest.raises(CertificateError, match=message):
                refute_by_hankel(bound)

    def test_validator_messages(self):
        cert = refute_by_hankel(3)
        cases = [
            ((0, 1, 1), (1, 1, 2), "order 1: stored determinant 2 != 1, the Catalan value"),
            ((0, 1, 0), (1, 1, 1), "zero determinant certifies nothing at order 0"),
        ]
        for first, second, message in cases:
            mutant = dataclasses.replace(cert, witnesses=(first, second, *cert.witnesses[2:]))
            with pytest.raises(CertificateError, match=f"^{re.escape(message)}$"):
                validate_certificate(mutant)


class TestCatalanTable:
    def test_matches_the_closed_formula(self):
        rng = random.Random(16)
        starts = [rng.randrange(1, 700) for _ in range(30)]
        # parity windows start at 2**m - l with l < 2**(m-1)
        starts += [2**m - rng.randrange(2 ** (m - 1)) for m in range(1, 11) for _ in range(3)]
        for start in starts:
            count = rng.randrange(40)
            expected = [catalan_closed(n) for n in range(start, start + count)]
            assert certify_module._catalan_table(start, count) == expected
        assert certify_module._catalan_table(5, 0) == []


class TestGfEngine:
    def test_times_four(self):
        cert = refute_by_gf(TIMES_FOUR)
        assert cert.numerator == Polynomial((0, 1))
        assert cert.denominator == Polynomial((1, -4))
        assert cert.mismatch_index == 2
        assert cert.series_value == 4
        assert cert.catalan_value == 1

    def test_order_zero(self):
        cert = refute_by_gf(EMPTY)
        assert cert.numerator.is_zero
        assert cert.mismatch_index == 1
        assert cert.series_value == 0 and cert.catalan_value == 1

    def test_no_guessable_candidate_exists(self):
        # the converse direction: short Catalan data already defeats the guesser
        assert guess_recurrence(catalan_convolution(10), 4) is None

    def test_mismatch_within_linear_bound(self):
        rng = random.Random(17)
        for _ in range(10):
            k = rng.randint(1, 5)
            coeffs = tuple(Fraction(rng.randint(-6, 6)) for _ in range(k))
            cert = refute_by_gf(LinearRecurrence(coeffs))
            assert cert.mismatch_index <= 2 * k + 1

    def test_mismatch_at_the_bound(self):
        # solving the order-k Catalan windows gives a candidate matching C_1..C_{2k}
        for k in (3, 6, 10):
            rows = [[catalan_closed(n + j) for j in range(k)] for n in range(1, k + 1)]
            rhs = [catalan_closed(n + k) for n in range(1, k + 1)]
            cert = refute_by_gf(LinearRecurrence(linalg.solve(rows, rhs)))
            assert cert.mismatch_index == 2 * k + 1

    def test_matches_deep_scan(self):
        rng = random.Random(29)
        for _ in range(20):
            k = rng.randint(0, 9)
            candidate = LinearRecurrence(
                tuple(Fraction(rng.randint(-9, 9), rng.randint(1, 9)) for _ in range(k))
            )
            rf = rational_gf(candidate, [catalan_closed(n) for n in range(1, k + 1)])
            series = expand_rational(rf, 3 * k + 20)
            n = next(n for n in range(1, 3 * k + 21) if series.coefficient(n) != catalan_closed(n))
            oracle = GfMismatchCertificate(
                rf.numerator, rf.denominator, n, series.coefficient(n), catalan_closed(n)
            )
            assert certificate_to_fields(refute_by_gf(candidate)) == certificate_to_fields(oracle)

    def test_no_mismatch_within_bound_raises(self, monkeypatch):
        # every residual is forced to 0, as if the series matched C_1..C_{2k+1}
        monkeypatch.setattr(
            certify_module, "_window_sums", lambda vector, start, count: [0] * count
        )
        with pytest.raises(CertificateError, match="proven bound"):
            refute_by_gf(TIMES_FOUR)

    def test_mismatch_is_the_polynomial_witness(self):
        # the series leaves the Catalan one at the first window with a
        # nonzero residual: index k + n*, value C_{k+n*} + residual
        rng = random.Random(41)
        candidates = []
        for _ in range(100):
            k = rng.randint(1, 6)
            coeffs = (Fraction(rng.randint(-9, 9), rng.randint(1, 9)) for _ in range(k))
            candidates.append(tuple(coeffs))
        exact_fits = []
        for k in (2, 5, 9):
            rows = [[catalan_closed(n + j) for j in range(k)] for n in range(1, k + 1)]
            rhs = [catalan_closed(n + k) for n in range(1, k + 1)]
            exact_fits.append(linalg.solve(rows, rhs))
        for coeffs in candidates + exact_fits:
            candidate = LinearRecurrence(coeffs)
            poly, gf = refute_by_polynomial(candidate), refute_by_gf(candidate)
            k = len(coeffs)
            assert gf.mismatch_index == k + poly.witness_index
            assert gf.series_value == gf.catalan_value + poly.residual
            assert poly.residual == candidate_residual(coeffs, poly.witness_index)
            if coeffs in exact_fits:
                assert poly.witness_index == k + 1

    def test_mismatch_is_first_and_within_degree_bound(self):
        # the first n >= 1 where the series of p/q leaves C_n is at most
        # 2 max(deg p, deg q) + 1, with equality for exact fits; 30 % of the
        # random candidates have a_0 = 0, so a shorter q, and for (1 - a, a)
        # p = x + (1 - a) x**2 shares its root with q, so p/q reduces
        rng = random.Random(43)
        candidates = []
        for _ in range(120):
            k = rng.randint(1, 8)
            coeffs = [Fraction(rng.randint(-4, 4), rng.randint(1, 3)) for _ in range(k)]
            if rng.random() < 0.3:
                coeffs[0] = Fraction(0)
            candidates.append(tuple(coeffs))
        candidates += [(Fraction(1 - a), Fraction(a)) for a in (-4, -3, -2, -1, 0, 2, 3, 5)]
        exact_fits = []
        for k in (1, 2, 3, 5, 9, 12):
            rows = [[catalan_closed(n + j) for j in range(k)] for n in range(1, k + 1)]
            rhs = [catalan_closed(n + k) for n in range(1, k + 1)]
            exact_fits.append(tuple(linalg.solve(rows, rhs)))
        short_or_reduced = 0
        for coeffs in candidates + exact_fits:
            cert = refute_by_gf(LinearRecurrence(coeffs))
            d = max(cert.numerator.degree, cert.denominator.degree)
            short_or_reduced += cert.denominator.degree < len(coeffs)
            rf = RationalFunction(cert.numerator, cert.denominator)
            series = expand_rational(rf, 2 * d + 1).coefficients
            first = next(n for n in range(1, 2 * d + 2) if series[n] != catalan_closed(n))
            assert cert.mismatch_index == first
            if coeffs in exact_fits:
                assert first == 2 * d + 1
        assert short_or_reduced >= 50

    def test_integer_check_matches_the_fraction_expansion(self):
        # verdicts and messages of validate_gf and of the Fraction expansion
        # it replaced, on genuine certificates and their one-digit forgeries
        rng = random.Random(53)
        refusals = set()
        for k, cert in zip(GF_SWEEP_ORDERS, gf_sweep()):
            assert _refusal(certify_module.validate_gf, cert) is None
            assert _refusal(reference_validate_gf, cert) is None
            fields = certificate_to_fields(cert)
            positions = _digit_positions(fields)
            if k > 8:
                positions = rng.sample(positions, 30)
            for position in positions:
                forged = _forge_gf_digit(fields, *position, rng)
                if forged is None:
                    continue
                refusal = _refusal(certify_module.validate_gf, forged)
                assert refusal == _refusal(reference_validate_gf, forged)
                refusals.add(refusal and re.sub(r"[-/\d]+", "N", refusal))
        assert refusals == {
            None,  # a leading digit turned to 0
            "denominator must be nonzero at N",
            "mismatch index N outside N..N",
            "mismatch index N is not the series' first departure: it leaves C_N first",
            "mismatch index N is not the series' first departure: it matches C_N..C_N",
            "stored series value N != recomputed N",
            "stored Catalan value N != exact N",
        }

    def test_validator_expands_no_fraction_series(self, monkeypatch):
        # it expanded the stored p/q in Fractions through gfseries._expansion
        certs = (refute_by_gf(TIMES_FOUR),) + gf_sweep()  # the producer's self-check expands
        calls = []

        def counted(p, q):
            calls.append((p, q))
            return _expansion(p, q)

        monkeypatch.setattr(gfseries_module, "_expansion", counted)
        monkeypatch.setattr(certify_module, "_expansion", counted, raising=False)
        for cert in certs:
            validate_certificate(cert)
        assert calls == []

    def test_validator_rejects_mutations(self):
        cert = refute_by_gf(TIMES_FOUR)
        bad = [
            dataclasses.replace(cert, mismatch_index=3),
            dataclasses.replace(cert, series_value=Fraction(5)),
            dataclasses.replace(cert, catalan_value=4),
            dataclasses.replace(cert, denominator=Polynomial((1, -3))),
        ]
        for mutant in bad:
            with pytest.raises(CertificateError):
                validate_certificate(mutant)


class TestRefuteAll:
    def test_full_bundle(self):
        bundle = refute_all(TIMES_FOUR)
        kinds = [type(c) for c in bundle.certificates]
        assert kinds == [
            ParityCertificate,
            PolynomialCertificate,
            HankelCertificate,
            GfMismatchCertificate,
        ]

    def test_order_zero_skips_polynomial(self):
        bundle = refute_all(EMPTY)
        kinds = [type(c) for c in bundle.certificates]
        assert kinds == [ParityCertificate, HankelCertificate, GfMismatchCertificate]
        hankel = bundle.certificates[1]
        assert hankel.order_bound == 0

    def test_cross_engine_agreement(self):
        rng = random.Random(19)
        for _ in range(10):
            k = rng.randint(1, 4)
            coeffs = tuple(Fraction(rng.randint(-9, 9), rng.randint(1, 9)) for _ in range(k))
            bundle = refute_all(LinearRecurrence(coeffs))
            parity = bundle.certificates[0]
            # the exact residual, when present, is odd and hence nonzero
            assert parity.residual is not None
            assert parity.residual % 2 == 1
            poly = bundle.certificates[1]
            assert poly.residual == candidate_residual(coeffs, poly.witness_index)

    def test_each_check_runs_once(self, monkeypatch):
        # the engines build without checking; refute_all checks each
        # certificate once, with the pair validate_document runs
        calls = count_checks(monkeypatch)
        refute_all(LinearRecurrence((Fraction(1, 2), 3, -2)))
        assert calls == dict.fromkeys(CHECKS, 1)

    def test_hankel_bound_below_the_order_refused(self):
        # it wrote a document its own validator refuses ("below candidate order")
        fibonacci = LinearRecurrence((1, 1))
        for bound in (0, 1):
            message = f"hankel bound {bound} is below the candidate's order 2"
            with pytest.raises(ValueError, match=message):
                refute_all(fibonacci, hankel_bound=bound)
        bundle = refute_all(fibonacci, hankel_bound=2)
        assert validate_serialized(serialize_bundle(bundle)) == bundle


class TestOrderCap:
    @pytest.mark.parametrize("name", sorted(PAST_CAP_DOCUMENTS))
    def test_document_past_the_cap_refused_before_any_catalan_value(self, monkeypatch, name):
        doc = PAST_CAP_DOCUMENTS[name]()
        calls = []
        table = certify_module._catalan_table
        monkeypatch.setattr(
            certify_module, "_catalan_table", lambda *args: calls.append(args) or table(*args)
        )
        with pytest.raises(ResourceLimitError, match=f"{PAST_CAP} is past the cap of {ORDER_CAP}"):
            validate_document(doc)
        assert calls == []

    def test_engines_refuse_orders_past_the_cap(self, monkeypatch):
        calls = []
        table = certify_module._catalan_table
        monkeypatch.setattr(
            certify_module, "_catalan_table", lambda *args: calls.append(args) or table(*args)
        )
        past = LinearRecurrence((0,) * PAST_CAP)
        for refute in (refute_all, refute_by_parity, refute_by_polynomial, refute_by_gf):
            with pytest.raises(ResourceLimitError, match=f"candidate order {PAST_CAP}"):
                refute(past)
        with pytest.raises(ResourceLimitError, match=f"hankel order bound {PAST_CAP}"):
            refute_all(TIMES_FOUR, hankel_bound=PAST_CAP)
        assert calls == []

    def test_parity_document_of_order_ten_thousand_refused_in_little_memory(self):
        # it once built 10,001 Catalan numbers near C_32768 and escaped as ValueError
        k = 10_000
        candidate = LinearRecurrence((1,) * k)
        cert = _parity_of((1,) * k + (-1,))
        text = serialize_bundle(RefutationBundle(candidate, (cert,)))
        tracemalloc.start()
        try:
            with pytest.raises(ResourceLimitError, match=f"candidate order {k} is past the cap"):
                validate_serialized(text)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 5 * 2**20
        with pytest.raises(ResourceLimitError, match=f"parity vector order {k} is past the cap"):
            validate_certificate(cert)

    def test_overlong_lists_refused_before_any_field_is_read(self, monkeypatch):
        # 0.8 MB each: the k = 100,000 parity document once took 0.77 s to refuse
        k = 100_000
        past_order = serialize_bundle(
            RefutationBundle(LinearRecurrence((1,) * k), (_parity_of((1,) * k + (-1,)),))
        )
        long_table = _forge_kind(TIMES_FOUR, "parity", parity_table=[0] * k)
        reads = []
        read = certify_module.document_to_bundle
        monkeypatch.setattr(
            certify_module, "document_to_bundle", lambda doc: reads.append(doc) or read(doc)
        )
        for text, message in (
            (past_order, f"candidate order {k} is past the cap of {ORDER_CAP}"),
            (long_table, f"a list of {k} entries is past the cap of {LIST_CAP}"),
        ):
            seconds = []
            for _ in range(3):
                start = time.perf_counter()
                with pytest.raises(ResourceLimitError, match=message):
                    validate_serialized(text)
                seconds.append(time.perf_counter() - start)
            assert min(seconds) < 0.1
        assert reads == []

    def test_list_cap_is_the_polynomial_length_at_the_order_cap(self):
        # p of an order-k polynomial certificate has 3k + 1 coefficients
        assert LIST_CAP == 3 * ORDER_CAP + 1
        assert len(refute_by_polynomial(LinearRecurrence((1,) * 5)).polynomial.coeffs) == 16
        at_cap = _forge_kind(TIMES_FOUR, "polynomial", polynomial=["1"] * LIST_CAP)
        with pytest.raises(CertificateError):  # refused on its merits, not its length
            validate_serialized(at_cap)
        past_cap = _forge_kind(TIMES_FOUR, "polynomial", polynomial=["1"] * (LIST_CAP + 1))
        with pytest.raises(ResourceLimitError, match=f"a list of {LIST_CAP + 1} entries"):
            validate_serialized(past_cap)
        bundle = refute_all(TIMES_FOUR, hankel_bound=ORDER_CAP)
        assert validate_serialized(serialize_bundle(bundle)) == bundle

    def test_parity_residual_written_at_the_cap(self):
        # the window of order ORDER_CAP ends at C_5120, past the old residual cap C_5000
        cert = refute_by_parity(LinearRecurrence((1,) * ORDER_CAP))
        assert cert.window_start + ORDER_CAP == 5120 and cert.residual is not None


class TestDenominatorCap:
    @pytest.mark.parametrize("name", sorted(DENOMINATOR_CAP_BUNDLES))
    def test_wide_common_denominator_refused_before_normalize_coprime(self, monkeypatch, name):
        make, what = DENOMINATOR_CAP_BUNDLES[name]
        doc = forged_document(make())
        calls = []

        def refuse(rec):
            calls.append(rec)
            raise AssertionError("normalize_coprime ran on the document")

        monkeypatch.setattr(certify_module, "normalize_coprime", refuse)
        limit = sys.get_int_max_str_digits()
        with pytest.raises(ResourceLimitError, match=f"^{what}: a common denominator has more than {limit} digits"):
            validate_document(doc)
        assert calls == []

    @pytest.mark.parametrize("name", sorted(DENOMINATOR_CAP_BUNDLES))
    def test_writer_refuses_what_the_validator_refuses(self, name):
        make, what = DENOMINATOR_CAP_BUNDLES[name]
        limit = sys.get_int_max_str_digits()
        with pytest.raises(ResourceLimitError, match=f"^{what}: a common denominator has more than {limit} digits"):
            bundle_to_document(make())

    def test_genuine_documents_pass_the_cap(self):
        for k in (1, 8, 24):
            bundle = genuine_bundle(k)
            assert validate_document(bundle_to_document(bundle)) == bundle
        # a Hankel certificate clears no denominator: its document is written
        # and validated whatever the candidate's common denominator
        bundle = RefutationBundle(BIG_DENOMINATORS, (refute_by_hankel(2),))
        assert validate_document(bundle_to_document(bundle)) == bundle

    def test_engines_keep_wide_candidates(self):
        # the cap bounds documents: the engines and their self-checks still
        # refute a candidate whose common denominator is past the limit, and
        # only writing the certificate raises
        wide = LinearRecurrence(_wide_denominators(2))
        for cert in (refute_by_polynomial(wide), refute_by_gf(wide)):
            validate_certificate(cert)
            with pytest.raises(ResourceLimitError):
                bundle_to_document(RefutationBundle(wide, (cert,)))

    def test_cap_is_the_digit_limit(self, monkeypatch):
        # the common denominator 3 * 10**5 has 6 digits
        values = [Fraction(1, 10**5), Fraction(1, 3)]
        monkeypatch.setattr(certify_module, "_digit_limit", lambda: 6)
        certify_module._check_common_denominator(values, "values")
        monkeypatch.setattr(certify_module, "_digit_limit", lambda: 5)
        with pytest.raises(ResourceLimitError, match=r"^values: a common denominator has more than 5 digits"):
            certify_module._check_common_denominator(values, "values")
        monkeypatch.setattr(certify_module, "_digit_limit", lambda: 0)  # no limit
        certify_module._check_common_denominator(_wide_denominators(8), "values")

    def test_the_lcm_stops_at_the_cap(self, monkeypatch):
        # past the cap no further lcm is taken, however many values follow
        calls = []
        lcm = math.lcm
        monkeypatch.setattr(math, "lcm", lambda *args: calls.append(args) or lcm(*args))
        monkeypatch.setattr(certify_module, "_digit_limit", lambda: 10)
        values = [Fraction(1, 10**6 + 2 * j + 1) for j in range(100)]
        with pytest.raises(ResourceLimitError):
            certify_module._check_common_denominator(values, "values")
        assert len(calls) == 2


class TestSerialization:
    def test_round_trip_bit_exact(self):
        for candidate in (TIMES_FOUR, EMPTY, LinearRecurrence((Fraction(1, 3), 2, Fraction(5, 3)))):
            bundle = refute_all(candidate)
            text = serialize_bundle(bundle)
            assert parse_bundle(text) == bundle
            assert serialize_bundle(parse_bundle(text)) == text

    def test_certificate_fields_round_trip(self):
        for k in range(10):
            for cert in genuine_bundle(k).certificates:
                fields = certificate_to_fields(cert)
                assert certificate_from_fields(json.loads(json.dumps(fields))) == cert

    def test_format_table_matches_the_certificate_types(self):
        table = certify_module._FORMAT
        assert set(table) == set(certify_module._VALIDATORS)
        kinds = [kind for kind, _ in table.values()]
        assert sorted(kinds) == sorted(set(kinds))
        for cls, (_, fields) in table.items():
            assert [name for name, _ in fields] == [f.name for f in dataclasses.fields(cls)]

    @pytest.mark.parametrize("name", sorted(NON_CANONICAL_FORMS))
    def test_non_canonical_forms_refused(self, name):
        text = NON_CANONICAL_FORMS[name]()
        assert parse_bundle(text) == refute_all(THREE)
        with pytest.raises(CertificateError, match="not in its written form"):
            validate_serialized(text)
        with pytest.raises(CertificateError, match="not in its written form"):
            validate_document(json.loads(text))

    def test_serialized_validates_standalone(self):
        text = serialize_bundle(refute_all(TIMES_FOUR))
        bundle = validate_serialized(text)
        assert bundle.candidate == TIMES_FOUR

    def test_determinism(self):
        a = serialize_bundle(refute_all(TIMES_FOUR))
        b = serialize_bundle(refute_all(TIMES_FOUR))
        assert a == b

    def test_schema_tag_checked(self):
        doc = bundle_to_document(refute_all(TIMES_FOUR))
        doc["schema"] = "cfinite-cert/2"
        with pytest.raises(CertificateError):
            validate_document(doc)

    def test_digest_protects_payload(self):
        doc = bundle_to_document(refute_all(TIMES_FOUR))
        doc["certificates"][0]["residual"] = 5
        with pytest.raises(CertificateError, match="digest"):
            validate_document(doc)

    def test_candidate_link_enforced(self):
        bundle = refute_all(TIMES_FOUR)
        other = refute_all(LinearRecurrence((2,)))
        franken = RefutationBundle(
            bundle.candidate,
            (other.certificates[0],) + bundle.certificates[1:],
        )
        doc = certify_module.bundle_to_document(franken)
        with pytest.raises(CertificateError, match="normalization"):
            validate_document(doc)

    def test_gf_link_compares_the_pair_before_the_self_check(self, monkeypatch):
        # the link ran rational_gf's 3k + 10-term Fraction re-expansion on the
        # candidate before comparing; on this document that took about 40 s
        text = (FORGED / "gf_link_wide_candidate.json").read_text()
        assert text == serialize_bundle(wide_candidate_gf_bundle())
        genuine = serialize_bundle(refute_all(TIMES_FOUR))
        calls = []
        check = gfseries_module._check_rational_gf

        def counting(*args):
            calls.append(args)
            return check(*args)

        monkeypatch.setattr(gfseries_module, "_check_rational_gf", counting)
        with pytest.raises(
            CertificateError, match="stored p/q is not the candidate's generating function"
        ):
            validate_serialized(text)
        assert calls == []
        validate_serialized(genuine)  # a matching pair is still re-expanded
        assert len(calls) == 1

    @pytest.mark.parametrize("name", sorted(TRUST_BOUNDARY_FORGERIES))
    def test_trust_boundary_refusals(self, name):
        build, reason = TRUST_BOUNDARY_FORGERIES[name]
        doc = build()
        with pytest.raises(CertificateError, match=re.escape(reason)):
            validate_document(doc)
        with pytest.raises(CertificateError, match=re.escape(reason)):
            validate_serialized(json.dumps(doc))

    def test_single_digit_flips_always_fail(self):
        text = serialize_bundle(refute_all(TIMES_FOUR))
        digit_positions = [i for i, ch in enumerate(text) if ch.isdigit()]
        assert digit_positions
        for i in digit_positions:
            old = text[i]
            new = "1" if old != "1" else "2"
            tampered = text[:i] + new + text[i:][1:]
            with pytest.raises(CertificateError):
                validate_serialized(tampered)

    def test_zero_denominator_rejected(self):
        doc = bundle_to_document(refute_all(TIMES_FOUR))
        doc["candidate"]["coefficients"][0] = "4/0"
        doc["sha256"] = certify_module._payload_digest(doc)
        with pytest.raises(CertificateError, match="malformed document"):
            validate_document(doc)
        doc = bundle_to_document(refute_all(TIMES_FOUR))
        doc["certificates"][1]["residual"] = "3/0"
        doc["sha256"] = certify_module._payload_digest(doc)
        with pytest.raises(CertificateError, match="malformed"):
            validate_document(doc)

    def test_gf_denominator_vanishing_at_zero_rejected(self):
        doc = bundle_to_document(refute_all(TIMES_FOUR))
        gf = next(c for c in doc["certificates"] if c["kind"] == "gf-mismatch")
        gf["denominator"][0] = "0"
        doc["sha256"] = certify_module._payload_digest(doc)
        with pytest.raises(CertificateError, match="nonzero at 0"):
            validate_document(doc)

    def test_integer_past_the_digit_limit_refused_at_the_producer(self):
        # the coprime vector of this candidate has 16,610-bit entries
        bundle = RefutationBundle(BIG_DENOMINATORS, (refute_by_parity(BIG_DENOMINATORS),))
        limit = sys.get_int_max_str_digits()
        message = f"parity.coprime_vector .* more than {limit} digits"
        with pytest.raises(ResourceLimitError, match=message):
            bundle_to_document(bundle)
        with pytest.raises(ResourceLimitError, match=message):
            serialize_bundle(bundle)

    def test_digit_limit_covers_both_parts_of_rationals(self):
        limit = sys.get_int_max_str_digits()
        for value in (Fraction(10**limit, 3), Fraction(1, 10**limit)):
            with pytest.raises(ResourceLimitError, match="candidate.coefficients"):
                bundle_to_document(RefutationBundle(LinearRecurrence((value,)), ()))
        largest = 10**limit - 1  # exactly `limit` digits: still written
        fields = certificate_to_fields(HankelCertificate(0, ((0, 1, -largest),)))
        assert fields["witnesses"][0]["determinant"] == str(-largest)
        with pytest.raises(ResourceLimitError, match="hankel.determinant"):
            certificate_to_fields(HankelCertificate(0, ((0, 1, -(largest + 1)),)))

    @pytest.mark.parametrize("form", sorted(NUMBER_TYPE_FORGERIES))
    def test_number_types_checked_in_text(self, form):
        text = NUMBER_TYPE_FORGERIES[form](serialize_bundle(refute_all(TIMES_FOUR)))
        with pytest.raises(CertificateError):
            validate_serialized(text)
        with pytest.raises(CertificateError):
            parse_bundle(text)

    def test_number_types_checked_in_dicts(self):
        for form in ("float_fields", "bool_fields", "infinity"):
            doc = json.loads(NUMBER_TYPE_FORGERIES[form](serialize_bundle(refute_all(TIMES_FOUR))))
            with pytest.raises(CertificateError, match="malformed"):
                validate_document(doc)
        doc = bundle_to_document(refute_all(TIMES_FOUR))
        doc["candidate"]["coefficients"][0] = Decimal("Infinity")
        with pytest.raises(CertificateError, match="malformed"):
            certify_module.document_to_bundle(doc)
        with pytest.raises(CertificateError, match="not JSON data"):
            validate_document(doc)
        doc = bundle_to_document(refute_all(TIMES_FOUR))
        doc["candidate"]["order"] = True
        doc["sha256"] = certify_module._payload_digest(doc)
        with pytest.raises(CertificateError, match="candidate order"):
            validate_document(doc)

    @pytest.mark.parametrize("name", sorted(HOLE_FORGERIES))
    def test_hole_forgeries_refused_at_once(self, name):
        forge, reason = HOLE_FORGERIES[name]
        forged = forge()
        start = time.perf_counter()
        with _time_limit(1), pytest.raises(CertificateError, match=reason):
            validate_serialized(forged)
        assert time.perf_counter() - start < 1

    def test_malformed_refusals_chain_a_cause_without_traceback(self):
        # a traceback would keep the frames of the refused document alive
        # for as long as the error is kept
        zero_denominator = bundle_to_document(refute_all(TIMES_FOUR))
        zero_denominator["candidate"]["coefficients"][0] = "4/0"
        not_json = bundle_to_document(refute_all(TIMES_FOUR))
        not_json["candidate"]["coefficients"][0] = Decimal("1")
        for refuse, message in (
            (lambda: certificate_from_fields({"kind": "parity"}), "malformed certificate fields"),
            (lambda: certify_module.document_to_bundle(zero_denominator), "malformed document"),
            (lambda: validate_serialized("{not json"), "not valid JSON"),
            (lambda: validate_document(not_json), "not JSON data"),
        ):
            with pytest.raises(CertificateError, match=message) as info:
                refuse()
            assert info.value.__cause__ is not None
            assert info.value.__cause__.__traceback__ is None

    def test_malformed_json_rejected(self):
        with pytest.raises(CertificateError):
            validate_serialized("{not json")
        with pytest.raises(CertificateError):
            validate_serialized(json.dumps({"schema": "cfinite-cert/1"}))
