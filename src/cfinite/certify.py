"""Refutation engines for proposed Catalan recurrences.

Given any candidate recurrence with rational coefficients, each engine
produces a certificate that the Catalan numbers violate it, and each
certificate is a finite data object an independent validator can recheck
using nothing but exact Catalan values and the certificate fields:

* parity: after coprime-integer normalization some coefficient a_l is odd;
  a window is placed so n + l is the only power of two it contains, making
  exactly one summand of sum_j a_j C_{n+j} odd, so the sum cannot be 0.
* polynomial: multiplying the window relation by a fixed integer factor
  turns it into a polynomial identity p(n) = 0 whose value at -k is a
  nonzero closed form independent of the coefficients, so p != 0 and some
  witness index in [1, 3k+1] has a nonzero exact residual.
* hankel: nonzero exact window determinants rule out every order up to a
  bound on the examined rows.
* gf mismatch: the rational generating function the candidate would force
  disagrees with the Catalan series at an explicit coefficient.

Bundles serialize to canonical JSON (sorted keys, fixed separators) with a
sha256 digest over the payload, so validation fails loudly on any edit.
"""

import hashlib
import json
import math
import sys
from dataclasses import dataclass
from fractions import Fraction

from . import linalg
from .errors import CertificateError, ResourceLimitError
from .gfseries import expand_rational, rational_gf, RationalFunction
from .powersum import falling_factorial, linear_factor_product, Polynomial
from .recurrence import LinearRecurrence, normalize_coprime
from .seqcore import catalan_closed, catalan_is_odd

SCHEMA_TAG = "cfinite-cert/1"

# Residuals are computed exactly while the window stays below this index;
# C_5000 has about 3000 digits, which is still cheap.
EXACT_RESIDUAL_CAP = 5000


@dataclass(frozen=True)
class ParityCertificate:
    """Window where exactly one summand of the integer relation is odd."""

    coprime_vector: tuple  # (a_0, ..., a_k), coprime integers, a_k != 0
    odd_index: int  # l, least index with a_l odd
    exponent: int  # m, with window_start + odd_index == 2**m
    window_start: int  # n
    parity_table: tuple  # parity of a_j * C_{n+j} for j = 0..k
    residual: int | None  # exact sum_j a_j C_{n+j} when below the cap

    @property
    def order(self) -> int:
        return len(self.coprime_vector) - 1


@dataclass(frozen=True)
class PolynomialCertificate:
    """Polynomial identity with nonzero value at -k and a nonzero residual."""

    order: int
    coefficients: tuple  # rational (a_0, ..., a_{k-1}); a_k = -1 implicit
    polynomial: Polynomial  # p, degree <= 3k
    value_at_minus_order: Fraction  # p(-k)
    witness_index: int  # n* in [1, 3k+1] with p(n*) != 0
    residual: Fraction  # sum_{j<k} a_j C_{n*+j} - C_{n*+k}


@dataclass(frozen=True)
class HankelCertificate:
    """Nonzero window determinants for every order up to the bound."""

    order_bound: int
    witnesses: tuple  # (order, offset, exact determinant) per order


@dataclass(frozen=True)
class GfMismatchCertificate:
    """Coefficient where the candidate's rational series leaves the Catalan one."""

    numerator: Polynomial
    denominator: Polynomial
    mismatch_index: int
    series_value: Fraction
    catalan_value: int


@dataclass(frozen=True)
class RefutationBundle:
    candidate: LinearRecurrence
    certificates: tuple


def _candidate_rational(candidate: LinearRecurrence):
    if not candidate.is_rational():
        raise ValueError("refutation engines take rational candidates")
    return tuple(Fraction(c) for c in candidate.coefficients)


def refute_by_parity(
    candidate: LinearRecurrence, exact_cap: int = EXACT_RESIDUAL_CAP
) -> ParityCertificate:
    """Refute via the lone odd summand in a window around a power of two.

    m is the least exponent with 2**(m-1) > k, which puts the whole window
    n, ..., n + k strictly between 2**(m-1) and 2**(m+1), so n + l is the
    only power of two it contains.
    """
    _candidate_rational(candidate)
    vector = normalize_coprime(candidate).entries
    k = len(vector) - 1
    l = next(j for j, a in enumerate(vector) if a % 2)
    m = (2 * k).bit_length()
    n = 2**m - l
    table = tuple(
        1 if (a % 2 and catalan_is_odd(n + j)) else 0 for j, a in enumerate(vector)
    )
    residual = None
    if n + k <= exact_cap:
        residual = sum(a * catalan_closed(n + j) for j, a in enumerate(vector))
    cert = ParityCertificate(vector, l, m, n, table, residual)
    validate_parity(cert)
    return cert


def validate_parity(cert: ParityCertificate) -> None:
    """Recheck a parity certificate from its fields and exact Catalan data."""
    vector = cert.coprime_vector
    k = len(vector) - 1
    if k < 0 or vector[-1] == 0:
        raise CertificateError("coefficient vector must end in a nonzero entry")
    if math.gcd(*vector) != 1:
        raise CertificateError("coefficient vector is not coprime")
    l, m, n = cert.odd_index, cert.exponent, cert.window_start
    if not 0 <= l <= k:
        raise CertificateError(f"odd index {l} outside 0..{k}")
    if vector[l] % 2 == 0:
        raise CertificateError(f"entry a_{l} = {vector[l]} is even")
    if n < 1 or n + l != 2**m:
        raise CertificateError(f"window start {n} + {l} != 2**{m}")
    powers = [j for j in range(k + 1) if catalan_is_odd(n + j)]
    if powers != [l]:
        raise CertificateError(
            f"window must contain exactly one power of two at offset {l}, found {powers}"
        )
    expected = tuple(
        1 if (a % 2 and catalan_is_odd(n + j)) else 0 for j, a in enumerate(vector)
    )
    if cert.parity_table != expected:
        raise CertificateError("parity table does not match recomputed parities")
    if sum(expected) != 1 or expected[l] != 1:
        raise CertificateError("window does not isolate exactly one odd summand")
    if cert.residual is not None:
        recomputed = sum(a * catalan_closed(n + j) for j, a in enumerate(vector))
        if cert.residual != recomputed:
            raise CertificateError(
                f"stored residual {cert.residual} != recomputed {recomputed}"
            )
        if cert.residual % 2 == 0:
            raise CertificateError("exact residual should be odd")


def summand_polynomial(order: int, j: int) -> Polynomial:
    """The degree-3k factor multiplying a_j in the polynomial identity.

    [(x+k)_{k+1} / (x+j)] * ((x+k-1)_{k-j})**2 * (2x+2j-2)_{2j}, with the
    first factor built by omitting (x+j) from the product, never by
    dividing values.
    """
    k = order
    first = linear_factor_product((i, 1) for i in range(k + 1) if i != j)
    second = linear_factor_product((k - 1 - t, 1) for t in range(k - j))
    third = linear_factor_product((2 * j - 2 - t, 2) for t in range(2 * j))
    return first * second * second * third


def polynomial_certificate_value(order: int) -> int:
    """The closed form (-1) * (-1)_k * (-2)_{2k} for p(-k)."""
    return -falling_factorial(order)(-1) * falling_factorial(2 * order)(-2)


def candidate_residual(coefficients, n: int) -> Fraction:
    """sum_{j<k} a_j C_{n+j} - C_{n+k}, exactly."""
    k = len(coefficients)
    acc = -Fraction(catalan_closed(n + k))
    for j, a in enumerate(coefficients):
        acc += Fraction(a) * catalan_closed(n + j)
    return acc


def refute_by_polynomial(candidate: LinearRecurrence) -> PolynomialCertificate:
    """Refute via the polynomial identity; needs order k >= 1.

    Order 0 has no summation structure to turn into a polynomial; its
    refutation is the trivial residual C_1 = 1 != 0 through the parity
    engine.
    """
    coefficients = _candidate_rational(candidate)
    k = candidate.order
    if k < 1:
        raise ValueError("order 0 delegates to the parity engine")
    weights = list(coefficients) + [Fraction(-1)]
    p = Polynomial()
    for j, a in enumerate(weights):
        p = p + summand_polynomial(k, j) * a
    value = p(-k)
    expected = polynomial_certificate_value(k)
    if value != expected:
        raise CertificateError(f"p(-{k}) = {value}, closed form {expected}")
    witness = next(n for n in range(1, 3 * k + 2) if p(n) != 0)
    residual = candidate_residual(coefficients, witness)
    if residual == 0:
        raise CertificateError("nonzero p(n*) forces a nonzero residual")
    cert = PolynomialCertificate(k, coefficients, p, Fraction(value), witness, residual)
    validate_polynomial(cert)
    return cert


def _residual_multiplier(order: int, n: int) -> Fraction:
    """(n+k)_{k+1} * ((n+k-1)!)**2 / (2n-2)! as an exact rational."""
    k = order
    return Fraction(
        falling_factorial(k + 1)(n + k) * math.factorial(n + k - 1) ** 2,
        math.factorial(2 * n - 2),
    )


def validate_polynomial(cert: PolynomialCertificate) -> None:
    """Recheck a polynomial certificate from its fields and exact data."""
    k = cert.order
    if k < 1 or len(cert.coefficients) != k:
        raise CertificateError(f"need k >= 1 coefficients, got order {k}")
    p = cert.polynomial
    if p.is_zero or p.degree > 3 * k:
        raise CertificateError(f"certificate polynomial must be nonzero of degree <= {3 * k}")
    if p(-k) != cert.value_at_minus_order:
        raise CertificateError("stored value at -k does not match the polynomial")
    if cert.value_at_minus_order != polynomial_certificate_value(k):
        raise CertificateError("value at -k does not match the closed form")
    n = cert.witness_index
    if not 1 <= n <= 3 * k + 1:
        raise CertificateError(f"witness index {n} outside 1..{3 * k + 1}")
    if p(n) == 0:
        raise CertificateError(f"polynomial vanishes at the witness index {n}")
    residual = candidate_residual(cert.coefficients, n)
    if residual != cert.residual:
        raise CertificateError(f"stored residual {cert.residual} != recomputed {residual}")
    if residual == 0:
        raise CertificateError("residual must be nonzero")
    if p(n) != residual * _residual_multiplier(k, n):
        raise CertificateError("polynomial value and residual disagree at the witness")


def _catalan_hankel_minors(offset: int, order_bound: int) -> list:
    """Order-k Catalan window determinants at `offset` for every k <= bound.

    The order-k window matrix (C_{offset+i+j}), i, j = 0..k, is the leading
    block of the order-bound one, so one fraction-free pass over the terms
    C_offset..C_{offset+2*bound} gives entry k for every k; the list stops
    at the first zero minor (see linalg.leading_principal_minors).
    """
    terms = [catalan_closed(n) for n in range(offset, offset + 2 * order_bound + 1)]
    rows = [terms[i : i + order_bound + 1] for i in range(order_bound + 1)]
    return linalg.leading_principal_minors(rows)


def refute_by_hankel(order_bound: int) -> HankelCertificate:
    """Nonzero exact Catalan window determinants for every order <= bound."""
    if order_bound < 0:
        raise ValueError(f"need order bound >= 0, got {order_bound}")
    minors = _catalan_hankel_minors(1, order_bound)
    if minors[-1] == 0:
        raise CertificateError(
            f"unexpected singular Catalan window at order {len(minors) - 1}"
        )
    cert = HankelCertificate(
        order_bound, tuple((k, 1, det) for k, det in enumerate(minors))
    )
    validate_hankel(cert)
    return cert


def validate_hankel(cert: HankelCertificate) -> None:
    """Recheck every determinant from exact Catalan windows.

    Witnesses sharing an offset are recomputed together, from one pass at
    the largest order that uses the offset.  Catalan Hankel minors are
    positive at every offset (Aigner, JCTA 87, 1999), so no genuine
    certificate needs a witness at or past a zero minor; such a witness is
    rejected.
    """
    orders = [w[0] for w in cert.witnesses]
    if orders != list(range(cert.order_bound + 1)):
        raise CertificateError(
            f"witnesses must cover orders 0..{cert.order_bound}, found {orders}"
        )
    largest = {}
    for k, offset, _ in cert.witnesses:
        largest[offset] = max(largest.get(offset, k), k)
    minors = {}
    for k, offset, det in cert.witnesses:
        if offset < 1:
            raise CertificateError(f"offset {offset} must be >= 1")
        if det == 0:
            raise CertificateError(f"zero determinant certifies nothing at order {k}")
        if offset not in minors:
            minors[offset] = _catalan_hankel_minors(offset, largest[offset])
        if k >= len(minors[offset]):
            raise CertificateError(
                f"order {k}: the order-{len(minors[offset]) - 1} window at offset "
                f"{offset} is already singular"
            )
        recomputed = minors[offset][k]
        if recomputed != det:
            raise CertificateError(
                f"order {k}: stored determinant {det} != recomputed {recomputed}"
            )


def refute_by_gf(candidate: LinearRecurrence) -> GfMismatchCertificate:
    """Refute via the first coefficient where the implied series fails.

    The candidate together with the initial terms C_1..C_k forces a
    rational generating function; its expansion must leave the Catalan
    series by index 2k + 1, because a series matching C_1..C_{2k+1} would
    make the order-k Catalan window matrix at offset 1 singular, and its
    determinant is nonzero (see refute_by_hankel).
    """
    _candidate_rational(candidate)
    k = candidate.order
    initial = tuple(catalan_closed(n) for n in range(1, k + 1))
    rf = rational_gf(candidate, initial)
    depth = 2 * k + 1
    expansion = expand_rational(rf, depth)
    for n in range(depth + 1):
        catalan = 0 if n == 0 else catalan_closed(n)
        if expansion.coefficient(n) != catalan:
            cert = GfMismatchCertificate(
                rf.numerator, rf.denominator, n, expansion.coefficient(n), catalan
            )
            validate_gf(cert)
            return cert
    raise CertificateError(f"no mismatch up to the proven bound 2k + 1 = {depth}")


def validate_gf(cert: GfMismatchCertificate) -> None:
    """Recheck the mismatching coefficient from the stored p/q."""
    if cert.denominator(0) == 0:
        raise CertificateError("denominator must be nonzero at 0")
    rf = RationalFunction(cert.numerator, cert.denominator)
    n = cert.mismatch_index
    if n < 0:
        raise CertificateError(f"mismatch index {n} must be >= 0")
    expansion = expand_rational(rf, n)
    if expansion.coefficient(n) != cert.series_value:
        raise CertificateError(
            f"stored series value {cert.series_value} != recomputed {expansion.coefficient(n)}"
        )
    catalan = 0 if n == 0 else catalan_closed(n)
    if catalan != cert.catalan_value:
        raise CertificateError(
            f"stored Catalan value {cert.catalan_value} != exact {catalan}"
        )
    if cert.series_value == cert.catalan_value:
        raise CertificateError("the two coefficients do not differ")


_VALIDATORS = {
    ParityCertificate: validate_parity,
    PolynomialCertificate: validate_polynomial,
    HankelCertificate: validate_hankel,
    GfMismatchCertificate: validate_gf,
}


def validate_certificate(cert) -> None:
    _VALIDATORS[type(cert)](cert)


def refute_all(
    candidate: LinearRecurrence,
    exact_cap: int = EXACT_RESIDUAL_CAP,
    hankel_bound: int | None = None,
) -> RefutationBundle:
    """All applicable certificates, in the fixed order parity, polynomial,
    hankel, gf (the polynomial engine is skipped at order 0)."""
    certificates = [refute_by_parity(candidate, exact_cap)]
    if candidate.order >= 1:
        certificates.append(refute_by_polynomial(candidate))
    if hankel_bound is None:
        hankel_bound = candidate.order
    certificates.append(refute_by_hankel(hankel_bound))
    certificates.append(refute_by_gf(candidate))
    return RefutationBundle(candidate, tuple(certificates))


# ---------------------------------------------------------------------------
# serialization: canonical JSON with a digest over the payload


def _written(value: int, field: str) -> int:
    """An integer on its way into a document.  One with more decimal digits
    than the interpreter converts (sys.get_int_max_str_digits(), 0 for no
    limit) raises ResourceLimitError naming the field, because
    _load_document reads with the same limit.  Indices and counts (orders,
    offsets, window starts, exponents) are bounded by the work that found
    them and are not checked."""
    limit = sys.get_int_max_str_digits() if hasattr(sys, "get_int_max_str_digits") else 0
    # a value below 2**(3 * limit) < 10**limit always fits
    if limit and value.bit_length() > 3 * limit and abs(value) >= 10**limit:
        raise ResourceLimitError(
            f"certificate field {field} holds an integer of more than {limit} digits, "
            f"past the int/str conversion limit documents are read with "
            f"(sys.get_int_max_str_digits() = {limit})"
        )
    return value


def _rat(value, field: str) -> str:
    """A rational (or integer) field as text: "p/q", or "p" when q = 1."""
    value = Fraction(value)
    _written(value.numerator, field)
    _written(value.denominator, field)
    return str(value)


def _poly_fields(poly: Polynomial, field: str):
    return [_rat(c, field) for c in poly.coeffs]


# What a malformed field raises while it is read.  OverflowError comes from
# an infinite Decimal in a dict passed to document_to_bundle; JSON text
# cannot carry one (see _load_document).
_MALFORMED = (KeyError, ValueError, TypeError, ZeroDivisionError, OverflowError)


def _int(value) -> int:
    """An integer field: a JSON integer or a decimal string, never a bool
    or a float (int() would read true as 1 and truncate 8.5 to 8)."""
    if isinstance(value, (bool, float)):
        raise TypeError(f"expected an integer, got {value!r}")
    return int(value)


def _rational(value) -> Fraction:
    """A rational field: an integer or a "p/q" string, never a bool or a float."""
    if isinstance(value, (bool, float)):
        raise TypeError(f"expected a rational number, got {value!r}")
    return Fraction(value)


def _poly_from_fields(coeffs) -> Polynomial:
    return Polynomial(tuple(_rational(c) for c in coeffs))


def certificate_to_fields(cert) -> dict:
    if isinstance(cert, ParityCertificate):
        return {
            "kind": "parity",
            "coprime_vector": [
                _written(a, "parity.coprime_vector") for a in cert.coprime_vector
            ],
            "odd_index": cert.odd_index,
            "exponent": cert.exponent,
            "window_start": cert.window_start,
            "parity_table": list(cert.parity_table),
            "residual": (
                None if cert.residual is None else _written(cert.residual, "parity.residual")
            ),
        }
    if isinstance(cert, PolynomialCertificate):
        return {
            "kind": "polynomial",
            "order": cert.order,
            "coefficients": [_rat(c, "polynomial.coefficients") for c in cert.coefficients],
            "polynomial": _poly_fields(cert.polynomial, "polynomial.polynomial"),
            "value_at_minus_order": _rat(
                cert.value_at_minus_order, "polynomial.value_at_minus_order"
            ),
            "witness_index": cert.witness_index,
            "residual": _rat(cert.residual, "polynomial.residual"),
        }
    if isinstance(cert, HankelCertificate):
        return {
            "kind": "hankel",
            "order_bound": cert.order_bound,
            "witnesses": [
                {"order": k, "offset": offset, "determinant": _rat(det, "hankel.determinant")}
                for k, offset, det in cert.witnesses
            ],
        }
    if isinstance(cert, GfMismatchCertificate):
        return {
            "kind": "gf-mismatch",
            "numerator": _poly_fields(cert.numerator, "gf-mismatch.numerator"),
            "denominator": _poly_fields(cert.denominator, "gf-mismatch.denominator"),
            "mismatch_index": cert.mismatch_index,
            "series_value": _rat(cert.series_value, "gf-mismatch.series_value"),
            "catalan_value": _rat(cert.catalan_value, "gf-mismatch.catalan_value"),
        }
    raise TypeError(f"not a certificate: {type(cert).__name__}")


def certificate_from_fields(fields: dict):
    try:
        kind = fields["kind"]
        if kind == "parity":
            return ParityCertificate(
                tuple(_int(a) for a in fields["coprime_vector"]),
                _int(fields["odd_index"]),
                _int(fields["exponent"]),
                _int(fields["window_start"]),
                tuple(_int(b) for b in fields["parity_table"]),
                None if fields["residual"] is None else _int(fields["residual"]),
            )
        if kind == "polynomial":
            return PolynomialCertificate(
                _int(fields["order"]),
                tuple(_rational(c) for c in fields["coefficients"]),
                _poly_from_fields(fields["polynomial"]),
                _rational(fields["value_at_minus_order"]),
                _int(fields["witness_index"]),
                _rational(fields["residual"]),
            )
        if kind == "hankel":
            return HankelCertificate(
                _int(fields["order_bound"]),
                tuple(
                    (_int(w["order"]), _int(w["offset"]), _int(w["determinant"]))
                    for w in fields["witnesses"]
                ),
            )
        if kind == "gf-mismatch":
            return GfMismatchCertificate(
                _poly_from_fields(fields["numerator"]),
                _poly_from_fields(fields["denominator"]),
                _int(fields["mismatch_index"]),
                _rational(fields["series_value"]),
                _int(fields["catalan_value"]),
            )
    except _MALFORMED as exc:
        raise CertificateError(f"malformed certificate fields: {exc}") from exc
    raise CertificateError(f"unknown certificate kind {fields.get('kind')!r}")


def _canonical_json(payload) -> str:
    return json.dumps(payload, sort_keys=True, separators=(",", ":"), ensure_ascii=True)


def _payload_digest(payload: dict) -> str:
    stripped = {k: v for k, v in payload.items() if k != "sha256"}
    return hashlib.sha256(_canonical_json(stripped).encode("utf-8")).hexdigest()


def bundle_to_document(bundle: RefutationBundle) -> dict:
    doc = {
        "schema": SCHEMA_TAG,
        "candidate": {
            "order": bundle.candidate.order,
            "coefficients": [
                _rat(c, "candidate.coefficients") for c in bundle.candidate.coefficients
            ],
        },
        "certificates": [certificate_to_fields(c) for c in bundle.certificates],
    }
    doc["sha256"] = _payload_digest(doc)
    return doc


def serialize_bundle(bundle: RefutationBundle) -> str:
    return _canonical_json(bundle_to_document(bundle)) + "\n"


def document_to_bundle(doc: dict) -> RefutationBundle:
    try:
        candidate = LinearRecurrence(
            tuple(_rational(c) for c in doc["candidate"]["coefficients"])
        )
        certificates = tuple(certificate_from_fields(f) for f in doc["certificates"])
    except _MALFORMED as exc:
        raise CertificateError(f"malformed document: {exc}") from exc
    return RefutationBundle(candidate, certificates)


def _reject_number(text: str):
    raise CertificateError(f"number {text} is not an integer; rationals are written as strings")


def _load_document(text: str):
    """Parse JSON text, refusing floats, NaN and Infinity: every number in a
    document is an integer, and rationals are "p/q" strings.  An integer
    literal longer than the interpreter's int conversion limit raises
    ValueError, which is refused like any other malformed JSON."""
    try:
        return json.loads(text, parse_float=_reject_number, parse_constant=_reject_number)
    except ValueError as exc:  # json.JSONDecodeError is a ValueError
        raise CertificateError(f"not valid JSON: {exc}") from exc


def parse_bundle(text: str) -> RefutationBundle:
    return document_to_bundle(_load_document(text))


def validate_document(doc: dict) -> RefutationBundle:
    """Full standalone validation of a serialized document.

    Checks the schema tag, the payload digest, every certificate's own
    validity, and that each certificate actually refers to the document's
    candidate recurrence.  Raises CertificateError on the first failure.
    """
    if not isinstance(doc, dict):
        raise CertificateError("document must be a JSON object")
    if doc.get("schema") != SCHEMA_TAG:
        raise CertificateError(f"schema tag {doc.get('schema')!r} != {SCHEMA_TAG!r}")
    if "sha256" not in doc:
        raise CertificateError("document carries no digest")
    try:
        digest = _payload_digest(doc)
    except (TypeError, ValueError) as exc:  # a dict that JSON cannot encode
        raise CertificateError(f"document is not JSON data: {exc}") from exc
    if doc["sha256"] != digest:
        raise CertificateError("payload digest mismatch; the document was altered")
    bundle = document_to_bundle(doc)
    order = doc["candidate"].get("order")
    if type(order) is not int or order != bundle.candidate.order:
        raise CertificateError("candidate order does not match its coefficient list")
    for cert in bundle.certificates:
        validate_certificate(cert)
        _check_candidate_link(cert, bundle.candidate)
    return bundle


def validate_serialized(text: str) -> RefutationBundle:
    return validate_document(_load_document(text))


def _check_candidate_link(cert, candidate: LinearRecurrence) -> None:
    if isinstance(cert, ParityCertificate):
        expected = normalize_coprime(candidate).entries
        if cert.coprime_vector != expected:
            raise CertificateError(
                f"parity vector {cert.coprime_vector} is not the candidate's "
                f"coprime normalization {expected}"
            )
    elif isinstance(cert, PolynomialCertificate):
        if cert.coefficients != tuple(Fraction(c) for c in candidate.coefficients):
            raise CertificateError("polynomial certificate coefficients differ from candidate")
    elif isinstance(cert, HankelCertificate):
        if cert.order_bound < candidate.order:
            raise CertificateError(
                f"hankel bound {cert.order_bound} below candidate order {candidate.order}"
            )
    elif isinstance(cert, GfMismatchCertificate):
        k = candidate.order
        initial = tuple(catalan_closed(n) for n in range(1, k + 1))
        implied = rational_gf(candidate, initial)
        if (cert.numerator, cert.denominator) != (implied.numerator, implied.denominator):
            raise CertificateError("stored p/q is not the candidate's generating function")
