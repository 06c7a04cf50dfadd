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
* hankel: nonzero exact offset-1 window determinants rule out every order
  up to a bound on the examined rows; they are all 1 because the Catalan
  numbers are the moments of a J-fraction, checked by O(K^2) path counting
  against C_1..C_{2K+1}.
* gf mismatch: the rational generating function the candidate would force
  disagrees with the Catalan series at an explicit coefficient.

Each refute_by_* is an unchecked private builder plus _checked (validator
and candidate link: the one definition of what a certificate must pass,
which validate_document runs too); refute_all checks each certificate of
_build_all once, and `cfinite refute` checks only the document it writes.

One cap, ORDER_CAP, bounds every order a certificate names: the
candidate's, the Hankel bound, the parity vector's length - 1, the
polynomial certificate's and the gf degrees.  Engines and validators (after
their consistency checks) refuse an order past it with ResourceLimitError;
validate_document refuses a past-cap candidate, and any list longer than
LIST_CAP = 3 * ORDER_CAP + 1, on the parsed JSON before reading a field.
Every integer a document holds fits the interpreter's int/str conversion
limit, and so does every common denominator a validator or a candidate
link clears from it (_check_denominators): bundle_to_document refuses a
bundle past either with ResourceLimitError, and validate_document, which
re-writes the bundle it read before any validator runs, refuses the same
documents, so many short rationals cannot make one huge integer.

Bundles serialize to canonical JSON (sorted keys, fixed separators) with a
sha256 digest over the payload.  One table, _FORMAT, gives each
certificate's kind tag and its fields with the codec that writes and reads
each, so a document has one written form and the validator refuses any
other.  Anyone can recompute the digest, so it only detects edits; a
forgery is caught because the validators recheck every field against the
candidate, p by its identity at n = 1..3k+1.
"""

import hashlib
import json
import math
import operator
import sys
from dataclasses import dataclass
from fractions import Fraction

from . import gfseries, linalg
from .errors import CertificateError, ResourceLimitError
from .gfseries import linear_factor_product, Polynomial
from .recurrence import LinearRecurrence, normalize_coprime
from .schema import canonical_json as _canonical_json, SCHEMA_TAG
from .seqcore import _term_ratio, catalan_closed, catalan_is_odd

# At 1,024 every parity window ends by C_5120, about 3,100 digits.
ORDER_CAP = 1024


@dataclass(frozen=True)
class ParityCertificate:
    """Window where exactly one summand of the integer relation is odd."""

    coprime_vector: tuple  # (a_0, ..., a_k), coprime integers, a_k != 0
    odd_index: int  # l, least index with a_l odd
    exponent: int  # m, with window_start + odd_index == 2**m
    window_start: int  # n
    parity_table: tuple  # parity of a_j * C_{n+j} for j = 0..k
    residual: int | None  # exact sum_j a_j C_{n+j}; null only in older documents

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
    witnesses: tuple  # (order, 1, exact determinant) per order: offset-1 windows


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


def _check_order_cap(what: str, order: int) -> None:
    if order > ORDER_CAP:
        raise ResourceLimitError(f"{what} {order} is past the cap of {ORDER_CAP}")


def _shown(value) -> str:
    """value as text for a refusal message, which must not raise itself."""
    try:
        return str(value)
    except ValueError:  # an integer past sys.get_int_max_str_digits()
        return "a number too long to print"


def _digit_limit() -> int:
    """The most decimal digits an integer in a document may have: the
    interpreter's int/str conversion limit, 0 for no limit."""
    return sys.get_int_max_str_digits() if hasattr(sys, "get_int_max_str_digits") else 0


def _fits(value: int, limit: int) -> bool:
    """Whether value has at most `limit` decimal digits (0: no limit)."""
    # a value below 2**(3 * limit) < 10**limit always fits
    return not limit or value.bit_length() <= 3 * limit or abs(value) < 10**limit


def _check_common_denominator(values, what: str) -> None:
    """ResourceLimitError naming `what` when the lcm of the rationals'
    denominators has more digits than a document's integers may.  The lcm
    is taken one denominator at a time and the check stops as soon as it is
    past the limit, so it never grows much beyond it."""
    limit = _digit_limit()
    if not limit:
        return
    scale = 1
    for x in values:
        scale = math.lcm(scale, x.denominator)
        if not _fits(scale, limit):
            raise ResourceLimitError(
                f"{what}: a common denominator has more than {limit} digits, past the "
                f"int/str conversion limit documents are read with "
                f"(sys.get_int_max_str_digits() = {limit})"
            )


def _candidate_rational(candidate: LinearRecurrence):
    if not candidate.is_rational():
        raise ValueError("refutation engines take rational candidates")
    _check_order_cap("candidate order", candidate.order)
    return candidate.coefficients


def _catalan_table(start: int, count: int) -> list:
    """[C_start, ..., C_{start+count-1}]: C_start by the closed formula, the
    rest by the term ratio C_{n+1} = C_n (4n-2)/(n+1), catalan_holonomic's loop."""
    return _term_ratio(catalan_closed(start), start, count) if count > 0 else []


def _window_sums(vector, start: int, count: int) -> list:
    """[sum_j v_j C_{n+j} for n = start, ..., start + count - 1], from one
    table.  For a candidate's coprime vector v (normalize_coprime) this is
    -v_k > 0 times the residual sum_{j<k} a_j C_{n+j} - C_{n+k}."""
    table = _catalan_table(start, count + len(vector) - 1)
    return [sum(map(operator.mul, vector, table[i:])) for i in range(count)]


def _first_residual(candidate: LinearRecurrence) -> tuple:
    """(m, residual) for the first window m with a nonzero residual; it
    comes by m = k + 1 (see _build_gf)."""
    vector = normalize_coprime(candidate).entries
    k = len(vector) - 1
    sums = _window_sums(vector, 1, k + 1)
    m = next((m for m, s in enumerate(sums, 1) if s), None)
    if m is None:
        raise CertificateError(f"no mismatch up to the proven bound 2k + 1 = {2 * k + 1}")
    return m, Fraction(sums[m - 1], -vector[-1])


def _parity_window(vector) -> tuple:
    """(l, m, n, table): l the least index with a_l odd (the vector is
    coprime), m the least exponent with 2**(m-1) > k, n = 2**m - l, and the
    parities of a_j C_{n+j}.  The window n..n+k lies strictly between
    2**(m-1) and 2**(m+1), so a_l C_{n+l} is its only odd summand."""
    l = next(j for j, a in enumerate(vector) if a % 2)
    m = (2 * (len(vector) - 1)).bit_length()
    n = 2**m - l
    table = tuple(1 if (a % 2 and catalan_is_odd(n + j)) else 0 for j, a in enumerate(vector))
    return l, m, n, table


def _build_parity(candidate: LinearRecurrence) -> ParityCertificate:
    _candidate_rational(candidate)
    vector = normalize_coprime(candidate).entries
    l, m, n, table = _parity_window(vector)
    return ParityCertificate(vector, l, m, n, table, _window_sums(vector, n, 1)[0])


def refute_by_parity(candidate: LinearRecurrence) -> ParityCertificate:
    """Refute via the lone odd summand in a window around a power of two."""
    return _checked(_build_parity(candidate), candidate)


def validate_parity(cert: ParityCertificate) -> None:
    """Recheck a parity certificate from its fields and exact Catalan data.
    The window is derived from the vector and compared before any Catalan
    value is computed, so a forged exponent or start costs nothing."""
    vector = cert.coprime_vector
    if not vector or vector[-1] == 0:
        raise CertificateError("coefficient vector must end in a nonzero entry")
    if math.gcd(*vector) != 1:
        raise CertificateError("coefficient vector is not coprime")
    derived = _parity_window(vector)
    if (cert.odd_index, cert.exponent, cert.window_start, cert.parity_table) != derived:
        raise CertificateError(f"window or parity table is not {derived} derived from the vector")
    if sum(cert.parity_table) != 1:
        raise CertificateError("window does not isolate exactly one odd summand")
    _check_order_cap("parity vector order", len(vector) - 1)
    if cert.residual is None:  # written before the order cap: the table is the proof
        return
    exact = _window_sums(vector, cert.window_start, 1)[0]
    if cert.residual != exact:
        raise CertificateError(f"stored residual {cert.residual} != recomputed {_shown(exact)}")
    if cert.residual % 2 == 0:
        raise CertificateError("exact residual should be odd")


def summand_polynomial(order: int, j: int) -> Polynomial:
    """The degree-3k factor S_j multiplying a_j in the polynomial identity.

    [(x+k)_{k+1} / (x+j)] * ((x+k-1)_{k-j})**2 * (2x+2j-2)_{2j}, with the
    first factor built by omitting (x+j) from the product, never by
    dividing values.  This is the from-factors reference that the tests
    compare refute_by_polynomial with; the engine builds no summand.
    """
    k = order
    first = linear_factor_product((i, 1) for i in range(k + 1) if i != j)
    second = linear_factor_product((k - 1 - t, 1) for t in range(k - j))
    third = linear_factor_product((2 * j - 2 - t, 2) for t in range(2 * j))
    return first * second * second * third


def _times_factor(coeffs: list, factor: tuple) -> list:
    """coeffs times a short factor of small integers, both low order first."""
    out = [factor[0] * c for c in coeffs] + [0] * (len(factor) - 1)
    for i, f in enumerate(factor[1:], 1):
        scaled = coeffs if f == 1 else [f * c for c in coeffs]
        out[i : i + len(coeffs)] = map(operator.add, out[i : i + len(coeffs)], scaled)
    return out


def polynomial_certificate_value(order: int) -> int:
    """The closed form (-1) * (-1)_k * (-2)_{2k} for p(-k), in integers:
    (-1)_k = (-1)**k k! and (-2)_{2k} = (2k+1)!."""
    return -((-1) ** order) * math.factorial(order) * math.factorial(2 * order + 1)


def _build_polynomial(candidate: LinearRecurrence) -> PolynomialCertificate:
    """The polynomial certificate; needs order k >= 1.

    p = sum_j a_j S_j with a_k = -1 (S_j as in summand_polynomial) is built
    as P = L p in integers, from the weights w_j = L a_j cleared once.  With
    X = x(x+1)...(x+k-1), S_0 = (x+1)...(x+k) X**2 and the ratio S_j (x+j) =
    2(2x+2j-3) S_{j-1} give S_j = X**2 R_j (x+j+1)...(x+k), where R_0 = 1 and
    R_j = R_{j-1} (4x+4j-6).  By Horner's rule P = X**2 U_k, with U_0 = w_0
    and U_j = U_{j-1} (x+j) + w_j R_j: passes over integer lists with small
    multipliers, never a product of two long lists.

    The witness n* is the first window with a nonzero Catalan residual,
    which is the first n >= 1 with p(n) != 0 (see validate_polynomial).
    Order 0 has no summation structure to turn into a polynomial; its
    refutation is the trivial residual C_1 = 1 != 0 through the parity
    engine.
    """
    coefficients = _candidate_rational(candidate)
    k = candidate.order
    if k < 1:
        raise ValueError("order 0 delegates to the parity engine")
    weights, scale = linalg.clear_denominators(list(coefficients) + [-1])
    ratio, total = [1], [weights[0]]  # R_0 and U_0
    for j, w in enumerate(weights[1:], 1):
        ratio = _times_factor(ratio, (4 * j - 6, 4))
        total = _times_factor(total, (j, 1))
        if w:
            total = [*map(operator.add, total, [w * r for r in ratio])]
    for i in range(k):
        total = _times_factor(total, (i * i, 2 * i, 1))  # (x+i)**2
    p = Polynomial(Fraction(t, scale) for t in total)
    witness, residual = _first_residual(candidate)
    value = Fraction(Polynomial(total)(-k), scale)
    return PolynomialCertificate(k, coefficients, p, value, witness, residual)


def refute_by_polynomial(candidate: LinearRecurrence) -> PolynomialCertificate:
    """Refute via the polynomial identity (see _build_polynomial); needs order k >= 1."""
    return _checked(_build_polynomial(candidate), candidate)


def validate_polynomial(cert: PolynomialCertificate) -> None:
    """Recheck a polynomial certificate from its fields and exact data.

    p(n) = M(k, n) * residual(n) with M(k, n) = (n+k)_{k+1} ((n+k-1)!)**2 /
    (2n-2)! > 0 is checked at n = 1..3k+1, in integers (P = scale * p, and
    S(n) = -v_k * residual(n) from _window_sums); with deg p <= 3k this
    proves p is the candidate's polynomial.  n* is the first nonzero window.
    """
    k = cert.order
    if k < 1 or len(cert.coefficients) != k:
        raise CertificateError(f"need k >= 1 coefficients, got order {k}")
    p = cert.polynomial
    if p.degree > 3 * k:
        raise CertificateError(f"certificate polynomial must have degree <= {3 * k}")
    _check_order_cap("polynomial certificate order", k)
    ints, scale = linalg.clear_denominators(p.coeffs)
    integer_p = Polynomial(ints)
    if Fraction(integer_p(-k), scale) != cert.value_at_minus_order:
        raise CertificateError("stored value at -k does not match the polynomial")
    if cert.value_at_minus_order != polynomial_certificate_value(k):
        raise CertificateError("value at -k does not match the closed form")
    n = cert.witness_index
    if not 1 <= n <= 3 * k + 1:
        raise CertificateError(f"witness index {n} outside 1..{3 * k + 1}")
    vector = normalize_coprime(LinearRecurrence(cert.coefficients)).entries
    sums = _window_sums(vector, 1, 3 * k + 1)
    for m, s in enumerate(sums, 1):
        lhs = integer_p(m) * -vector[-1] * math.factorial(2 * m - 2)
        rhs = s * scale * math.perm(m + k, k + 1) * math.factorial(m + k - 1) ** 2
        if lhs != rhs:
            raise CertificateError(f"p({m}) != M({k}, {m}) * residual({m}): not the candidate's p")
    residual = Fraction(sums[n - 1], -vector[-1])
    if residual != cert.residual:
        raise CertificateError(f"stored residual {cert.residual} != recomputed {_shown(residual)}")
    if residual == 0:
        raise CertificateError("residual must be nonzero")
    if any(sums[: n - 1]):
        raise CertificateError(f"witness index {n} is not the first nonzero window")


def _check_catalan_hankel(order_bound: int) -> None:
    """Prove that the order-k Catalan window determinants at offset 1 are
    all 1 for every k <= bound, from path moments checked against C_1..C_{2K+1}.

    Let B_{n,h} count Motzkin paths from height 0 to height h in n steps,
    a level step at height h weighing b_h (b_0 = 1, b_h = 2 for h >= 1):
    B_{n+1,h} = B_{n,h-1} + b_h B_{n,h} + B_{n,h+1}, B_{n,h} = 0 for h > n
    and B_{n,n} = 1.  If B_{n,0} = C_{n+1} for n <= 2K, split each path of
    i + j steps at step i and reverse its tail: C_{i+j+1} = sum_h B_{i,h}
    B_{j,h}, so H_k = B_k B_k^T with B_k = (B_{i,h})_{i,h<=k} unitriangular,
    and det H_k = 1 for every k <= K.  Only heights h <= 2K - n can still
    return to 0 by step 2K, so that is O(K^2) additions and no product; a
    moment that is not the Catalan number raises CertificateError.
    """
    catalan = _catalan_table(1, 2 * order_bound + 1)
    row = [1]  # B_{n,h} for h = 0..min(n, 2K - n)
    for n, c in enumerate(catalan):
        if row[0] != c:
            raise CertificateError(f"path moment B_({n}, 0) != C_{n + 1}")
        # with P_h = B_{n,h} + B_{n,h+1}: B_{n+1,0} = P_0, B_{n+1,h} = P_{h-1} + P_h
        pairs = [*map(operator.add, row, row[1:]), row[-1]]
        row = [pairs[0], *map(operator.add, pairs, pairs[1:]), pairs[-1]]
        del row[2 * order_bound - n :]


def _build_hankel(order_bound: int) -> HankelCertificate:
    if order_bound < 0:
        raise ValueError(f"need order bound >= 0, got {order_bound}")
    _check_order_cap("hankel order bound", order_bound)
    return HankelCertificate(order_bound, tuple((k, 1, 1) for k in range(order_bound + 1)))


def refute_by_hankel(order_bound: int) -> HankelCertificate:
    """Nonzero exact Catalan window determinants for every order <= bound,
    all 1 by validate_hankel's one path check (see _check_catalan_hankel)."""
    cert = _build_hankel(order_bound)
    validate_hankel(cert)
    return cert


def validate_hankel(cert: HankelCertificate) -> None:
    """Recheck every determinant against one check of offset-1 Catalan windows.

    The determinant argument needs only the offset-1 window determinants
    (all 1: Aigner, JCTA 87, 1999), so the witnesses must be exactly
    (k, 1, 1) for k = 0..K (K the bound); the count and this layout are
    checked before any Catalan value is built, so no window reads past
    C_{2K+1} and an accepted document costs one path check.  That
    check proves every such determinant is 1 from the J-fraction of the
    Catalan numbers: the weighted Motzkin path counts B_{n,0} (level steps
    weigh 1 at height 0 and 2 above it) must equal C_{n+1} for n <= 2K, and
    then H_k = B_k B_k^T with B_k unitriangular (see _check_catalan_hankel).
    It costs O(K^2) additions of O(K)-bit integers, against the cubic
    Bareiss pass it replaces.
    """
    bound = cert.order_bound
    if bound < 0 or len(cert.witnesses) != bound + 1:
        raise CertificateError(
            f"{len(cert.witnesses)} witness(es) cannot cover orders 0..{bound}"
        )
    _check_order_cap("hankel order bound", bound)
    for k, (order, offset, det) in enumerate(cert.witnesses):
        if (order, offset) != (k, 1):
            raise CertificateError(
                f"witness {k} is at order {order}, offset {offset}; need order {k}, offset 1"
            )
        if det == 0:
            raise CertificateError(f"zero determinant certifies nothing at order {k}")
        if det != 1:
            raise CertificateError(f"order {k}: stored determinant {det} != 1, the Catalan value")
    _check_catalan_hankel(bound)


def _build_gf(candidate: LinearRecurrence) -> GfMismatchCertificate:
    """The first coefficient where the implied series fails.

    The candidate and C_1..C_k force a rational generating function whose
    coefficients iterate the recurrence from those terms, so they first
    leave C_n at n = k + m, m the first window with a nonzero residual,
    with the value C_{k+m} + residual(m).  That is by 2k + 1, because a
    series matching C_1..C_{2k+1} would make the order-k Catalan window
    matrix at offset 1 singular, and its determinant is nonzero.
    """
    _candidate_rational(candidate)
    k = candidate.order
    rf = gfseries._rational_gf_pair(candidate, tuple(_catalan_table(1, k)))
    m, residual = _first_residual(candidate)
    catalan = catalan_closed(k + m)
    return GfMismatchCertificate(rf.numerator, rf.denominator, k + m, catalan + residual, catalan)


def refute_by_gf(candidate: LinearRecurrence) -> GfMismatchCertificate:
    """Refute via the first coefficient where the implied series fails (see _build_gf)."""
    return _checked(_build_gf(candidate), candidate)


def validate_gf(cert: GfMismatchCertificate) -> None:
    """Recheck that the series of the stored p/q first leaves the Catalan
    one at the stored index, with the stored values.

    p/q is expanded as stored, unreduced (the candidate link compares it
    with the candidate's reduced pair), up to its first departure from C_n,
    in integers.  p and q are cleared once to P and Q over one common
    denominator (validate_document bounds its digits first).  While
    s_1..s_{m-1} equal C_1..C_{m-1}, the inversion recurrence gives
    Q_0^2 s_m = Q_0 (P_m - sum_{1<=i<m} Q_i C_{m-i}) - Q_m P_0, which is
    compared with Q_0^2 C_m (s_0 = P_0/Q_0 is never compared); only the
    departing s_m is built as a Fraction.
    The index is bounded before anything is expanded.  With q(0) != 0,
    e = deg q and d = max(deg p, e), a series matching C_1..C_{2d+1} would
    satisfy the recurrence of q from index d + 1 on, so the order-e Catalan
    window matrix at offset d + 1 - e >= 1 would have the kernel vector
    (q_e, ..., q_1, q_0); Catalan Hankel minors are positive at every offset
    (Aigner, JCTA 87, 1999), so the first mismatch is at most 2d + 1.
    """
    p, q = cert.numerator, cert.denominator
    if q(0) == 0:
        raise CertificateError("denominator must be nonzero at 0")
    degree = max(p.degree, q.degree)
    n = cert.mismatch_index
    if not 1 <= n <= 2 * degree + 1:
        raise CertificateError(f"mismatch index {n} outside 1..{2 * degree + 1}")
    _check_order_cap("gf degree", degree)
    ints, _ = linalg.clear_denominators(p.coeffs + q.coeffs)
    big_p, (q0, *q_tail) = ints[: len(p.coeffs)], ints[len(p.coeffs) :]
    p0, q0_squared = big_p[0] if big_p else 0, q0 * q0
    catalan = _catalan_table(1, n)
    first = s = None
    for m, c in enumerate(catalan, 1):
        window = catalan[max(0, m - 1 - len(q_tail)) : m - 1]  # C_{m-e}..C_{m-1}, e = deg q
        tail = sum(map(operator.mul, q_tail, reversed(window)))
        p_m = big_p[m] if m < len(big_p) else 0
        q_m = q_tail[m - 1] if m <= len(q_tail) else 0
        scaled = q0 * (p_m - tail) - q_m * p0  # Q_0^2 s_m
        if scaled != q0_squared * c:
            first, s = m, Fraction(scaled, q0_squared)
            break
    if first != n:
        found = f"it leaves C_{first} first" if first else f"it matches C_1..C_{n}"
        raise CertificateError(f"mismatch index {n} is not the series' first departure: {found}")
    if s != cert.series_value:
        raise CertificateError(
            f"stored series value {cert.series_value} != recomputed {_shown(s)}"
        )
    if catalan[-1] != cert.catalan_value:
        raise CertificateError(f"stored Catalan value {cert.catalan_value} != exact {catalan[-1]}")


_VALIDATORS = {
    ParityCertificate: validate_parity,
    PolynomialCertificate: validate_polynomial,
    HankelCertificate: validate_hankel,
    GfMismatchCertificate: validate_gf,
}


def validate_certificate(cert) -> None:
    _VALIDATORS[type(cert)](cert)


def _checked(cert, candidate: LinearRecurrence):
    """cert, once it passes what every certificate must: validator and candidate link."""
    validate_certificate(cert)
    _check_candidate_link(cert, candidate)
    return cert


def refute_all(candidate: LinearRecurrence, hankel_bound: int | None = None) -> RefutationBundle:
    """All applicable certificates, in the fixed order parity, polynomial,
    hankel, gf (the polynomial engine is skipped at order 0), each _checked;
    caps first, then ValueError for a Hankel bound below the candidate's order."""
    certificates = _build_all(candidate, hankel_bound)
    return RefutationBundle(candidate, tuple(_checked(c, candidate) for c in certificates))


def _build_all(candidate: LinearRecurrence, hankel_bound: int | None) -> tuple:
    """refute_all's certificates, unchecked: the one copy of its engine order and caps."""
    hankel_bound = candidate.order if hankel_bound is None else hankel_bound
    _check_order_cap("candidate order", candidate.order)
    _check_order_cap("hankel order bound", hankel_bound)
    if hankel_bound < candidate.order:
        raise ValueError(
            f"hankel bound {hankel_bound} is below the candidate's order {candidate.order}"
        )
    certificates = [_build_parity(candidate)]
    if candidate.order >= 1:
        certificates.append(_build_polynomial(candidate))
    certificates.append(_build_hankel(hankel_bound))
    certificates.append(_build_gf(candidate))
    return tuple(certificates)


# ---------------------------------------------------------------------------
# serialization: canonical JSON with a digest over the payload


def _written(value: int, field: str) -> int:
    """An integer on its way into a document.  One with more decimal digits
    than the interpreter converts (sys.get_int_max_str_digits(), 0 for no
    limit) raises ResourceLimitError naming the field, because
    _load_document reads with the same limit.  Indices and counts (orders,
    offsets, window starts, exponents) are bounded by the work that found
    them and are not checked."""
    limit = _digit_limit()
    if not _fits(value, limit):
        raise ResourceLimitError(
            f"certificate field {field} holds an integer of more than {limit} digits, "
            f"past the int/str conversion limit documents are read with "
            f"(sys.get_int_max_str_digits() = {limit})"
        )
    return value


def _rat(value, field: str) -> str:
    """A Fraction (or int) field as text: "p/q", or "p" when q = 1."""
    _written(value.numerator, field)
    _written(value.denominator, field)
    return str(value)


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


# A codec is a (write(value, field), read(json)) pair; `field` names the
# field in the producer's digit-limit errors.
_INDEX = (lambda value, field: value, _int)  # orders, offsets, exponents: JSON ints
_BIG = (_written, _int)  # large integers: JSON ints
_RATIONAL = (_rat, _rational)  # "p/q" strings
_DECIMAL = (_rat, _int)  # integers as decimal strings


def _list_of(codec):
    write, read = codec
    return lambda vs, field: [write(v, field) for v in vs], lambda vs: tuple(map(read, vs))


def _optional(codec):
    write, read = codec
    return (
        lambda v, field: None if v is None else write(v, field),
        lambda v: None if v is None else read(v),
    )


_POLYNOMIAL = (
    lambda poly, field: [_rat(c, field) for c in poly.coeffs],
    lambda coeffs: Polynomial(tuple(map(_rational, coeffs))),
)
_HANKEL_WITNESSES = (
    lambda witnesses, field: [
        {"order": k, "offset": at, "determinant": _rat(det, "hankel.determinant")}
        for k, at, det in witnesses
    ],
    lambda witnesses: tuple(
        (_int(w["order"]), _int(w["offset"]), _int(w["determinant"])) for w in witnesses
    ),
)

# The cfinite-cert/1 form: each certificate's kind tag and its fields in
# constructor order, each with its codec.  The writer and the reader loop
# over it, and validate_document refuses a document that differs from what
# the writer gives, so this table is the one definition of the written form.
_FORMAT = {
    ParityCertificate: ("parity", (
        ("coprime_vector", _list_of(_BIG)), ("odd_index", _INDEX), ("exponent", _INDEX),
        ("window_start", _INDEX), ("parity_table", _list_of(_INDEX)),
        ("residual", _optional(_BIG)),
    )),
    PolynomialCertificate: ("polynomial", (
        ("order", _INDEX), ("coefficients", _list_of(_RATIONAL)), ("polynomial", _POLYNOMIAL),
        ("value_at_minus_order", _RATIONAL), ("witness_index", _INDEX), ("residual", _RATIONAL),
    )),
    HankelCertificate: ("hankel", (("order_bound", _INDEX), ("witnesses", _HANKEL_WITNESSES))),
    GfMismatchCertificate: ("gf-mismatch", (
        ("numerator", _POLYNOMIAL), ("denominator", _POLYNOMIAL), ("mismatch_index", _INDEX),
        ("series_value", _RATIONAL), ("catalan_value", _DECIMAL),
    )),
}


def certificate_to_fields(cert) -> dict:
    if type(cert) not in _FORMAT:
        raise TypeError(f"not a certificate: {type(cert).__name__}")
    kind, fields = _FORMAT[type(cert)]
    written = {name: write(getattr(cert, name), f"{kind}.{name}") for name, (write, _) in fields}
    return {"kind": kind, **written}


def certificate_from_fields(fields: dict):
    try:
        kind = fields["kind"]
        for cls, (tag, codecs) in _FORMAT.items():
            if kind == tag:
                return cls(**{name: read(fields[name]) for name, (_, read) in codecs})
    except _MALFORMED as exc:
        raise CertificateError(
            f"malformed certificate fields: {exc}"
        ) from exc.with_traceback(None)
    raise CertificateError(f"unknown certificate kind {fields.get('kind')!r}")


def _payload_digest(payload: dict) -> str:
    stripped = {k: v for k, v in payload.items() if k != "sha256"}
    return hashlib.sha256(_canonical_json(stripped).encode("utf-8")).hexdigest()


def _check_denominators(bundle: RefutationBundle) -> None:
    """_check_common_denominator on every list of rationals that a validator
    or a candidate link of the bundle clears to integers: the candidate's
    coefficients for a parity or a gf certificate (normalize_coprime,
    _rational_gf_pair), a polynomial certificate's p and its coefficients, and a
    gf certificate's p and q together.  A Hankel certificate clears none.
    The writer and the reader run this same check, so no document the
    writer writes is refused by it."""
    certificates = bundle.certificates
    if any(isinstance(c, (ParityCertificate, GfMismatchCertificate)) for c in certificates):
        _check_common_denominator(bundle.candidate.coefficients, "candidate coefficients")
    for cert in certificates:
        if isinstance(cert, PolynomialCertificate):
            _check_common_denominator(cert.polynomial.coeffs, "polynomial certificate p")
            _check_common_denominator(cert.coefficients, "polynomial certificate coefficients")
        elif isinstance(cert, GfMismatchCertificate):
            pair = cert.numerator.coeffs + cert.denominator.coeffs
            _check_common_denominator(pair, "gf certificate p and q")


def bundle_to_document(bundle: RefutationBundle) -> dict:
    """The bundle's document.  ResourceLimitError for a bundle holding an
    integer (_written) or, after every field is written, a common
    denominator (_check_denominators) with more digits than a document may
    have, because validate_document refuses the same."""
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
    _check_denominators(bundle)
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
        raise CertificateError(f"malformed document: {exc}") from exc.with_traceback(None)
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
        raise CertificateError(f"not valid JSON: {exc}") from exc.with_traceback(None)


def parse_bundle(text: str) -> RefutationBundle:
    return document_to_bundle(_load_document(text))


# The longest list a document under the cap holds: the 3k + 1 coefficients
# of a polynomial certificate's p at k = ORDER_CAP.
LIST_CAP = 3 * ORDER_CAP + 1


def _check_list_lengths(doc) -> None:
    """ResourceLimitError for a list in the parsed document longer than
    LIST_CAP: one walk over the JSON, before any field is read."""
    stack = [doc]
    while stack:
        node = stack.pop()
        if isinstance(node, dict):
            stack.extend(node.values())
        elif isinstance(node, list):
            if len(node) > LIST_CAP:
                raise ResourceLimitError(
                    f"a list of {len(node)} entries is past the cap of {LIST_CAP}"
                )
            stack.extend(node)


def validate_document(doc: dict) -> RefutationBundle:
    """Full standalone validation of a serialized document.

    Checks the schema tag, the payload digest, that the document is what
    bundle_to_document writes for its bundle (no extra key, no "6/1" for
    "6"), every certificate's own validity, and that each certificate
    actually refers to the document's candidate recurrence.  Raises
    CertificateError on the first failure, and ResourceLimitError on a
    document with a candidate or a list past its cap (checked on the JSON,
    before any field is read), on one that bundle_to_document would not
    write because a common denominator it clears has more digits than a
    document's integers may (checked when the bundle is re-written, before
    any validator runs, so no validator or link clears it), or on a
    consistent one naming an order past ORDER_CAP.
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
        raise CertificateError(f"document is not JSON data: {exc}") from exc.with_traceback(None)
    if doc["sha256"] != digest:
        raise CertificateError("payload digest mismatch; the document was altered")
    candidate = doc.get("candidate")
    if isinstance(candidate, dict) and isinstance(candidate.get("coefficients"), list):
        _check_order_cap("candidate order", len(candidate["coefficients"]))
    _check_list_lengths(doc)
    bundle = document_to_bundle(doc)
    if not bundle.certificates:
        raise CertificateError("document carries no certificate")
    order = doc["candidate"].get("order")
    if type(order) is not int or order != bundle.candidate.order:
        raise CertificateError("candidate order does not match its coefficient list")
    if bundle_to_document(bundle)["sha256"] != doc["sha256"]:  # runs _check_denominators
        raise CertificateError(
            "document is not in its written form: a field is unknown or not canonical"
        )
    for cert in bundle.certificates:
        _checked(cert, bundle.candidate)
    return bundle


def validate_serialized(text: str) -> RefutationBundle:
    return validate_document(_load_document(text))


def _check_candidate_link(cert, candidate: LinearRecurrence) -> None:
    if isinstance(cert, ParityCertificate):
        expected = normalize_coprime(candidate).entries
        if cert.coprime_vector != expected:
            raise CertificateError(
                f"parity vector {cert.coprime_vector} is not the candidate's "
                f"coprime normalization {_shown(expected)}"
            )
    elif isinstance(cert, PolynomialCertificate):
        if cert.coefficients != candidate.coefficients:
            raise CertificateError("polynomial certificate coefficients differ from candidate")
    elif isinstance(cert, HankelCertificate):
        if cert.order_bound < candidate.order:
            raise CertificateError(
                f"hankel bound {cert.order_bound} below candidate order {candidate.order}"
            )
    elif isinstance(cert, GfMismatchCertificate):
        initial = tuple(_catalan_table(1, candidate.order))
        implied = gfseries._rational_gf_pair(candidate, initial)
        if (cert.numerator, cert.denominator) != (implied.numerator, implied.denominator):
            raise CertificateError("stored p/q is not the candidate's generating function")
        gfseries._check_rational_gf(implied, candidate, initial)  # only on a match
