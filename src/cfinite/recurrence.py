"""Constant-coefficient linear recurrences: verify, guess, descend, and
the window-determinant (Hankel) evidence that no low-order one fits.

A recurrence of order k with coefficients (a_0, ..., a_{k-1}) asserts
b_{n+k} = sum_{j<k} a_j b_{n+j} for every n >= 1.  Order 0 is the empty
recurrence, satisfied only by the all-zero sequence.  Coefficients live in
Q or in a single quadratic extension Q(sqrt(d)).
"""

import math
import operator
from dataclasses import dataclass
from fractions import Fraction

from . import linalg
from .errors import DimensionError, InsufficientDataError, MixedRadicandError
from .seqcore import QuadraticFieldElement, Sequence


def _as_coefficient(value):
    if isinstance(value, int):
        return Fraction(value)
    if isinstance(value, (Fraction, QuadraticFieldElement)):
        return value
    raise TypeError(f"unsupported coefficient type {type(value).__name__}")


@dataclass(frozen=True)
class LinearRecurrence:
    """b_{n+k} = sum_{j<k} coefficients[j] * b_{n+j} for all n >= 1."""

    coefficients: tuple

    def __post_init__(self):
        coeffs = tuple(_as_coefficient(c) for c in self.coefficients)
        radicands = {c.radicand for c in coeffs if isinstance(c, QuadraticFieldElement)}
        if len(radicands) > 1:
            raise MixedRadicandError(
                f"coefficients mix radicands {sorted(radicands)}"
            )
        object.__setattr__(self, "coefficients", coeffs)

    @property
    def order(self) -> int:
        return len(self.coefficients)

    @property
    def field(self) -> str:
        for c in self.coefficients:
            if isinstance(c, QuadraticFieldElement):
                return f"Q(sqrt({c.radicand}))"
        return "Q"

    def is_rational(self) -> bool:
        return all(isinstance(c, Fraction) for c in self.coefficients)

    def __str__(self):
        if self.order == 0:
            return "b(n) = 0"
        rhs = " + ".join(
            f"({c})*b(n+{j})" if j else f"({c})*b(n)"
            for j, c in enumerate(self.coefficients)
        )
        return f"b(n+{self.order}) = {rhs}"


@dataclass(frozen=True)
class IntegerRecurrenceVector:
    """Coprime integers (a_0, ..., a_k) with sum_j a_j b_{n+j} = 0, a_k != 0."""

    entries: tuple

    def __post_init__(self):
        entries = tuple(int(e) for e in self.entries)
        if not entries:
            raise ValueError("entries must be nonempty")
        if entries[-1] == 0:
            raise ValueError("last entry must be nonzero")
        if math.gcd(*entries) != 1:
            raise ValueError(f"entries {entries} are not coprime")
        object.__setattr__(self, "entries", entries)

    @property
    def order(self) -> int:
        return len(self.entries) - 1


@dataclass(frozen=True)
class VerificationResult:
    passed: bool
    failed_index: int | None = None
    residual: object = None

    def __bool__(self):
        return self.passed


def iterate_recurrence(rec: LinearRecurrence, initial_terms, count: int) -> list:
    """First `count` terms generated from k initial terms by the recurrence."""
    terms = [Fraction(t) if isinstance(t, int) else t for t in initial_terms]
    if len(terms) != rec.order:
        raise ValueError(f"need {rec.order} initial terms")
    while len(terms) < count:
        n = len(terms) - rec.order
        terms.append(sum(a * terms[n + j] for j, a in enumerate(rec.coefficients)))
    return terms[:count]


def verify(seq: Sequence, rec: LinearRecurrence, span=None) -> VerificationResult:
    """Check the recurrence on windows n in span (inclusive pair, 1-based).

    span=None means every window the data supports.  On failure the least
    failing n is reported with the exact residual
    sum_j a_j b_{n+j} - b_{n+k}: a Fraction (or a field element) for
    k >= 1, and -b_n itself for order 0.  Rational coefficients are scaled
    once to integers c_j = L a_j (`linalg.clear_denominators`), so each
    window compares sum_j c_j b_{n+j} with L b_{n+k}, in integers on int
    data; only the first failing window's difference is divided by L.
    Q(sqrt(d)) coefficients take the same loop with L = 1.
    """
    k = rec.order
    if span is None:
        if len(seq) < k + 1:
            raise InsufficientDataError(
                f"no complete window: {len(seq)} terms for order {k}"
            )
        span = (1, len(seq) - k)
    lo, hi = span
    if lo > hi:
        raise InsufficientDataError(f"empty span: windows [{lo}, {hi}]")
    if lo < 1 or hi + k > len(seq):
        raise InsufficientDataError(
            f"windows [{lo}, {hi}] need terms up to {hi + k}, have {len(seq)}"
        )
    coefficients, scale = rec.coefficients, 1
    if rec.is_rational():
        coefficients, scale = linalg.clear_denominators(coefficients)
    terms = seq.terms
    for n in range(lo, hi + 1):
        window = terms[n - 1 : n + k]
        acc = sum(map(operator.mul, coefficients, window))
        last = scale * window[k]
        if acc != last:
            residual = acc - last
            return VerificationResult(False, n, residual / Fraction(scale) if k else residual)
    return VerificationResult(True)


def kernel_nontrivial(rows, width: int | None = None):
    """A nonzero kernel vector of an m x n matrix with m < n.

    With no rows at all the answer is canonically the first unit vector.
    The returned vector has 1 in the first free column of the reduced form,
    which makes the choice deterministic.
    """
    rows = [tuple(r) for r in rows]
    if width is None:
        if not rows:
            raise DimensionError("width is required for an empty matrix")
        width = len(rows[0])
    if len(rows) >= width:
        raise DimensionError(f"{len(rows)} rows x {width} columns: need m < n")
    vector = next(linalg.iter_kernel_basis(rows, width), None)
    if vector is None:
        raise ArithmeticError("m < n guarantees a nonzero kernel vector")
    return vector


def guess_recurrence(
    seq: Sequence, max_order: int, window_count: int | None = None
) -> LinearRecurrence | None:
    """Least-order recurrence of order <= max_order fitting the data.

    The width-(k+1) window matrix over rows n = 1..W is the first k+1
    columns of the width-(max_order+1) one, and column j is the terms
    b_{1+j}..b_{W+j}.  One Gauss-Jordan pass reads these columns in order
    (`linalg.kernel_vectors`): a free column k gives the order-k kernel
    vector v with v[k] = 1, so -v[:k] are the coefficients, and the first
    k whose recurrence verifies on all supplied terms wins, so the pass
    stops after column k.  Returns None when no order <= max_order fits.
    The result is only ever "verified on available data": finitely many
    terms cannot prove a recurrence for all n.  Rational terms are scaled
    to integers once, which changes neither the reduced window matrix nor
    what verifies, and screened: the order-m Hankel matrix (b_{1+i+j}),
    m = max_order, is the window matrix on rows 1..m+1, inside the pass's
    W >= m+1 rows.  If linalg.hankel_screen proves H_m != 0 (Catalan: 1),
    columns 0..m are independent there, hence on all W rows, so every column
    is pivotal, the pass would return None, and None is returned at once.
    """
    if window_count is None:
        window_count = min(2 * max_order + 4, len(seq) - max_order)
    if window_count < max_order + 1:
        raise InsufficientDataError(
            f"need window count >= {max_order + 1}, have {window_count}"
        )
    if len(seq) < max_order + window_count:
        raise InsufficientDataError(
            f"need {max_order + window_count} terms, have {len(seq)}"
        )
    terms = seq.terms
    if seq.is_rational():
        terms, _ = linalg.clear_denominators(terms)
        if linalg.hankel_screen(terms[: 2 * max_order + 1]):
            return None
        seq = Sequence(seq.name, terms)
    columns = (terms[j : j + window_count] for j in range(max_order + 1))
    for k, v in linalg.kernel_vectors(columns, window_count):
        candidate = LinearRecurrence(tuple(-x for x in v[:k]))
        if verify(seq, candidate).passed:
            return candidate
    return None


def hankel_nonsingular_witness(seq: Sequence, order: int, offset: int) -> Fraction:
    """Exact determinant of the square window matrix rows n = offset..offset+order.

    A nonzero value certifies that no recurrence of order <= order fits the
    windows covering those rows.
    """
    if order < 0 or offset < 1:
        raise ValueError(f"need order >= 0 and offset >= 1, got {order}, {offset}")
    if offset + 2 * order > len(seq):
        raise InsufficientDataError(
            f"need {offset + 2 * order} terms for order {order} at offset {offset}, have {len(seq)}"
        )
    return linalg.determinant([seq.window(offset + i, order + 1) for i in range(order + 1)])


def hankel_evidence(seq: Sequence, max_order: int) -> list:
    """(k, (offset, determinant) or None) for k = 0..max_order: the first
    offset whose square order-k window matrix is nonsingular, proving that
    no recurrence of order <= k fits the terms, or None if there is none.
    Needs rational terms b_1..b_{2K+1}, K = max_order: one pass over them,
    scaled to integers by s (linalg.hankel_minors), gives every offset-1
    minor as minor_k / s**(k+1), and orders at or past the first zero minor
    search further offsets one determinant at a time."""
    if max_order < 0:
        raise ValueError(f"need max_order >= 0, got {max_order}")
    if len(seq) < 2 * max_order + 1:
        raise InsufficientDataError(
            f"need {2 * max_order + 1} terms for orders up to {max_order}, have {len(seq)}"
        )
    ints, scale = linalg.clear_denominators(seq.terms[: 2 * max_order + 1])
    minors = [m for m in linalg.hankel_minors(ints) if m]  # the list ends at its first zero
    evidence = [(k, (1, Fraction(m, scale ** (k + 1)))) for k, m in enumerate(minors)]
    for k in range(len(minors), max_order + 1):
        offsets = range(1, len(seq) - 2 * k + 1)
        dets = ((at, hankel_nonsingular_witness(seq, k, at)) for at in offsets)
        evidence.append((k, next(((at, det) for at, det in dets if det != 0), None)))
    return evidence


def normalize_coprime(rec: LinearRecurrence) -> IntegerRecurrenceVector:
    """Rewrite sum_{j<k} a_j b_{n+j} - b_{n+k} = 0 with coprime integers.

    Appends a_k = -1, clears denominators by their lcm, and divides out the
    gcd; the represented linear form is a positive rational multiple of the
    input form.
    """
    if not rec.is_rational():
        raise ValueError("coprime normalization needs rational coefficients")
    ints, _ = linalg.clear_denominators(rec.coefficients + (-1,))
    g = math.gcd(*ints)
    return IntegerRecurrenceVector(tuple(i // g for i in ints))


def descend_field(
    seq: Sequence, rec: LinearRecurrence, window_count: int
) -> LinearRecurrence:
    """Replace extension-field coefficients by rational ones, order k' <= k.

    The rational window vectors annihilated by the extension-field
    coefficient vector span a space of dimension < k+1, so the rational
    width-(k+1) window matrix is singular: guess_recurrence's column pass
    over it finds the least-order rational recurrence verified on all
    supplied terms.
    """
    k = rec.order
    if window_count < k + 2:
        raise ValueError(f"need window count >= {k + 2}, got {window_count}")
    if not seq.is_rational():
        raise ValueError("field descent needs a rational-valued sequence")
    check = verify(seq, rec, (1, window_count))
    if not check.passed:
        raise ValueError(
            f"input recurrence fails on window {check.failed_index}: residual {check.residual}"
        )
    result = guess_recurrence(seq, k, window_count)
    if result is None:
        raise ValueError(
            f"no rational recurrence of order <= {k} verifies on all {len(seq)} terms; "
            "supply more windows so the rank profile stabilizes"
        )
    return result
