"""Truncated formal power series over exact rationals.

A series carries coefficients c_0..c_N and never claims anything beyond
its truncation order N; binary operations truncate to the smaller N of
their operands.  Coefficients stay ints or Fractions as given, so integer
series such as sqrt(1 - 4x) and C(x) multiply in integers.  Rational
functions p/q with q(0) != 0 expand into series through the standard
inversion recurrence, and the reconstruction direction recovers p/q from
enough sequence terms when one exists.
"""

from dataclasses import dataclass
from fractions import Fraction

from . import linalg
from .errors import InsufficientDataError
from .powersum import convolve, Polynomial, poly_gcd
from .recurrence import iterate_recurrence, LinearRecurrence
from .seqcore import Sequence


class TruncatedSeries:
    """Coefficients c_0..c_N of a formal power series, truncated at N."""

    __slots__ = ("coefficients",)

    def __init__(self, coefficients, order: int | None = None):
        coeffs = list(coefficients)
        if order is not None:
            if order < 0:
                raise ValueError(f"need truncation order >= 0, got {order}")
            coeffs = coeffs[: order + 1] + [0] * (order + 1 - len(coeffs))
        if not coeffs:
            raise ValueError("a series needs at least the constant coefficient")
        self.coefficients = tuple(coeffs)

    @property
    def truncation(self) -> int:
        return len(self.coefficients) - 1

    def coefficient(self, n: int) -> Fraction:
        if not 0 <= n <= self.truncation:
            raise IndexError(f"coefficient {n} beyond truncation {self.truncation}")
        return self.coefficients[n]

    def truncate(self, order: int) -> "TruncatedSeries":
        if order > self.truncation:
            raise ValueError(f"cannot extend truncation {self.truncation} to {order}")
        return TruncatedSeries(self.coefficients[: order + 1])

    def __eq__(self, other):
        if not isinstance(other, TruncatedSeries):
            return NotImplemented
        return self.coefficients == other.coefficients

    def __hash__(self):
        return hash(self.coefficients)

    def __add__(self, other):
        if isinstance(other, (int, Fraction)):
            coeffs = list(self.coefficients)
            coeffs[0] += other
            return TruncatedSeries(coeffs)
        n = min(self.truncation, other.truncation)
        return TruncatedSeries(
            [a + b for a, b in zip(self.coefficients, other.coefficients)], n
        )

    __radd__ = __add__

    def __neg__(self):
        return TruncatedSeries([-c for c in self.coefficients])

    def __sub__(self, other):
        return self + (-other)

    def __rsub__(self, other):
        return (-self) + other

    def __mul__(self, other):
        if isinstance(other, (int, Fraction)):
            return TruncatedSeries([c * other for c in self.coefficients])
        n = min(self.truncation, other.truncation)
        return TruncatedSeries(convolve(self.coefficients, other.coefficients, n + 1))

    __rmul__ = __mul__

    def __repr__(self):
        head = ", ".join(str(c) for c in self.coefficients[:8])
        tail = ", ..." if self.truncation >= 8 else ""
        return f"TruncatedSeries([{head}{tail}], N={self.truncation})"


@dataclass(frozen=True)
class RationalFunction:
    """p/q with q(0) != 0, stored with gcd(p, q) = 1 and q(0) = 1."""

    numerator: Polynomial
    denominator: Polynomial

    def __post_init__(self):
        p, q = self.numerator, self.denominator
        if q(0) == 0:
            raise ValueError("denominator must be nonzero at 0")
        g = poly_gcd(p, q)
        if not g.is_zero and g.degree > 0:
            p, q = p // g, q // g
        scale = q(0)
        p = p * (Fraction(1) / scale)
        q = q * (Fraction(1) / scale)
        object.__setattr__(self, "numerator", p)
        object.__setattr__(self, "denominator", q)

    def __str__(self):
        if self.numerator.is_zero:
            return "0"
        if self.denominator == Polynomial((1,)):
            return str(self.numerator)
        num = str(self.numerator)
        if self.numerator.degree > 0 and len(self.numerator.coeffs) - self.numerator.coeffs.count(0) > 1:
            num = f"({num})"
        return f"{num}/({self.denominator})"


def sqrt_one_minus_4x(order: int) -> TruncatedSeries:
    """The square root of 1 - 4x: coefficient n is binom(1/2, n) * (-4)**n.

    Every coefficient is an integer, computed as one: the ratio
    binom(1/2, n) / binom(1/2, n-1) = (3 - 2n) / 2n gives
    s_n = s_{n-1} * 2(2n - 3) / n, and each division is checked exact.
    """
    if order < 0:
        raise ValueError(f"need order >= 0, got {order}")
    coeffs = [1]
    for n in range(1, order + 1):
        quotient, remainder = divmod(coeffs[-1] * 2 * (2 * n - 3), n)
        if remainder:
            raise ArithmeticError("sqrt(1 - 4x) coefficient division left a remainder")
        coeffs.append(quotient)
    return TruncatedSeries(coeffs)


def catalan_gf(order: int) -> TruncatedSeries:
    """C(x) = (1 - sqrt(1 - 4x)) / 2; coefficient n is C_n, coefficient 0 is 0.

    1 - sqrt(1 - 4x) has even integer coefficients, halved exactly.
    """
    if order < 1:
        raise ValueError(f"need order >= 1, got {order}")
    doubled = (1 - sqrt_one_minus_4x(order)).coefficients
    if any(c % 2 for c in doubled):
        raise ArithmeticError("1 - sqrt(1 - 4x) has an odd coefficient")
    return TruncatedSeries([c // 2 for c in doubled])


def rational_gf(rec: LinearRecurrence, initial_terms) -> RationalFunction:
    """p/q whose series sum_{n>=1} b_n x**n matches the recurrence's sequence.

    q(x) = 1 - a_{k-1} x - ... - a_0 x**k, and p = q * B truncated at
    degree k (the recurrence kills every higher coefficient); the result is
    re-expanded over 3k + 10 terms as a self-check.
    """
    initial = tuple(initial_terms)
    k = rec.order
    if len(initial) != k:
        raise ValueError(f"need {k} initial terms, got {len(initial)}")
    if not rec.is_rational():
        raise ValueError("rational generating functions need rational coefficients")
    q = Polynomial((Fraction(1),) + tuple(-c for c in reversed(rec.coefficients)))
    b_prefix = (Fraction(0),) + tuple(Fraction(t) for t in initial)
    rf = RationalFunction(Polynomial(convolve(q.coeffs, b_prefix, k + 1)), q)
    depth = 3 * k + 10
    expansion = expand_rational(rf, depth)
    expected = iterate_recurrence(rec, initial, depth)
    for n in range(1, depth + 1):
        if expansion.coefficient(n) != expected[n - 1]:
            raise ArithmeticError(f"re-expansion mismatch at {n}")
    return rf


def expand_rational(rf: RationalFunction, order: int) -> TruncatedSeries:
    """Series of p * q**(-1) via the inversion recurrence, exact rationals."""
    q0 = rf.denominator(0)
    if q0 == 0:
        raise ValueError("denominator must be nonzero at 0")
    coeffs = []
    for n in range(order + 1):
        acc = Fraction(rf.numerator.coefficient(n))
        for i in range(1, min(n, rf.denominator.degree) + 1):
            acc -= rf.denominator.coefficient(i) * coeffs[n - i]
        coeffs.append(acc / q0)
    return TruncatedSeries(coeffs)


def pade_reconstruct(seq: Sequence, num_degree: int, den_degree: int):
    """Rational function with the given degree bounds matching every term.

    The sequence is read as the series 0 + b_1 x + b_2 x**2 + ...; the
    reconstruction must reproduce every supplied term, not just the usual
    diagonal conditions, so failure at all small degrees is meaningful
    evidence that no such function exists.  Returns None when no match.
    """
    if num_degree < 0 or den_degree < 0:
        raise ValueError("degree bounds must be nonnegative")
    terms = len(seq)
    if terms < num_degree + den_degree + 2:
        raise InsufficientDataError(
            f"need at least {num_degree + den_degree + 2} terms, have {terms}"
        )
    c = [Fraction(0)] + [Fraction(t) for t in seq.terms]
    # q in the kernel of (q*c)_m = 0 for num_degree < m <= terms
    rows = [
        [c[m - i] if m - i >= 0 else Fraction(0) for i in range(den_degree + 1)]
        for m in range(num_degree + 1, terms + 1)
    ]
    basis = linalg.kernel_basis(rows, den_degree + 1)
    q_vec = next((v for v in basis if v[0] != 0), None)
    if q_vec is None:
        return None
    q = Polynomial(q_vec)
    rf = RationalFunction(Polynomial(convolve(q.coeffs, c, num_degree + 1)), q)
    expansion = expand_rational(rf, terms)
    if any(expansion.coefficient(n) != c[n] for n in range(terms + 1)):
        return None
    return rf


@dataclass(frozen=True)
class DegreeParityVerdict:
    """Degrees of b**2 (1-4x) and a**2, and where the two sides differ."""

    lhs_degree: int
    rhs_degree: int
    first_difference: tuple  # (index, lhs coefficient, rhs coefficient)

    @property
    def impossible(self) -> bool:
        return self.lhs_degree % 2 == 1 and self.rhs_degree % 2 == 0


def degree_parity_check(a: Polynomial, b: Polynomial) -> DegreeParityVerdict:
    """Why b(x)**2 (1 - 4x) = a(x)**2 cannot hold for a != 0, b(0) != 0.

    The left side has odd degree 2 deg(b) + 1 and the right side even
    degree 2 deg(a); both sides are also expanded and the first differing
    coefficient reported.
    """
    if a.is_zero:
        raise ValueError("need a != 0")
    if b(0) == 0:
        raise ValueError("need b(0) != 0")
    lhs = b * b * Polynomial((1, -4))
    rhs = a * a
    index = next(
        i
        for i in range(max(lhs.degree, rhs.degree) + 1)
        if lhs.coefficient(i) != rhs.coefficient(i)
    )
    return DegreeParityVerdict(
        lhs_degree=lhs.degree,
        rhs_degree=rhs.degree,
        first_difference=(index, lhs.coefficient(index), rhs.coefficient(index)),
    )
