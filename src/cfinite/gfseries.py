"""Exact dense polynomials and truncated formal power series.

`Polynomial` is the dense univariate polynomial the package computes with:
coefficients low order first, exact (int / Fraction) wherever the caller
gives exact ones.  `convolve` multiplies coefficient lists, `poly_gcd`
takes the monic gcd over the rationals through integer pseudo-remainders,
and `linear_factor_product` multiplies linear factors in a fixed order.
Only the numeric root tier in `powersum` works with complex coefficients.

A series carries coefficients c_0..c_N and never claims anything beyond
its truncation order N; binary operations truncate to the smaller N of
their operands.  Coefficients stay ints or Fractions as given, so integer
series such as sqrt(1 - 4x) and C(x) multiply in integers.  Rational
functions p/q with q(0) != 0 expand into series through the standard
inversion recurrence, and the reconstruction direction recovers p/q from
enough sequence terms when one exists.
"""

import itertools
import math
from fractions import Fraction

from . import linalg
from ._record import Record
from .errors import InsufficientDataError
from .seqcore import Sequence


def _is_exact(value) -> bool:
    return isinstance(value, (int, Fraction))


def convolve(x, y, length: int) -> list:
    """Coefficients 0..length-1 of the product of coefficient lists x and y.

    Zero coefficients of the outer operand x are skipped, so passing the
    shorter or sparser operand as x does the least work.
    """
    out = [0] * length
    for i, a in enumerate(x[:length]):
        if a == 0:
            continue
        end = min(length, i + len(y))
        out[i:end] = [c + a * b for c, b in zip(out[i:end], y)]
    return out


class Polynomial:
    """Dense univariate polynomial; coefficients low order first.

    Coefficients are exact (int / Fraction) or complex floats.  The zero
    polynomial has an empty coefficient tuple and degree -1.
    """

    __slots__ = ("coeffs",)

    def __init__(self, coeffs=()):
        coeffs = list(coeffs)
        while coeffs and coeffs[-1] == 0:
            coeffs.pop()
        self.coeffs = tuple(coeffs)

    @classmethod
    def x(cls):
        return cls((0, 1))

    @property
    def degree(self) -> int:
        return len(self.coeffs) - 1

    @property
    def is_zero(self) -> bool:
        return not self.coeffs

    def coefficient(self, i: int):
        return self.coeffs[i] if 0 <= i < len(self.coeffs) else 0

    @property
    def leading(self):
        if self.is_zero:
            raise ValueError("the zero polynomial has no leading coefficient")
        return self.coeffs[-1]

    def is_exact(self) -> bool:
        return all(_is_exact(c) for c in self.coeffs)

    def __call__(self, x):
        acc = 0
        for c in reversed(self.coeffs):
            acc = acc * x + c
        return acc

    def __eq__(self, other):
        if isinstance(other, Polynomial):
            return self.coeffs == other.coeffs
        if isinstance(other, (int, Fraction, complex, float)):
            return self == Polynomial((other,))
        return NotImplemented

    def __hash__(self):
        return hash(self.coeffs)

    def __add__(self, other):
        if not isinstance(other, Polynomial):
            other = Polynomial((other,))
        n = max(len(self.coeffs), len(other.coeffs))
        return Polynomial(
            tuple(self.coefficient(i) + other.coefficient(i) for i in range(n))
        )

    __radd__ = __add__

    def __neg__(self):
        return Polynomial(tuple(-c for c in self.coeffs))

    def __sub__(self, other):
        if not isinstance(other, Polynomial):
            other = Polynomial((other,))
        return self + (-other)

    def __rsub__(self, other):
        return (-self) + other

    def __mul__(self, other):
        if not isinstance(other, Polynomial):
            return Polynomial(tuple(c * other for c in self.coeffs))
        outer, inner = self.coeffs, other.coeffs
        if len(outer) > len(inner):
            outer, inner = inner, outer
        return Polynomial(convolve(outer, inner, len(outer) + len(inner) - 1))

    __rmul__ = __mul__

    def __pow__(self, n: int):
        if n < 0:
            raise ValueError("negative polynomial powers are not defined")
        result = Polynomial((1,))
        for _ in range(n):
            result = result * self
        return result

    def __divmod__(self, other):
        if not isinstance(other, Polynomial):
            other = Polynomial((other,))
        if other.is_zero:
            raise ZeroDivisionError("polynomial division by zero")
        rem = list(self.coeffs)
        quot = [0] * max(0, len(rem) - len(other.coeffs) + 1)
        lead = other.leading
        if _is_exact(lead):
            lead = Fraction(lead)  # keep int coefficient division exact
        for i in range(len(quot) - 1, -1, -1):
            c = rem[i + other.degree] / lead
            quot[i] = c
            if c != 0:
                for j, b in enumerate(other.coeffs):
                    rem[i + j] -= c * b
        return Polynomial(tuple(quot)), Polynomial(tuple(rem[: other.degree]))

    def __floordiv__(self, other):
        return divmod(self, other)[0]

    def __mod__(self, other):
        return divmod(self, other)[1]

    def derivative(self):
        return Polynomial(tuple(i * c for i, c in enumerate(self.coeffs) if i))

    def monic(self):
        if self.is_zero:
            return self
        lead = self.leading
        return Polynomial(tuple(Fraction(c) / lead if _is_exact(c) else c / lead for c in self.coeffs))

    def __repr__(self):
        return f"Polynomial({self.coeffs!r})"

    def __str__(self):
        if self.is_zero:
            return "0"
        if not self.is_exact():
            return " + ".join(
                f"({c})*x^{i}" if i else f"({c})"
                for i, c in enumerate(self.coeffs)
                if c != 0
            )
        parts = []
        for i, c in enumerate(self.coeffs):
            if c == 0:
                continue
            if i == 0:
                body = str(abs(c))
            else:
                xpow = "x" if i == 1 else f"x^{i}"
                body = xpow if abs(c) == 1 else f"{abs(c)}*{xpow}"
            if not parts:
                parts.append(body if c > 0 else f"-{body}")
            else:
                parts.append(f"+ {body}" if c > 0 else f"- {body}")
        return " ".join(parts)


def _primitive_ints(poly: Polynomial) -> list:
    """Integer coefficients of the primitive part, positive leading term."""
    ints, _ = linalg.clear_denominators(poly.coeffs)
    g = math.gcd(*ints)
    if ints[-1] < 0:
        g = -g
    return [c // g for c in ints]


def _pseudo_mod(fa: list, fb: list) -> list:
    """Primitive remainder of fa modulo fb, up to scalars, integers only.

    Scaling by the leading coefficient instead of dividing keeps every step
    in the integers; the content is stripped after each elimination so the
    coefficients stay small.  Scalars do not matter for gcd purposes.
    """
    rem = list(fa)
    lead = fb[-1]
    while len(rem) >= len(fb):
        top = rem.pop()
        if top == 0:
            continue
        rem = [lead * r for r in rem]
        shift = len(rem) - (len(fb) - 1)
        for j, b in enumerate(fb[:-1]):
            rem[shift + j] -= top * b
        if any(rem):
            g = math.gcd(*rem)
            rem = [r // g for r in rem]
    while rem and rem[-1] == 0:
        rem.pop()
    return rem


def _coprime_mod_prime(fa: list, fb: list) -> bool:
    """True only when gcd(fa, fb) over Q is provably constant.

    If the prime p = linalg.PRIME divides neither leading coefficient, the
    gcd degree over Q is at most the gcd degree mod p, so a constant modular
    gcd certifies coprimality.  Returns False when inconclusive.
    """
    p = linalg.PRIME
    if fa[-1] % p == 0 or fb[-1] % p == 0:
        return False
    a = [c % p for c in fa]
    b = [c % p for c in fb]
    while True:
        while b and b[-1] == 0:
            b.pop()
        if not b:
            return len(a) == 1
        if len(a) < len(b):
            a, b = b, a
            continue
        inv = pow(b[-1], -1, p)
        for i in range(len(a) - len(b), -1, -1):
            c = a[i + len(b) - 1] * inv % p
            if c:
                for j, bc in enumerate(b):
                    a[i + j] = (a[i + j] - c * bc) % p
        a, b = b, a[: len(b) - 1]


def poly_gcd(a: Polynomial, b: Polynomial) -> Polynomial:
    """Monic gcd over the rationals.

    Coprimality (the generic case) is certified by a cheap modular filter;
    otherwise a primitive pseudo-remainder sequence runs over the integers.
    The naive Euclidean algorithm on Fraction coefficients blows up
    coefficient sizes already around degree 100.
    """
    if a.is_zero:
        return b.monic()
    if b.is_zero:
        return a.monic()
    if not (a.is_exact() and b.is_exact()):
        raise ValueError("polynomial gcd needs exact coefficients")
    fa, fb = _primitive_ints(a), _primitive_ints(b)
    if len(fa) == 1 or len(fb) == 1:
        return Polynomial((Fraction(1),))
    if _coprime_mod_prime(fa, fb):
        return Polynomial((Fraction(1),))
    while True:
        if len(fb) > len(fa):
            fa, fb = fb, fa
        rem = _pseudo_mod(fa, fb)
        if not rem:
            break
        fa, fb = fb, rem
    lead = fb[-1]
    return Polynomial(tuple(Fraction(c, lead) for c in fb))


def linear_factor_product(factors) -> Polynomial:
    """Product of the linear polynomials c + d*x over the pairs (c, d) in
    factors, multiplied in the given order; the empty product is 1."""
    poly = Polynomial((1,))
    for c, d in factors:
        poly = poly * Polynomial((c, d))
    return poly


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


class RationalFunction(Record):
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


def rational_gf(rec: "LinearRecurrence", initial_terms) -> RationalFunction:
    """p/q whose series sum_{n>=1} b_n x**n matches the recurrence's sequence.

    q(x) = 1 - a_{k-1} x - ... - a_0 x**k, and p = q * B truncated at
    degree k (the recurrence kills every higher coefficient).  The pair is
    built in integers: q and B = 0 + b_1 x + ... + b_k x**k are each cleared
    once to integers over their common denominators L_q and L_B, so p is
    the convolution of the two integer lists divided by L_q L_B, and
    RationalFunction reduces P / (L_B Q), the same p/q, to lowest terms.
    The result is re-expanded over 3k + 10 terms as a self-check.
    """
    initial = tuple(initial_terms)
    return _check_rational_gf(_rational_gf_pair(rec, initial), rec, initial)


def _rational_gf_pair(rec: "LinearRecurrence", initial: tuple) -> RationalFunction:
    k = rec.order
    if len(initial) != k:
        raise ValueError(f"need {k} initial terms, got {len(initial)}")
    if not rec.is_rational():
        raise ValueError("rational generating functions need rational coefficients")
    q_ints, _ = linalg.clear_denominators((1,) + tuple(-c for c in reversed(rec.coefficients)))
    b_ints, b_scale = linalg.clear_denominators((0,) + tuple(Fraction(t) for t in initial))
    return RationalFunction(
        Polynomial(convolve(q_ints, b_ints, k + 1)), Polynomial([b_scale * c for c in q_ints])
    )


def _check_rational_gf(rf: RationalFunction, rec: "LinearRecurrence", initial: tuple):
    """rf; ArithmeticError if its series is not the recurrence's sequence to 3k + 10."""
    from .recurrence import iterate_recurrence  # only the self-check needs recurrence

    depth = 3 * rec.order + 10
    expansion = expand_rational(rf, depth)
    expected = iterate_recurrence(rec, initial, depth)
    for n in range(1, depth + 1):
        if expansion.coefficient(n) != expected[n - 1]:
            raise ArithmeticError(f"re-expansion mismatch at {n}")
    return rf


def _expansion(p: Polynomial, q: Polynomial):
    """The coefficients of p * q**(-1), q(0) != 0 (callers check it), from
    index 0 on and without end, by the inversion recurrence."""
    q0 = q(0)
    coeffs = []
    for n in itertools.count():
        acc = Fraction(p.coefficient(n))
        for i in range(1, min(n, q.degree) + 1):
            acc -= q.coefficient(i) * coeffs[n - i]
        coeffs.append(acc / q0)
        yield coeffs[-1]


def expand_rational(rf: RationalFunction, order: int) -> TruncatedSeries:
    """Series of p * q**(-1) via the inversion recurrence, exact rationals."""
    return TruncatedSeries(itertools.islice(_expansion(rf.numerator, rf.denominator), order + 1))


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
    kernel = linalg.iter_kernel_basis(rows, den_degree + 1)
    q_vec = next((v for v in kernel if v[0] != 0), None)
    if q_vec is None:
        return None
    q = Polynomial(q_vec)
    rf = RationalFunction(Polynomial(convolve(q.coeffs, c, num_degree + 1)), q)
    expansion = expand_rational(rf, terms)
    if any(expansion.coefficient(n) != c[n] for n in range(terms + 1)):
        return None
    return rf


class DegreeParityVerdict(Record):
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
