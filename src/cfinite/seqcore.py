"""Exact value types and the sequence generators under study.

Everything is 1-indexed with C_1 = C_2 = 1, so C_n here equals the
classical Catalan number of index n - 1.  Four independent Catalan
generators are provided (brute-force ballot counting, the convolution
recurrence, the closed binomial formula, and the term-ratio recurrence)
so that each can serve as an oracle for the others.

All arithmetic is exact: integers are arbitrary precision, rationals are
``fractions.Fraction`` (always canonical: positive denominator, coprime
parts), and quadratic irrationals carry their radicand explicitly.
"""

import math
from dataclasses import dataclass
from fractions import Fraction

from .errors import MixedRadicandError, ResourceLimitError

# Caps on the brute-force ballot enumeration: n = 13 means 2**24 words, and
# no cap above n = 17 (2**32 words) is accepted.
BALLOT_CAP_DEFAULT = 13
BALLOT_CAP_MAX = 17


def _is_squarefree(n: int) -> bool:
    n = abs(n)
    if n == 0:
        return False
    if n % 4 == 0:
        return False
    p = 3
    while p * p <= n:
        if n % (p * p) == 0:
            return False
        p += 2
    return True


@dataclass(frozen=True, eq=False)
class QuadraticFieldElement:
    """An element rational + surd*sqrt(radicand) of Q(sqrt(radicand)).

    The radicand must be squarefree and different from 0 and 1, so the
    representation is unique.  Elements with different radicands refuse to
    combine rather than silently working in a composite field.
    """

    rational: Fraction
    surd: Fraction
    radicand: int

    def __post_init__(self):
        object.__setattr__(self, "rational", Fraction(self.rational))
        object.__setattr__(self, "surd", Fraction(self.surd))
        if self.radicand in (0, 1) or not _is_squarefree(self.radicand):
            raise ValueError(
                f"radicand must be squarefree and not 0 or 1, got {self.radicand}"
            )

    def _coerce(self, other):
        if isinstance(other, QuadraticFieldElement):
            if other.radicand != self.radicand:
                raise MixedRadicandError(
                    f"cannot combine sqrt({self.radicand}) with sqrt({other.radicand})"
                )
            return other
        if isinstance(other, (int, Fraction)):
            return QuadraticFieldElement(Fraction(other), Fraction(0), self.radicand)
        return None

    def __add__(self, other):
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        return QuadraticFieldElement(
            self.rational + other.rational, self.surd + other.surd, self.radicand
        )

    __radd__ = __add__

    def __neg__(self):
        return QuadraticFieldElement(-self.rational, -self.surd, self.radicand)

    def __sub__(self, other):
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        return self + (-other)

    def __rsub__(self, other):
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        return other + (-self)

    def __mul__(self, other):
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        return QuadraticFieldElement(
            self.rational * other.rational + self.surd * other.surd * self.radicand,
            self.rational * other.surd + self.surd * other.rational,
            self.radicand,
        )

    __rmul__ = __mul__

    def conjugate(self):
        return QuadraticFieldElement(self.rational, -self.surd, self.radicand)

    def norm(self) -> Fraction:
        """Field norm: rational**2 - radicand * surd**2; zero only for 0."""
        return self.rational * self.rational - self.radicand * self.surd * self.surd

    def __truediv__(self, other):
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        nrm = other.norm()
        if nrm == 0:
            raise ZeroDivisionError("division by zero quadratic field element")
        return self * other.conjugate() * (1 / nrm)

    def __rtruediv__(self, other):
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        return other / self

    def __eq__(self, other):
        if isinstance(other, QuadraticFieldElement):
            if other.radicand != self.radicand:
                # distinct-radicand elements can only both be rational
                return self.surd == 0 and other.surd == 0 and self.rational == other.rational
            return self.rational == other.rational and self.surd == other.surd
        if isinstance(other, (int, Fraction)):
            return self.surd == 0 and self.rational == other
        return NotImplemented

    def __bool__(self):
        return self.rational != 0 or self.surd != 0

    def __hash__(self):
        if self.surd == 0:
            return hash(self.rational)
        return hash((self.rational, self.surd, self.radicand))

    def __float__(self):
        return float(self.rational) + float(self.surd) * math.sqrt(self.radicand)

    def __str__(self):
        if self.surd == 0:
            return str(self.rational)
        surd = f"sqrt({self.radicand})" if abs(self.surd) == 1 else f"{abs(self.surd)}*sqrt({self.radicand})"
        sign = "-" if self.surd < 0 else "+"
        if self.rational == 0:
            return surd if self.surd > 0 else f"-{surd}"
        return f"{self.rational} {sign} {surd}"


@dataclass(frozen=True)
class Sequence:
    """An immutable 1-indexed sequence of exact numbers with a name."""

    name: str
    terms: tuple

    def __post_init__(self):
        object.__setattr__(self, "terms", tuple(self.terms))

    def __len__(self) -> int:
        return len(self.terms)

    def term(self, n: int):
        """The n-th term, 1-indexed."""
        if not 1 <= n <= len(self.terms):
            raise IndexError(f"index {n} outside 1..{len(self.terms)}")
        return self.terms[n - 1]

    __getitem__ = term

    def window(self, n: int, width: int) -> tuple:
        """Terms b_n, b_{n+1}, ..., b_{n+width-1}."""
        if not (1 <= n and n + width - 1 <= len(self.terms)):
            raise IndexError(f"window [{n}, {n + width - 1}] outside 1..{len(self.terms)}")
        return self.terms[n - 1 : n - 1 + width]

    def is_rational(self) -> bool:
        return all(isinstance(t, (int, Fraction)) for t in self.terms)


def _half_words(h: int) -> tuple:
    """(heights, lows) of every word of h letters: the sum of its letters
    and its lowest prefix sum, the empty prefix included.  Letter i of word
    w is +1 if bit i of w is set and -1 otherwise."""
    heights, lows = [0], [0]
    for _ in range(h):
        # the new letter is the top bit: -1 for the first half of the table
        heights, lows = (
            [x - 1 for x in heights] + [x + 1 for x in heights],
            [min(m, x - 1) for m, x in zip(lows, heights)] + lows,
        )
    return heights, lows


def _bitset(codes: bytes, wanted) -> int:
    """The int whose bit w is set iff codes[w] is in wanted."""
    table = bytearray(b"0" * 256)
    for c in wanted:
        if 0 <= c < 256:  # table[-1] would be code 255, the dip marker
            table[c] = ord("1")
    return int(codes[::-1].translate(table), 2)


def catalan_ballot(n: int, cap: int = BALLOT_CAP_DEFAULT) -> int:
    """Count ballot words of length 2n - 2 by exhaustive enumeration.

    A ballot word is a word over {-1, +1} whose proper initial sums are all
    nonnegative and whose total sum is zero; there are C_n of them.  Every
    one of the 2**(2n-2) candidate words is decided, which makes this
    generator independent of any formula, and also why n is capped.

    A word is its first h = n - 1 letters followed by its last h.  It is a
    ballot word iff the first half never dips below 0, the second half
    never dips below minus the first half's height, and the two heights
    cancel.  The height and lowest prefix sum of all 2**h half-words are
    computed once.  For each second half, the verdicts of the 2**h words
    that share it are the bits of one int: the AND of the first halves that
    never dip and end at minus its height with the first halves at least as
    high as minus its lowest prefix sum.  The set bits are then counted.
    """
    if cap > BALLOT_CAP_MAX:
        raise ResourceLimitError(
            f"ballot cap {cap} is above {BALLOT_CAP_MAX}: "
            f"n = {BALLOT_CAP_MAX} already means 2**{2 * BALLOT_CAP_MAX - 2} words"
        )
    if n < 2:
        raise ValueError(f"ballot counting is defined for n >= 2, got {n}")
    if n > cap:
        raise ResourceLimitError(
            f"ballot enumeration for n={n} needs 2**{2 * n - 2} words; cap is n <= {cap}"
        )
    h = n - 1
    heights, lows = _half_words(h)
    # a first half's code is its height, or 255 when it dips below 0
    codes = bytes(x if m >= 0 else 255 for x, m in zip(heights, lows))
    ends_at = [_bitset(codes, {v}) for v in range(-h, h + 1)]  # index v + h
    at_least = [_bitset(codes, range(t, h + 1)) for t in range(h + 1)]
    # a second half of height x and lowest prefix sum m <= 0
    return sum(
        (ends_at[h - x] & at_least[-m]).bit_count() for x, m in zip(heights, lows)
    )


def catalan_convolution(count: int) -> Sequence:
    """(C_1, ..., C_count) via C_1 = 1 and C_n = sum_{j=1}^{n-1} C_j C_{n-j}."""
    if count < 1:
        raise ValueError(f"need count >= 1, got {count}")
    terms = [1]
    for n in range(2, count + 1):
        terms.append(sum(terms[j - 1] * terms[n - j - 1] for j in range(1, n)))
    return Sequence("catalan[convolution]", tuple(terms))


def catalan_closed(n: int) -> int:
    """C_n = binom(2n-2, n-1) / n; the division is always exact."""
    if n < 1:
        raise ValueError(f"need n >= 1, got {n}")
    binom = math.comb(2 * n - 2, n - 1)
    quotient, remainder = divmod(binom, n)
    if remainder:
        raise ArithmeticError("closed-formula division left a remainder")
    return quotient


def _term_ratio(first: int, start: int, count: int) -> list:
    """[C_start, ..., C_{start+count-1}] from first = C_start, count >= 1, by
    the term ratio C_{n+1} = (4n-2)/(n+1) * C_n."""
    terms = [first]
    for n in range(start, start + count - 1):
        quotient, remainder = divmod(terms[-1] * (4 * n - 2), n + 1)
        if remainder:
            raise ArithmeticError("term-ratio recurrence left a remainder")
        terms.append(quotient)
    return terms


def catalan_holonomic(count: int) -> Sequence:
    """(C_1, ..., C_count) via the term ratio C_{n+1} = (4n-2)/(n+1) * C_n."""
    if count < 1:
        raise ValueError(f"need count >= 1, got {count}")
    return Sequence("catalan[holonomic]", tuple(_term_ratio(1, 1, count)))


def fibonacci(count: int) -> Sequence:
    """(1, 1, 2, 3, 5, 8, ...) to the requested length."""
    if count < 1:
        raise ValueError(f"need count >= 1, got {count}")
    terms = [1, 1]
    while len(terms) < count:
        terms.append(terms[-1] + terms[-2])
    return Sequence("fibonacci", tuple(terms[:count]))


def catalan_is_odd(n: int) -> bool:
    """C_n is odd if and only if n is a power of two (including n = 1)."""
    if n < 1:
        raise ValueError(f"need n >= 1, got {n}")
    return n & (n - 1) == 0


def catalan_is_odd_by_reduction(n: int) -> bool:
    """Independent parity check via the mod-2 convolution.

    The convolution recurrence gives C_n even for odd n > 1 and
    C_n = C_{n/2} (mod 2) for even n, so parity reduces by halving until
    an odd index remains.
    """
    if n < 1:
        raise ValueError(f"need n >= 1, got {n}")
    while n > 1:
        if n % 2:
            return False
        n //= 2
    return True
