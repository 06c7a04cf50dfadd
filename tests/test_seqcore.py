"""Value types and sequence generators."""

import itertools
from fractions import Fraction

import pytest

from cfinite.errors import MixedRadicandError, ResourceLimitError
from cfinite.seqcore import (
    _bitset,
    _half_words,
    BALLOT_CAP_DEFAULT,
    BALLOT_CAP_MAX,
    catalan_ballot,
    catalan_closed,
    catalan_convolution,
    catalan_holonomic,
    catalan_is_odd,
    catalan_is_odd_by_reduction,
    fibonacci,
    QuadraticFieldElement,
    Sequence,
)

# C_1..C_12 with the 1-based convention C_1 = C_2 = 1.
CATALAN_12 = (1, 1, 2, 5, 14, 42, 132, 429, 1430, 4862, 16796, 58786)


def ballot_count_bruteforce(n):
    """Oracle: literal enumeration with itertools, usable for small n."""
    count = 0
    for word in itertools.product((-1, 1), repeat=2 * n - 2):
        sums = list(itertools.accumulate(word))
        if all(s >= 0 for s in sums[:-1]) and sums[-1] == 0:
            count += 1
    return count


class TestCatalanBallot:
    def test_listed_values(self):
        assert catalan_ballot(2) == 1
        assert catalan_ballot(5) == 14

    def test_n3_enumeration(self):
        # exactly (1,-1,1,-1) and (1,1,-1,-1) qualify among the 16 words
        assert catalan_ballot(3) == 2

    @pytest.mark.parametrize("n", range(2, 10))
    def test_against_itertools_oracle(self, n):
        assert catalan_ballot(n) == ballot_count_bruteforce(n)

    def test_against_closed_formula_to_the_largest_cap(self):
        assert BALLOT_CAP_MAX == 17
        for n in range(2, BALLOT_CAP_MAX + 1):
            assert catalan_ballot(n, cap=BALLOT_CAP_MAX) == catalan_closed(n)

    def test_domain(self):
        with pytest.raises(ValueError):
            catalan_ballot(1)

    def test_cap(self):
        with pytest.raises(ResourceLimitError):
            catalan_ballot(6, cap=5)
        assert catalan_ballot(6, cap=6) == 42
        with pytest.raises(ResourceLimitError):
            catalan_ballot(BALLOT_CAP_DEFAULT + 1)

    def test_cap_above_the_largest_refused(self):
        # refused from the cap alone, before any word is enumerated
        with pytest.raises(ResourceLimitError, match="above 17"):
            catalan_ballot(2, cap=BALLOT_CAP_MAX + 1)

    @pytest.mark.parametrize("h", range(1, 13))
    def test_bitset_matches_a_full_table(self, h):
        # the sets catalan_ballot passes at this h, negative heights included;
        # a height of -1 must not mark the dip marker 255
        def full_table_bitset(codes, wanted):
            table = bytes(ord("1") if c in wanted else ord("0") for c in range(256))
            return int(codes[::-1].translate(table), 2)

        heights, lows = _half_words(h)
        codes = bytes(x if m >= 0 else 255 for x, m in zip(heights, lows))
        assert 255 in codes
        wanted_sets = [{v} for v in range(-h, h + 1)] + [range(t, h + 1) for t in range(h + 1)]
        for wanted in wanted_sets:
            assert _bitset(codes, wanted) == full_table_bitset(codes, wanted), wanted


class TestCatalanConvolution:
    def test_listed_values(self):
        assert catalan_convolution(12).terms == CATALAN_12

    def test_base_case(self):
        assert catalan_convolution(1).terms == (1,)

    def test_cross_method(self):
        assert catalan_convolution(20).term(20) == catalan_closed(20)

    def test_domain(self):
        with pytest.raises(ValueError):
            catalan_convolution(0)


class TestCatalanClosed:
    def test_listed_values(self):
        assert catalan_closed(1) == 1
        assert catalan_closed(11) == 16796

    def test_cross_method(self):
        assert catalan_closed(100) == catalan_convolution(100).term(100)


class TestCatalanHolonomic:
    def test_base(self):
        assert catalan_holonomic(2).terms == (1, 1)

    def test_listed_values(self):
        assert catalan_holonomic(12).terms == CATALAN_12

    def test_cross_method(self):
        holonomic = catalan_holonomic(50)
        assert all(holonomic.term(n) == catalan_closed(n) for n in range(1, 51))


class TestFibonacci:
    def test_listed_values(self):
        assert fibonacci(8).terms == (1, 1, 2, 3, 5, 8, 13, 21)

    def test_single(self):
        assert fibonacci(1).terms == (1,)

    def test_addition_chain(self):
        # oracle: the addition chain itself, written out locally
        a, b = 1, 1  # F_1, F_2
        for _ in range(28):
            a, b = b, a + b  # ends with b = F_30
        assert fibonacci(30).term(30) == b == 832040


class TestParity:
    def test_first_twelve(self):
        assert [n for n in range(1, 13) if catalan_is_odd(n)] == [1, 2, 4, 8]

    def test_one(self):
        assert catalan_is_odd(1)

    def test_power_of_two_against_exact_value(self):
        assert catalan_is_odd(64)
        assert catalan_closed(64) % 2 == 1

    def test_domain(self):
        with pytest.raises(ValueError):
            catalan_is_odd(0)

    def test_both_checkers_agree(self):
        for n in range(1, 4097):
            assert catalan_is_odd(n) == catalan_is_odd_by_reduction(n)

    def test_checkers_against_exact_values_small(self):
        for n in range(1, 257):
            assert catalan_is_odd(n) == (catalan_closed(n) % 2 == 1)

    def test_convolution_parity_step(self):
        # even n: C_n = C_{n/2} (mod 2); odd n > 1: C_n even
        parities = [None] + [catalan_closed(n) % 2 for n in range(1, 2049)]
        for n in range(2, 2049, 2):
            assert parities[n] == parities[n // 2]
        for n in range(3, 2048, 2):
            assert parities[n] == 0


def test_cross_method_agreement_all_four():
    closed = [catalan_closed(n) for n in range(1, 14)]
    convolution = catalan_convolution(13).terms
    holonomic = catalan_holonomic(13).terms
    assert tuple(closed) == convolution == holonomic
    for n in range(2, 14):
        assert catalan_ballot(n) == closed[n - 1]


def test_cross_method_agreement_exact_generators():
    count = 120
    convolution = catalan_convolution(count).terms
    holonomic = catalan_holonomic(count).terms
    closed = tuple(catalan_closed(n) for n in range(1, count + 1))
    assert convolution == holonomic == closed


class TestSequence:
    def test_one_based_indexing(self):
        seq = Sequence("s", (10, 20, 30))
        assert seq.term(1) == 10 and seq[3] == 30
        with pytest.raises(IndexError):
            seq.term(0)
        with pytest.raises(IndexError):
            seq.term(4)

    def test_window(self):
        seq = Sequence("s", (1, 2, 3, 4, 5))
        assert seq.window(2, 3) == (2, 3, 4)
        with pytest.raises(IndexError):
            seq.window(4, 3)

    def test_immutable(self):
        seq = Sequence("s", [1, 2])
        assert isinstance(seq.terms, tuple)
        with pytest.raises(AttributeError):
            seq.terms = (3,)


class TestQuadraticFieldElement:
    def test_radicand_validation(self):
        for bad in (0, 1, 4, 12, -4):
            with pytest.raises(ValueError):
                QuadraticFieldElement(1, 1, bad)
        QuadraticFieldElement(1, 1, -2)  # negative squarefree is fine

    def test_arithmetic(self):
        a = QuadraticFieldElement(Fraction(1), Fraction(1), 2)  # 1 + sqrt(2)
        b = QuadraticFieldElement(Fraction(0), Fraction(1), 2)  # sqrt(2)
        assert a * b == QuadraticFieldElement(2, 1, 2)
        assert a + b == QuadraticFieldElement(1, 2, 2)
        assert a - a == 0
        assert (a * a) == QuadraticFieldElement(3, 2, 2)

    def test_division(self):
        a = QuadraticFieldElement(1, 1, 2)
        assert (a / a) == 1
        # 1 / (1 + sqrt(2)) = sqrt(2) - 1
        assert 1 / a == QuadraticFieldElement(-1, 1, 2)
        with pytest.raises(ZeroDivisionError):
            a / QuadraticFieldElement(0, 0, 2)

    def test_norm_and_conjugate(self):
        a = QuadraticFieldElement(Fraction(3), Fraction(2), 5)
        assert a.norm() == 9 - 5 * 4
        assert a * a.conjugate() == a.norm()

    def test_mixed_radicands_rejected(self):
        a = QuadraticFieldElement(1, 1, 2)
        b = QuadraticFieldElement(1, 1, 3)
        with pytest.raises(MixedRadicandError):
            a + b
        with pytest.raises(MixedRadicandError):
            a * b

    def test_rational_interop(self):
        a = QuadraticFieldElement(Fraction(3, 2), Fraction(0), 2)
        assert a == Fraction(3, 2)
        assert hash(a) == hash(Fraction(3, 2))
        assert a + Fraction(1, 2) == 2
        assert Fraction(2) * QuadraticFieldElement(0, 1, 2) == QuadraticFieldElement(0, 2, 2)

    def test_canonical_parts(self):
        a = QuadraticFieldElement(Fraction(6, 4), Fraction(-2, 8), 3)
        assert a.rational == Fraction(3, 2) and a.rational.denominator == 2
        assert a.surd == Fraction(-1, 4) and a.surd.denominator == 4
