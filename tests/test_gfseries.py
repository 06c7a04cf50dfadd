"""Truncated series, generating functions, reconstruction, degree parity."""

import random
from fractions import Fraction

import pytest

import cfinite.recurrence as recurrence_module
from cfinite.errors import InsufficientDataError
from cfinite.gfseries import (
    catalan_gf,
    convolve,
    degree_parity_check,
    expand_rational,
    pade_reconstruct,
    poly_gcd,
    rational_gf,
    RationalFunction,
    sqrt_one_minus_4x,
    TruncatedSeries,
)
from cfinite.powersum import Polynomial
from cfinite.recurrence import guess_recurrence, iterate_recurrence, LinearRecurrence
from cfinite.seqcore import catalan_convolution, fibonacci, QuadraticFieldElement, Sequence

from test_recurrence import columns_read  # noqa: F401 (a fixture)

FIB_REC = LinearRecurrence((1, 1))


def series(values, order=None):
    return TruncatedSeries([Fraction(v) for v in values], order)


class TestTruncatedSeries:
    def test_product(self):
        a = series((1, 1), 5)  # 1 + x
        b = series((1, -1), 5)  # 1 - x
        assert (a * b).coefficients == series((1, 0, -1), 5).coefficients

    def test_unequal_truncations_match_polynomial_product(self):
        rng = random.Random(31)
        for _ in range(30):
            a = [Fraction(rng.randint(-4, 4), rng.randint(1, 3)) for _ in range(rng.randint(1, 8))]
            b = [rng.randint(-4, 4) for _ in range(rng.randint(1, 8))]
            n = min(len(a), len(b)) - 1
            expected = Polynomial(a) * Polynomial(b)
            product = series(a) * series(b)
            assert product.truncation == n
            assert product.coefficients == tuple(expected.coefficient(i) for i in range(n + 1))
            assert (series(b) * series(a)).coefficients == product.coefficients

    def test_int_coefficients_stay_int(self):
        ints = TruncatedSeries((1, -2, 3), 4)
        fractions = series((1, -2, 3), 4)
        assert all(type(c) is int for c in (ints * ints - 1).coefficients)
        assert ints == fractions and hash(ints) == hash(fractions)
        assert repr(ints) == repr(fractions)

    def test_zero_plus_any(self):
        a = series((3, 1, 4, 1, 5))
        zero = series((0,), 4)
        assert (zero + a).coefficients == a.coefficients

    def test_min_truncation_tracked(self):
        a = series((1, 2, 3))
        b = series((1, 1, 1, 1, 1, 1))
        assert (a + b).truncation == 2
        assert (a * b).truncation == 2

    def test_no_claims_beyond_truncation(self):
        a = series((1, 2, 3))
        with pytest.raises(IndexError):
            a.coefficient(3)

    def test_truncate(self):
        a = series((1, 2, 3, 4))
        assert a.truncate(1).coefficients == (1, 2)
        with pytest.raises(ValueError):
            a.truncate(9)

    def test_convolution_identity(self):
        # C(x)*C(x) agrees with C(x) - x from index 2 on
        n = 40
        c = catalan_gf(n)
        square = c * c
        shifted = c - series((0, 1), n)
        for i in range(2, n + 1):
            assert square.coefficient(i) == shifted.coefficient(i)
        catalan = catalan_convolution(n)
        for i in range(2, n + 1):
            assert square.coefficient(i) == catalan.term(i)


class TestSqrtSeries:
    def test_hand_expanded_prefix(self):
        # oracle: binom(1/2, n) * (-4)**n computed term by term here
        def coefficient(n):
            binom = Fraction(1)
            for i in range(n):
                binom *= (Fraction(1, 2) - i) / (i + 1)
            return binom * (-4) ** n

        got = sqrt_one_minus_4x(4).coefficients
        assert got == tuple(coefficient(n) for n in range(5))
        assert got == (1, -2, -2, -4, -10)

    def test_constant_term(self):
        assert sqrt_one_minus_4x(0).coefficient(0) == 1

    def test_square_is_1_minus_4x(self):
        s = sqrt_one_minus_4x(10)
        sq = s * s
        assert sq.coefficients == series((1, -4), 10).coefficients

    def test_integrality(self):
        # oracle: the same binomial product in Fractions, term by term
        binom, expected = Fraction(1), []
        for n in range(501):
            expected.append(binom * (-4) ** n)
            binom *= (Fraction(1, 2) - n) / (n + 1)
        got = sqrt_one_minus_4x(500).coefficients
        assert got == tuple(expected)
        assert all(type(c) is int for c in got)


class TestCatalanGf:
    def test_matches_generators(self):
        gf = catalan_gf(500)
        assert gf.coefficient(0) == 0
        assert gf.coefficients[1:] == tuple(catalan_convolution(500).terms)
        assert all(type(c) is int for c in gf.coefficients)

    def test_quadratic_relation(self):
        n = 50
        c = catalan_gf(n)
        lhs = (c * 2 - 1) * (c * 2 - 1) + series((0, 4), n) - 1
        assert all(x == 0 for x in lhs.coefficients)


class TestRationalGf:
    def test_fibonacci(self):
        rf = rational_gf(FIB_REC, (1, 1))
        assert rf.numerator == Polynomial((0, 1))
        assert rf.denominator == Polynomial((1, -1, -1))
        assert str(rf) == "x/(1 - x - x^2)"

    def test_empty(self):
        rf = rational_gf(LinearRecurrence(()), ())
        assert rf.numerator.is_zero
        assert str(rf) == "0"

    def test_geometric(self):
        rf = rational_gf(LinearRecurrence((2,)), (2,))
        assert rf.numerator == Polynomial((0, 2))
        assert rf.denominator == Polynomial((1, -2))

    @staticmethod
    def fraction_pair(rec, initial) -> RationalFunction:
        """The pair as it was built in Fractions: q from the coefficients and
        p = q * B truncated at degree k, reduced by RationalFunction."""
        q = (Fraction(1),) + tuple(-c for c in reversed(rec.coefficients))
        b_prefix = (Fraction(0),) + tuple(Fraction(t) for t in initial)
        return RationalFunction(Polynomial(convolve(q, b_prefix, rec.order + 1)), Polynomial(q))

    def test_integer_pair_matches_the_fraction_convolution(self):
        rng = random.Random(29)
        cases = [
            (LinearRecurrence(()), ()),
            (LinearRecurrence((Fraction(-3, 7),)), (Fraction(-5, 10**30 + 1),)),
            (LinearRecurrence((Fraction(1, 10**40 + 3),)), (Fraction(10**40 + 9, -7),)),
        ]
        for _ in range(40):
            k = rng.randint(0, 10)
            coefficients = tuple(
                Fraction(rng.randint(-9, 9), rng.choice((1, 2, 3, 10**25 + 7))) for _ in range(k)
            )
            initial = tuple(
                Fraction(rng.randint(-(10**6), 10**6), rng.choice((1, 7, 10**40 + 3, 10**40 + 9)))
                for _ in range(k)
            )
            cases.append((LinearRecurrence(coefficients), initial))
        # the constant 2: p = 2x(1 - x) and q = (1 - x)**2 share a root, so p/q reduces
        reduced = (LinearRecurrence((Fraction(-1), Fraction(2))), (Fraction(2), Fraction(2)))
        assert rational_gf(*reduced).denominator == Polynomial((1, -1))
        cases.append(reduced)
        for rec, initial in cases:
            rf = rational_gf(rec, initial)
            assert rf == self.fraction_pair(rec, initial)
            coefficients = rf.numerator.coeffs + rf.denominator.coeffs
            assert all(type(c) is Fraction for c in coefficients)

    def test_value_errors_keep_their_messages(self):
        with pytest.raises(ValueError, match=r"^need 2 initial terms, got 1$"):
            rational_gf(FIB_REC, (1,))
        surd = LinearRecurrence((QuadraticFieldElement(0, 1, 5),))
        message = r"^rational generating functions need rational coefficients$"
        with pytest.raises(ValueError, match=message):
            rational_gf(surd, (1,))

    def test_self_check_mismatch_keeps_its_message(self, monkeypatch):
        iterate = recurrence_module.iterate_recurrence

        def off_at_five(rec, initial, count):
            terms = list(iterate(rec, initial, count))
            terms[4] += 1
            return terms

        monkeypatch.setattr(recurrence_module, "iterate_recurrence", off_at_five)
        with pytest.raises(ArithmeticError, match=r"^re-expansion mismatch at 5$"):
            rational_gf(FIB_REC, (1, 1))


class TestExpandRational:
    def test_geometric_series(self):
        rf = RationalFunction(Polynomial((1,)), Polynomial((1, -1)))
        assert expand_rational(rf, 5).coefficients == series((1,) * 6).coefficients

    def test_fibonacci(self):
        rf = RationalFunction(Polynomial((0, 1)), Polynomial((1, -1, -1)))
        assert expand_rational(rf, 8).coefficients == series((0, 1, 1, 2, 3, 5, 8, 13, 21)).coefficients

    def test_doubling(self):
        rf = RationalFunction(Polynomial((0, 2)), Polynomial((1, -2)))
        assert expand_rational(rf, 4).coefficients == series((0, 2, 4, 8, 16)).coefficients

    def test_rejects_zero_at_origin(self):
        with pytest.raises(ValueError):
            RationalFunction(Polynomial((1,)), Polynomial((0, 1)))

    def test_gcd_with_the_longer_operand_second(self):
        # the pseudo-remainder loop swaps its operands before the first division
        assert poly_gcd(Polynomial((-1, 1)), Polynomial((1, 0, -1))) == Polynomial((-1, 1))

    def test_reduces_a_numerator_shorter_than_its_denominator(self):
        # (x - 1) / (1 - x^2) = -1 / (1 + x)
        rf = RationalFunction(Polynomial((-1, 1)), Polynomial((1, 0, -1)))
        assert (rf.numerator, rf.denominator) == (Polynomial((-1,)), Polynomial((1, 1)))

    def test_round_trip_random_recurrences(self):
        rng = random.Random(31)
        for _ in range(15):
            k = rng.randint(0, 4)
            rec = LinearRecurrence(
                tuple(Fraction(rng.randint(-3, 3), rng.randint(1, 2)) for _ in range(k))
            )
            initial = tuple(rng.randint(-4, 4) for _ in range(k))
            depth = 3 * k + 10
            rf = rational_gf(rec, initial)
            expansion = expand_rational(rf, depth)
            expected = iterate_recurrence(rec, initial, depth)
            assert expansion.coefficient(0) == 0
            for n in range(1, depth + 1):
                assert expansion.coefficient(n) == expected[n - 1]


class TestPadeReconstruct:
    def test_fibonacci(self):
        rf = pade_reconstruct(fibonacci(20), 1, 2)
        assert rf is not None
        assert rf == rational_gf(FIB_REC, (1, 1))

    def test_constant_ones(self):
        rf = pade_reconstruct(Sequence("ones", (1,) * 6), 1, 1)
        assert rf.numerator == Polynomial((0, 1))
        assert rf.denominator == Polynomial((1, -1))

    def test_catalan_is_not_rational_at_small_degrees(self):
        catalan = catalan_convolution(30)
        for dp in range(9):
            for dq in range(9):
                assert pade_reconstruct(catalan, dp, dq) is None

    def test_insufficient_data(self):
        with pytest.raises(InsufficientDataError):
            pade_reconstruct(fibonacci(5), 2, 2)

    def test_reads_columns_up_to_the_denominator(self, columns_read):
        # q = 1 - x - x**2 is the free column 2 of den_degree + 1 = 6 columns
        assert pade_reconstruct(fibonacci(20), 1, 5) == rational_gf(FIB_REC, (1, 1))
        assert columns_read == [3]

    def test_agreement_with_guesser(self):
        rng = random.Random(41)
        for _ in range(8):
            k_true = rng.randint(1, 3)
            rec = LinearRecurrence(tuple(rng.choice((-2, -1, 1, 2)) for _ in range(k_true)))
            initial = tuple(rng.randint(1, 4) for _ in range(k_true))
            seq = Sequence("it", iterate_recurrence(rec, initial, 20))
            for k in range(6):
                pade_hit = pade_reconstruct(seq, k, k) is not None
                guess_hit = (
                    guess_recurrence(seq, k, window_count=len(seq) - k) is not None
                    if len(seq) - k >= k + 1
                    else False
                )
                assert pade_hit == guess_hit


class TestDegreeParity:
    def test_example(self):
        verdict = degree_parity_check(Polynomial((1, -2)), Polynomial((1,)))
        assert verdict.lhs_degree == 1 and verdict.rhs_degree == 2
        assert verdict.first_difference == (2, 0, 4)
        assert verdict.impossible

    def test_smallest(self):
        verdict = degree_parity_check(Polynomial((1,)), Polynomial((1,)))
        assert verdict.lhs_degree == 1 and verdict.rhs_degree == 0
        assert verdict.impossible

    def test_preconditions(self):
        with pytest.raises(ValueError):
            degree_parity_check(Polynomial(), Polynomial((1,)))
        with pytest.raises(ValueError):
            degree_parity_check(Polynomial((1,)), Polynomial((0, 1)))

    def test_random_property(self):
        rng = random.Random(53)
        for _ in range(40):
            a = Polynomial(
                tuple(Fraction(rng.randint(-5, 5)) for _ in range(rng.randint(0, 6)))
                + (Fraction(rng.choice((-3, -2, -1, 1, 2, 3))),)
            )
            b_body = tuple(Fraction(rng.randint(-5, 5)) for _ in range(rng.randint(0, 6)))
            b = Polynomial((Fraction(rng.choice((-2, -1, 1, 2))),) + b_body)
            verdict = degree_parity_check(a, b)
            assert verdict.impossible
            assert verdict.lhs_degree == 2 * b.degree + 1
            assert verdict.rhs_degree == 2 * a.degree
            idx, lhs_c, rhs_c = verdict.first_difference
            assert lhs_c != rhs_c
            lhs = b * b * Polynomial((1, -4))
            rhs = a * a
            assert (lhs.coefficient(idx), rhs.coefficient(idx)) == (lhs_c, rhs_c)
