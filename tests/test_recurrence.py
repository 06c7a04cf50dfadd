"""Recurrence verification, guessing, kernel vectors, and field descent."""

import math
import random
from fractions import Fraction

import pytest

from cfinite import linalg
from cfinite import recurrence as recurrence_module
from cfinite.errors import DimensionError, InsufficientDataError
from cfinite.recurrence import (
    descend_field,
    guess_recurrence,
    hankel_evidence,
    hankel_nonsingular_witness,
    IntegerRecurrenceVector,
    iterate_recurrence,
    kernel_nontrivial,
    LinearRecurrence,
    normalize_coprime,
    verify,
    VerificationResult,
)
from cfinite.seqcore import (
    catalan_convolution,
    fibonacci,
    QuadraticFieldElement,
    Sequence,
)

from test_linalg import reference_rref

FIB_REC = LinearRecurrence((1, 1))


def dot(u, v):
    acc = 0
    for a, b in zip(u, v):
        acc = acc + a * b
    return acc


class TestVerify:
    def test_fibonacci_passes(self):
        result = verify(fibonacci(30), FIB_REC, (1, 28))
        assert result.passed and bool(result)

    def test_empty_recurrence(self):
        zero = LinearRecurrence(())
        assert verify(Sequence("z", (0, 0, 0)), zero).passed
        failed = verify(Sequence("nz", (0, 1, 0)), zero)
        assert not failed.passed
        assert failed.failed_index == 2 and failed.residual == -1

    def test_catalan_times_four_fails(self):
        result = verify(catalan_convolution(12), LinearRecurrence((4,)), (1, 10))
        assert not result.passed
        assert result.failed_index == 1
        assert result.residual == 3  # 4*C_1 - C_2

    def test_range_errors(self):
        with pytest.raises(InsufficientDataError):
            verify(fibonacci(5), FIB_REC, (1, 4))
        with pytest.raises(InsufficientDataError):
            verify(Sequence("short", (1,)), FIB_REC)

    def test_empty_span_refused(self):
        # 4 * C_n != C_{n+1}, so a span with no window must not pass it
        with pytest.raises(InsufficientDataError, match=r"empty span: windows \[5, 3\]"):
            verify(catalan_convolution(10), LinearRecurrence((4,)), (5, 3))


def reference_verify(seq, rec, span=None):
    """The per-window loop verify ran before it summed windows in integers:
    each term times its coefficient, accumulated from 0, minus b_{n+k}."""
    k = rec.order
    lo, hi = (1, len(seq) - k) if span is None else span
    for n in range(lo, hi + 1):
        acc = 0
        for j, a in enumerate(rec.coefficients):
            acc = acc + a * seq.term(n + j)
        residual = acc - seq.term(n + k)
        if residual != 0:
            return VerificationResult(False, n, residual)
    return VerificationResult(True)


def typed(x):
    return type(x), x


def times_linear_factor(coefficients, theta):
    """Coefficients of the order-(k+1) recurrence with characteristic
    polynomial (x - theta) P(x), P that of `coefficients`: every sequence
    the order-k recurrence fits, this one fits too."""
    p = [-a for a in coefficients] + [1]
    q = [(p[j - 1] if j else 0) - theta * p[j] for j in range(len(p))]
    return tuple(-x for x in q)


class TestVerifyMatchesWindowLoop:
    def test_seeded_cases(self):
        rng = random.Random(19)
        seen = set()
        for trial in range(600):
            k = 0 if trial % 8 == 0 else rng.randint(1, 6)
            terms_kind = ("int", "fraction", "mixed")[trial % 3]
            if terms_kind == "int":
                coeffs = tuple(rng.randint(-3, 3) for _ in range(k))
                initial = [rng.randint(-5, 5) for _ in range(k)]
            else:
                coeffs = tuple(Fraction(rng.randint(-5, 5), rng.randint(1, 4)) for _ in range(k))
                initial = [Fraction(rng.randint(-5, 5), rng.randint(1, 3)) for _ in range(k)]
            length = k + rng.randint(1, 14)
            if k:
                terms = iterate_recurrence(LinearRecurrence(coeffs), initial, length)
            else:
                terms = [Fraction(0)] * length
            if terms_kind == "int":
                terms = [int(t) for t in terms]
            elif terms_kind == "mixed":
                terms = [int(t) if t.denominator == 1 and rng.random() < 0.5 else t for t in terms]
            if trial % 5 == 1:
                radicand = rng.choice((2, 5))
                theta = QuadraticFieldElement(rng.randint(-3, 3), rng.choice((-1, 1)), radicand)
                coeffs = times_linear_factor(coeffs, theta)
            if rng.random() < 0.5:
                i = rng.randrange(length)
                terms[i] = terms[i] + rng.choice((1, Fraction(1, rng.randint(2, 5))))
            if rng.random() < 0.2:
                terms = [rng.randint(-9, 9) for _ in range(length)]
            rec = LinearRecurrence(coeffs)
            if len(terms) < rec.order + 1:
                continue
            seq = Sequence("case", terms)
            span = None
            if rng.random() < 0.4:
                lo = rng.randint(1, len(seq) - rec.order)
                span = (lo, rng.randint(lo, len(seq) - rec.order))
            result, expected = verify(seq, rec, span), reference_verify(seq, rec, span)
            assert (result.passed, result.failed_index) == (expected.passed, expected.failed_index)
            if not expected.passed:
                assert typed(result.residual) == typed(expected.residual)
                seen.add((rec.order == 0, rec.is_rational(), type(expected.residual)))
            else:
                assert result.residual is None
                seen.add((rec.order == 0, rec.is_rational(), "passed"))
        assert seen >= {
            (True, True, int), (True, True, Fraction), (True, True, "passed"),
            (False, True, Fraction), (False, True, "passed"),
            (False, False, QuadraticFieldElement), (False, False, "passed"),
        }

    def test_field_element_terms(self):
        phi = QuadraticFieldElement(Fraction(1, 2), Fraction(1, 2), 5)
        powers = [phi]
        while len(powers) < 10:
            powers.append(powers[-1] * phi)
        powers[6] = powers[6] + 1
        seq = Sequence("phi", powers)
        for rec in (LinearRecurrence(()), LinearRecurrence((1, 1)), LinearRecurrence((phi,))):
            for span in (None, (1, 3)):
                result, expected = verify(seq, rec, span), reference_verify(seq, rec, span)
                assert (result.passed, result.failed_index) == (expected.passed, expected.failed_index)
                assert typed(result.residual) == typed(expected.residual)


class TestKernelNontrivial:
    def test_reads_columns_up_to_the_first_free_one(self, columns_read):
        assert kernel_nontrivial([(1,) * 8]) == (-1, 1, 0, 0, 0, 0, 0, 0)
        assert columns_read == [2]

    def test_single_equation(self):
        vec = kernel_nontrivial([(1, 1)])
        assert vec != (0, 0)
        assert vec[0] == -vec[1]  # multiple of (1, -1)
        assert dot((1, 1), vec) == 0

    def test_no_constraints(self):
        assert kernel_nontrivial([], width=3) == (1, 0, 0)

    def test_two_by_three(self):
        matrix = [(1, 2, 3), (0, 1, 1)]
        vec = kernel_nontrivial(matrix)
        assert any(x != 0 for x in vec)
        assert all(dot(row, vec) == 0 for row in matrix)
        # a nonzero multiple of (-1, -1, 1)
        scale = vec[2]
        assert scale != 0 and tuple(x / scale for x in vec) == (-1, -1, 1)

    def test_dimension_error(self):
        with pytest.raises(DimensionError):
            kernel_nontrivial([(1, 0), (0, 1)])

    def test_random_wide_matrices(self):
        rng = random.Random(7)
        for _ in range(25):
            n = rng.randint(2, 6)
            m = rng.randint(0, n - 1)
            matrix = [
                tuple(Fraction(rng.randint(-5, 5), rng.randint(1, 3)) for _ in range(n))
                for _ in range(m)
            ]
            vec = kernel_nontrivial(matrix, width=n)
            assert any(x != 0 for x in vec)
            assert all(dot(row, vec) == 0 for row in matrix)


class TestGuessRecurrence:
    def test_fibonacci(self):
        rec = guess_recurrence(fibonacci(17), 5, window_count=12)
        assert rec.order == 2
        assert rec.coefficients == (1, 1)

    def test_zero_sequence(self):
        rec = guess_recurrence(Sequence("z", (0,) * 10), 3)
        assert rec is not None and rec.order == 0

    def test_geometric(self):
        seq = Sequence("pow2", tuple(2**n for n in range(1, 12)))
        rec = guess_recurrence(seq, 3, window_count=8)
        assert rec.order == 1 and rec.coefficients == (2,)

    def test_catalan_has_none(self):
        assert guess_recurrence(catalan_convolution(30), 8) is None

    def test_insufficient_data(self):
        with pytest.raises(InsufficientDataError):
            guess_recurrence(fibonacci(6), 5)

    def test_soundness_and_minimality(self):
        rng = random.Random(11)
        for _ in range(20):
            k = rng.randint(1, 3)
            rec = LinearRecurrence(tuple(rng.choice((-2, -1, 1, 2)) for _ in range(k)))
            initial = tuple(rng.randint(-4, 4) for _ in range(k))
            seq = Sequence("it", iterate_recurrence(rec, initial, 16))
            found = guess_recurrence(seq, 4)
            assert found is not None
            assert verify(seq, found).passed
            if found.order > 0:
                # minimality: some window of one lower order is nonsingular
                k1 = found.order - 1
                witnesses = [
                    hankel_nonsingular_witness(seq, k1, offset)
                    for offset in range(1, len(seq) - 2 * k1 + 1)
                ]
                assert any(w != 0 for w in witnesses)


def reference_guess(seq, max_order):
    """The per-order loop guess_recurrence ran before one column pass: a
    fresh row-wise elimination of each width-(k+1) window matrix."""
    window_count = min(2 * max_order + 4, len(seq) - max_order)
    for k in range(max_order + 1):
        rows = [seq.window(n, k + 1) for n in range(1, window_count + 1)]
        reduced, pivots = reference_rref(rows, k + 1)
        if k in pivots:
            continue
        coeffs = [Fraction(0)] * k
        for i, p in enumerate(pivots):
            coeffs[p] = reduced[i][k]
        candidate = LinearRecurrence(tuple(coeffs))
        if verify(seq, candidate).passed:
            return candidate
    return None


def typed_coefficients(rec):
    return None if rec is None else [(type(c), c) for c in rec.coefficients]


@pytest.fixture
def columns_read(monkeypatch):
    """Counts the columns each reduce_columns pass reads."""
    counts = []
    feed = linalg.reduce_columns

    def counting(columns, height):
        counts.append(0)

        def counted():
            for column in columns:
                counts[-1] += 1
                yield column

        return feed(counted(), height)

    monkeypatch.setattr(linalg, "reduce_columns", counting)
    return counts


class TestGuessOnePass:
    def test_matches_per_order_elimination(self, columns_read):
        rng = random.Random(41)
        found = corrupted = screened = 0
        for trial in range(300):
            k = rng.randint(0, 4)
            max_order = 0 if trial % 10 == 0 else rng.randint(1, 5)
            rec = LinearRecurrence(
                tuple(Fraction(rng.randint(-3, 3), rng.randint(1, 3)) for _ in range(k))
            )
            initial = [Fraction(rng.randint(-3, 3), rng.randint(1, 2)) for _ in range(k)]
            length = 2 * max_order + 1 + rng.randint(0, max_order + 4)
            terms = iterate_recurrence(rec, initial, length) if k else [0] * length
            if trial % 3 == 1:
                terms[rng.randrange(length)] += Fraction(1, rng.randint(1, 3))
                corrupted += 1
            seq = Sequence("random", terms)
            passes = len(columns_read)
            guessed = guess_recurrence(seq, max_order)
            assert typed_coefficients(guessed) == typed_coefficients(reference_guess(seq, max_order))
            if len(columns_read) > passes:
                assert columns_read[-1] == (max_order if guessed is None else guessed.order) + 1
            else:
                # the Hankel screen answered: no column read, and the
                # (m+1) x (m+1) window block on rows 1..m+1 is nonsingular
                block = [seq.window(n, max_order + 1) for n in range(1, max_order + 2)]
                assert guessed is None and linalg.determinant(block) != 0
                screened += 1
            found += guessed is not None
        assert len(columns_read) + screened == 300 and screened > 0
        assert 100 <= found <= 300 - 50 and corrupted == 100

    def test_integer_sequences_at_bench_orders(self, columns_read):
        # integer sequences of order 6..12 with 3m + 4 terms and max order
        # m = k + 4, the guess benchmark's shapes: the column pass replays
        # one-step Fraction updates on entries that grow with every step
        rng = random.Random(43)
        for k in range(6, 13):
            m = k + 4
            last = rng.choice((-1, 1)) * rng.randint(1, 9)
            rec = LinearRecurrence(tuple(rng.randint(-9, 9) for _ in range(k - 1)) + (last,))
            initial = [rng.randint(-9, 9) for _ in range(k)]
            seq = Sequence(f"order-{k}", iterate_recurrence(rec, initial, 3 * m + 4))
            guessed = guess_recurrence(seq, m)
            assert typed_coefficients(guessed) == typed_coefficients(reference_guess(seq, m))
            assert guessed.coefficients == rec.coefficients
            assert columns_read[-1] == k + 1

    def test_candidate_failing_verify_past_the_windows(self, columns_read):
        # windows 1..10 cover terms up to b_13; the order-2 candidate fits them
        # and fails at the corrupted last term, so the pass goes on to order 3
        terms = list(fibonacci(30).terms)
        terms[-1] += 1
        seq = Sequence("fib-corrupted", terms)
        assert verify(seq, FIB_REC, (1, 10)).passed and not verify(seq, FIB_REC).passed
        assert guess_recurrence(seq, 3) is None
        assert reference_guess(seq, 3) is None
        assert columns_read == [4]

    def test_quadratic_field_terms(self, columns_read):
        phi = QuadraticFieldElement(Fraction(1, 2), Fraction(1, 2), 5)
        powers = [phi]
        while len(powers) < 16:
            powers.append(powers[-1] * phi)
        seq = Sequence("phi", powers)
        guessed = guess_recurrence(seq, 4)
        assert guessed.coefficients == (phi,) and guessed.field == "Q(sqrt(5))"
        assert typed_coefficients(guessed) == typed_coefficients(reference_guess(seq, 4))
        assert columns_read == [2]


class TestGuessHankelScreen:
    @pytest.mark.parametrize("max_order", [8, 24, 64])
    def test_catalan_reads_no_column(self, columns_read, monkeypatch, max_order):
        def no_exact_pass(terms):
            raise AssertionError("the screen runs no Bareiss pass")

        monkeypatch.setattr(linalg, "hankel_minors", no_exact_pass)
        seq = catalan_convolution(3 * max_order + 4)
        assert guess_recurrence(seq, max_order) is None
        assert columns_read == []
        if max_order <= 8:
            assert reference_guess(seq, max_order) is None

    def test_zero_leading_minor_runs_the_column_pass(self, columns_read):
        # b_1 = 0 makes the first leading minor 0, so the screen cannot
        # decide, though the order-4 block is nonsingular and no recurrence
        # of order <= 4 fits the random terms
        rng = random.Random(5)
        seq = Sequence("random", [0] + [rng.randint(-9, 9) for _ in range(15)])
        assert linalg.determinant([seq.window(n, 5) for n in range(1, 6)]) != 0
        guessed = guess_recurrence(seq, 4)
        assert guessed is None and reference_guess(seq, 4) is None
        assert columns_read == [5]

    def test_minor_divisible_by_the_prime_runs_the_column_pass(self, columns_read):
        # H_8 of p C_1..C_17 is p^9: nonzero, but zero mod the screen's prime
        seq = Sequence("p-catalan", [linalg.PRIME * c for c in catalan_convolution(28).terms])
        assert linalg.hankel_minors(list(seq.terms[:17]))[-1] == linalg.PRIME ** 9
        assert guess_recurrence(seq, 8) is None
        assert columns_read == [9]

    def test_verify_reads_integer_terms(self, monkeypatch):
        read = []

        def recording(seq, rec, span=None):
            read.append({type(t) for t in seq.terms})
            return verify(seq, rec, span)

        monkeypatch.setattr(recurrence_module, "verify", recording)
        rec = LinearRecurrence((Fraction(1, 2), Fraction(-2, 3)))
        terms = iterate_recurrence(rec, (1, Fraction(1, 3)), 20)
        assert guess_recurrence(Sequence("fractions", terms), 4) == rec
        assert read and all(types == {int} for types in read)

    def test_fraction_terms(self, columns_read):
        rng = random.Random(23)
        found = screened = 0
        for trial in range(40):
            max_order = rng.randint(1, 4)
            length = 3 * max_order + 4
            if trial % 2:
                terms = [Fraction(rng.randint(-9, 9), rng.randint(2, 9)) for _ in range(length)]
            else:
                k = rng.randint(1, max_order)
                rec = LinearRecurrence(
                    tuple(Fraction(rng.randint(-5, 5), rng.randint(2, 9)) for _ in range(k))
                )
                initial = [Fraction(rng.randint(-9, 9), rng.randint(2, 9)) for _ in range(k)]
                terms = iterate_recurrence(rec, initial, length)
            seq = Sequence("fractions", terms)
            passes = len(columns_read)
            guessed = guess_recurrence(seq, max_order)
            assert typed_coefficients(guessed) == typed_coefficients(reference_guess(seq, max_order))
            found += guessed is not None
            screened += len(columns_read) == passes
            # the terms times the lcm of their denominators give the same guess
            scaled = Sequence("scaled", linalg.clear_denominators(terms)[0])
            assert typed_coefficients(guess_recurrence(scaled, max_order)) == typed_coefficients(guessed)
        assert found >= 15 and screened >= 15


class TestHankelWitness:
    def test_catalan_order0(self):
        assert hankel_nonsingular_witness(catalan_convolution(3), 0, 1) == 1

    def test_catalan_order1(self):
        # det ((1,1),(1,2)) = 1
        assert hankel_nonsingular_witness(catalan_convolution(4), 1, 1) == 1

    def test_fibonacci_singular(self):
        # det of (1,1,2;1,2,3;2,3,5) vanishes: consistent with order 2
        assert hankel_nonsingular_witness(fibonacci(6), 2, 1) == 0

    def test_cofactor_oracle(self):
        seq = catalan_convolution(10)

        def cofactor(matrix):
            if len(matrix) == 1:
                return matrix[0][0]
            total = 0
            for j in range(len(matrix)):
                minor = [row[:j] + row[j + 1 :] for row in matrix[1:]]
                total += (-1) ** j * matrix[0][j] * cofactor(minor)
            return total

        for k in range(4):
            for offset in (1, 2, 3):
                rows = [seq.window(offset + i, k + 1) for i in range(k + 1)]
                assert hankel_nonsingular_witness(seq, k, offset) == cofactor(rows)

    def test_insufficient_data(self):
        with pytest.raises(InsufficientDataError):
            hankel_nonsingular_witness(catalan_convolution(5), 3, 1)


def reference_hankel_evidence(seq, max_order):
    """One determinant per order and offset, as the guess command searched
    before the offset-1 minors were read off one pass."""
    evidence = []
    for k in range(max_order + 1):
        found = None
        for offset in range(1, len(seq) - 2 * k + 1):
            det = hankel_nonsingular_witness(seq, k, offset)
            if det != 0:
                found = (offset, det)
                break
        evidence.append((k, found))
    return evidence


class TestHankelEvidence:
    def test_matches_per_offset_search(self):
        rng = random.Random(43)
        past_zero_minor = 0
        for trial in range(60):
            length = rng.randint(1, 13)
            if trial % 2:
                terms = [rng.choice((0, 0, 1, -1, 2)) for _ in range(length)]
            else:
                terms = [Fraction(rng.randint(-3, 3), rng.randint(1, 4)) for _ in range(length)]
            seq = Sequence("random", terms)
            max_order = (length - 1) // 2
            evidence = hankel_evidence(seq, max_order)
            assert evidence == reference_hankel_evidence(seq, max_order)
            for _, found in evidence:
                assert found is None or type(found[1]) is Fraction
            past_zero_minor += any(f is None or f[0] > 1 for _, f in evidence)
        assert past_zero_minor >= 15

    def test_catalan_terms(self):
        seq = catalan_convolution(25)
        evidence = hankel_evidence(seq, 12)
        assert evidence == reference_hankel_evidence(seq, 12)
        assert evidence == [(k, (1, 1)) for k in range(13)]

    def test_refusals(self):
        with pytest.raises(ValueError, match="need max_order >= 0, got -1"):
            hankel_evidence(catalan_convolution(5), -1)
        with pytest.raises(InsufficientDataError, match="need 7 terms for orders up to 3, have 6"):
            hankel_evidence(catalan_convolution(6), 3)


class TestNormalizeCoprime:
    def test_already_integral(self):
        assert normalize_coprime(LinearRecurrence((4,))).entries == (4, -1)

    def test_clear_denominators(self):
        vec = normalize_coprime(LinearRecurrence((Fraction(1, 2), Fraction(3, 2))))
        assert vec.entries == (1, 3, -2)

    def test_reduce_then_clear(self):
        vec = normalize_coprime(LinearRecurrence((Fraction(6, 4),)))
        assert vec.entries == (3, -2)

    def test_rational_only(self):
        rec = LinearRecurrence((QuadraticFieldElement(1, 1, 2),))
        with pytest.raises(ValueError):
            normalize_coprime(rec)

    def test_vector_invariants(self):
        with pytest.raises(ValueError):
            IntegerRecurrenceVector((2, 4, -6))
        with pytest.raises(ValueError):
            IntegerRecurrenceVector((1, 0))

    def test_represents_same_relation(self):
        rng = random.Random(29)
        for _ in range(15):
            k = rng.randint(1, 5)
            coeffs = tuple(
                Fraction(rng.randint(-9, 9), rng.randint(1, 9)) for _ in range(k)
            )
            vec = normalize_coprime(LinearRecurrence(coeffs)).entries
            assert len(vec) == k + 1
            scale = -vec[-1]  # the positive factor applied to (a_0..a_{k-1}, -1)
            assert scale > 0
            assert all(vec[j] == scale * coeffs[j] for j in range(k))
            assert math.gcd(*vec) == 1


def sqrt2(a, b):
    return QuadraticFieldElement(Fraction(a), Fraction(b), 2)


def sqrt5(a, b):
    return QuadraticFieldElement(Fraction(a), Fraction(b), 5)


class TestDescendField:
    def test_powers_of_two_from_quadratic(self):
        # characteristic roots 2 and sqrt(2): a = (-2*sqrt2, 2 + sqrt2)
        seq = Sequence("pow2", tuple(2**n for n in range(1, 13)))
        rec = LinearRecurrence((sqrt2(0, -2), sqrt2(2, 1)))
        assert verify(seq, rec).passed
        descended = descend_field(seq, rec, 6)
        assert descended.order == 1
        assert descended.coefficients == (2,)

    def test_fibonacci_from_cubic_over_sqrt5(self):
        # characteristic (x^2 - x - 1)(x - sqrt5)
        seq = fibonacci(20)
        rec = LinearRecurrence((sqrt5(0, -1), sqrt5(1, -1), sqrt5(1, 1)))
        assert verify(seq, rec).passed
        descended = descend_field(seq, rec, 8)
        assert descended.order == 2
        assert descended.coefficients == (1, 1)

    def test_rational_input_stays_rational(self):
        # characteristic (x^2 - x - 1)(x - 2), already over Q
        seq = fibonacci(20)
        rec = LinearRecurrence((-2, -1, 3))
        assert verify(seq, rec).passed
        descended = descend_field(seq, rec, 8)
        assert descended.order <= 3
        assert verify(seq, descended).passed
        assert descended.coefficients == (1, 1)

    def test_rejects_non_verifying_input(self):
        seq = fibonacci(20)
        rec = LinearRecurrence((sqrt5(0, 1),))
        with pytest.raises(ValueError):
            descend_field(seq, rec, 6)

    def test_windows_fit_but_later_terms_do_not(self):
        # 2 + 0*sqrt(2) holds on windows 1..3 only; no rational order <= 1 fits all
        seq = Sequence("bent", (2, 4, 8, 16, 33, 70))
        rec = LinearRecurrence((sqrt2(2, 0),))
        with pytest.raises(ValueError, match="no rational recurrence of order <= 1"):
            descend_field(seq, rec, 3)

    def test_is_the_least_order_guess(self):
        seq = fibonacci(20)
        rec = LinearRecurrence((sqrt5(0, -1), sqrt5(1, -1), sqrt5(1, 1)))
        assert descend_field(seq, rec, 8) == guess_recurrence(seq, 3, 8)

    def test_window_count_precondition(self):
        seq = fibonacci(20)
        rec = LinearRecurrence((sqrt5(0, -1), sqrt5(1, -1), sqrt5(1, 1)))
        with pytest.raises(ValueError):
            descend_field(seq, rec, 4)

    def test_insufficient_data(self):
        rec = LinearRecurrence((sqrt5(0, -1), sqrt5(1, -1), sqrt5(1, 1)))
        with pytest.raises(InsufficientDataError):
            descend_field(fibonacci(6), rec, 5)


class TestLinearRecurrence:
    def test_field_tags(self):
        assert LinearRecurrence((1, 2)).field == "Q"
        assert LinearRecurrence((sqrt2(1, 1),)).field == "Q(sqrt(2))"

    def test_mixed_radicands_rejected(self):
        from cfinite.errors import MixedRadicandError

        with pytest.raises(MixedRadicandError):
            LinearRecurrence((sqrt2(1, 1), sqrt5(1, 1)))

    def test_iterate(self):
        assert iterate_recurrence(FIB_REC, (1, 1), 8) == [1, 1, 2, 3, 5, 8, 13, 21]
        assert iterate_recurrence(LinearRecurrence(()), (), 3) == [0, 0, 0]

    def test_iterate_reads_initial_terms_once(self):
        assert iterate_recurrence(FIB_REC, (x for x in (1, 1)), 6) == [1, 1, 2, 3, 5, 8]
        with pytest.raises(ValueError, match="need 2 initial terms"):
            iterate_recurrence(FIB_REC, (x for x in (1,)), 6)
