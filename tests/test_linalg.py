"""Exact linear algebra: column-fed Gauss-Jordan, Bareiss determinants and
minors, the mod-p Hankel screen, denominators."""

import random
from fractions import Fraction

import pytest

from cfinite.errors import CFiniteError, DimensionError, MixedRadicandError
from cfinite.linalg import (
    clear_denominators,
    determinant,
    hankel_minors,
    hankel_screen,
    kernel_basis,
    kernel_vectors,
    PRIME,
    rational_reconstruction,
    reduce_columns,
    solve,
)
from cfinite.seqcore import catalan_closed, QuadraticFieldElement


def cofactor_determinant(matrix):
    """Laplace expansion along the first row: the reference for small n."""
    if not matrix:
        return 1
    return sum(
        (-1) ** j * a * cofactor_determinant([row[:j] + row[j + 1 :] for row in matrix[1:]])
        for j, a in enumerate(matrix[0])
    )


def reference_rref(rows, width):
    """Row-by-row Gauss-Jordan elimination of the whole matrix: the
    reference for entries and their types."""
    mat = [[Fraction(x) if isinstance(x, int) else x for x in row] for row in rows]
    pivots = []
    r = 0
    for c in range(width):
        pivot_row = next((i for i in range(r, len(mat)) if mat[i][c] != 0), None)
        if pivot_row is None:
            continue
        mat[r], mat[pivot_row] = mat[pivot_row], mat[r]
        inv = mat[r][c]
        mat[r] = [x / inv for x in mat[r]]
        for i in range(len(mat)):
            if i != r and mat[i][c] != 0:
                f = mat[i][c]
                mat[i] = [a - f * b for a, b in zip(mat[i], mat[r])]
        pivots.append(c)
        r += 1
        if r == len(mat):
            break
    return mat, pivots


def typed(rows):
    return [[(type(x), x) for x in row] for row in rows]


def random_matrix(rng, kind, height, width, combine=False):
    """int, Fraction, Q(sqrt 5) or mixed entries; with `combine` and two or
    more rows the last row combines the first and the next-to-last."""

    def entry(kind):
        if kind == "int":
            return rng.randint(-3, 3)
        if kind == "fraction":
            return Fraction(rng.randint(-3, 3), rng.randint(1, 4))
        if kind == "sqrt5":
            return QuadraticFieldElement(rng.randint(-2, 2), rng.randint(-1, 1), 5)
        return entry(rng.choice(("int", "fraction", "sqrt5")))

    rows = [[entry(kind) for _ in range(width)] for _ in range(height)]
    if combine and height >= 2:
        rows[-1] = [a - 2 * b for a, b in zip(rows[0], rows[-2])]
    return rows


KINDS = ("int", "fraction", "sqrt5", "mixed")


def max_size(kind):
    """Rational matrices reach 10 x 10, where reduce_columns replays its
    one-step Fraction updates; field and mixed ones stay at 5 x 5."""
    return 10 if kind in ("int", "fraction") else 5


def reference_kernel_basis(rows, width):
    """One kernel vector per free column of reference_rref."""
    reduced, pivots = reference_rref(rows, width)
    basis = []
    for f in (c for c in range(width) if c not in pivots):
        vec = [Fraction(0)] * width
        vec[f] = Fraction(1)
        for i, p in enumerate(pivots):
            vec[p] = -reduced[i][f]
        basis.append(tuple(vec))
    return basis


def reference_solve(rows, rhs):
    """The last column of reference_rref of [rows | rhs], or None when it pivots."""
    width = len(rows[0]) if rows else 0
    reduced, pivots = reference_rref([list(row) + [b] for row, b in zip(rows, rhs)], width + 1)
    if width in pivots:
        return None
    x = [Fraction(0)] * width
    for i, p in enumerate(pivots):
        x[p] = reduced[i][width]
    return tuple(x)


def outcome(function, *args):
    try:
        return function(*args)
    except (ArithmeticError, CFiniteError) as exc:
        return type(exc)


class TestKernelReadOff:
    def test_matches_row_wise_elimination(self):
        # rational answers match in value and type; Q(sqrt 5) and mixed ones
        # in value, since row-wise elimination can turn a Fraction entry into
        # a field element that the column pass leaves alone
        rng = random.Random(31)
        deficient = inconsistent = 0
        for trial in range(160):
            kind = KINDS[trial % 4]
            if trial < 4:
                height = width = max_size(kind)
            else:
                height, width = rng.randint(0, max_size(kind)), rng.randint(0, max_size(kind))
            rows = random_matrix(rng, kind, height, width, trial % 3 == 0)
            rhs = [row[0] for row in random_matrix(rng, kind, height, 1)]
            basis, expected_basis = (outcome(f, rows, width) for f in (kernel_basis, reference_kernel_basis))
            x, expected_x = (outcome(f, rows, rhs) for f in (solve, reference_solve))
            if kind in ("int", "fraction"):
                assert typed(basis + [x or ()]) == typed(expected_basis + [expected_x or ()])
            assert basis == expected_basis and x == expected_x
            deficient += len(basis) > max(width - height, 0)
            inconsistent += x is None
        assert deficient >= 12 and 40 <= inconsistent <= 120

    def test_two_radicands_refused(self):
        root_two, root_five = QuadraticFieldElement(0, 1, 2), QuadraticFieldElement(0, 1, 5)
        for rows, rhs in (([[1, 0], [0, 1]], [root_two, root_five]), ([[root_two]], [root_five])):
            with pytest.raises(MixedRadicandError):
                solve(rows, rhs)
        with pytest.raises(MixedRadicandError):
            kernel_basis([[1, root_two, 0], [0, 0, root_five]], 3)

    def test_reads_no_column_past_the_caller(self):
        def columns():
            yield [1, 2]
            yield [2, 4]
            raise AssertionError("column 2 was read")

        vectors = kernel_vectors(columns(), 2)
        assert next(vectors) == (1, [Fraction(-2), Fraction(1)])
        with pytest.raises(AssertionError, match="column 2"):
            next(vectors)

    def test_empty_shapes_and_ragged_rows(self):
        assert kernel_basis([], 2) == [(1, 0), (0, 1)]
        assert kernel_basis([[], []], 0) == []
        assert solve([], []) == ()
        assert solve([[], []], [0, 0]) == ()
        assert solve([[], []], [0, 1]) is None
        with pytest.raises(DimensionError):
            kernel_basis([[1, 2], [3]], 2)
        with pytest.raises(DimensionError):
            solve([[1, 2], [3]], [1, 1])
        with pytest.raises(DimensionError):
            solve([[1, 2]], [1, 1])


class TestReduceColumns:
    def test_each_column_is_final_when_read(self):
        # the reduced form of a column prefix is the prefix of the reduced form
        rng = random.Random(37)
        for trial in range(40):
            kind = KINDS[trial % 4]
            if trial < 4:
                height = width = max_size(kind)
            else:
                height, width = rng.randint(1, max_size(kind)), rng.randint(1, max_size(kind))
            rows = random_matrix(rng, kind, height, width, trial % 3 == 0)
            columns = [[row[c] for row in rows] for c in range(width)]
            for c, (column, pivot_row) in enumerate(reduce_columns(columns, height)):
                expected, pivots = reference_rref([row[: c + 1] for row in rows], c + 1)
                assert typed([column]) == typed([[row[c] for row in expected]])
                assert pivot_row == (len(pivots) - 1 if c in pivots else None)

    def test_fraction_columns_then_a_field_column(self):
        # the one-step Fraction updates stop at the last column, whose
        # Q(sqrt 5) entry ends the rational pass.  Row 2 is rows 0 + 1 on
        # the Fraction columns, so the field column pivots
        rows = [
            [Fraction(1, 2), Fraction(1, 3), Fraction(2, 5), QuadraticFieldElement(1, 1, 5)],
            [Fraction(1, 3), Fraction(1, 4), Fraction(1, 7), Fraction(1)],
            [Fraction(5, 6), Fraction(7, 12), Fraction(19, 35), Fraction(-1, 2)],
        ]
        columns = [[row[c] for row in rows] for c in range(4)]
        pivot_rows = []
        for c, (column, pivot_row) in enumerate(reduce_columns(columns, 3)):
            prefix, _ = reference_rref([row[: c + 1] for row in rows], c + 1)
            assert typed([column]) == typed([[row[c] for row in prefix]])
            pivot_rows.append(pivot_row)
        assert pivot_rows == [0, 1, None, 2]

    def test_wrong_column_length(self):
        with pytest.raises(DimensionError):
            list(reduce_columns([[1, 2], [3]], 2))


def hankel_block(terms, k):
    """The order-k window matrix (terms[i+j]), i, j = 0..k."""
    return [terms[i : i + k + 1] for i in range(k + 1)]


class TestLeadingPrincipalMinors:
    """hankel_minors: the leading principal minors of the Hankel matrix."""

    def test_match_determinants_of_leading_blocks(self):
        rng = random.Random(11)
        for _ in range(40):
            terms = [rng.randint(-9, 9) for _ in range(2 * rng.randint(0, 7) + 1)]
            minors = hankel_minors(terms)
            assert 0 not in minors[:-1]
            assert len(minors) == len(terms) // 2 + 1 or minors[-1] == 0
            for k, minor in enumerate(minors):
                assert minor == determinant(hankel_block(terms, k))

    def test_stops_at_zero_leading_minor(self):
        # nonsingular, but the leading 2x2 block is singular
        terms = [1, 1, 1, 2, 0]
        assert determinant(hankel_block(terms, 2)) == -1
        assert hankel_minors(terms) == [1, 0]
        assert hankel_minors([0, 1, 0]) == [0]

    def test_hilbert_like_integer_matrix(self):
        # the Hankel matrix of 1..7 is (i + j + 1)
        assert hankel_minors(list(range(1, 8))) == [1, -1, 0]

    def test_hankel_minors(self):
        # one pass gives every order: the minors of a prefix of 2k + 1 terms
        # are a prefix of the minors of all the terms
        rng = random.Random(5)
        for _ in range(20):
            terms = [rng.randint(-9, 9) for _ in range(11)]
            minors = hankel_minors(terms)
            for k in range(len(minors)):
                assert hankel_minors(terms[: 2 * k + 1]) == minors[: k + 1]

    def test_shapes_and_types(self):
        for even in ([], [1, 2], [1, 2, 3, 4]):
            with pytest.raises(DimensionError):
                hankel_minors(even)
        with pytest.raises(TypeError):
            hankel_minors([1.5])
        with pytest.raises(TypeError):
            hankel_minors([1, Fraction(1, 2), 3])


class TestHankelScreen:
    """hankel_screen: True proves hankel_minors(terms)[-1] != 0."""

    def test_never_answers_when_the_exact_minors_end_in_zero(self):
        rng = random.Random(24)
        answered = undecided = 0
        for trial in range(600):
            m = rng.randint(0, 12)
            if trial % 3 == 0:
                terms = [rng.randint(-3, 3) for _ in range(2 * m + 1)]
            elif trial % 3 == 1:
                # C-finite of order r: every minor past order r - 1 is zero
                r = rng.randint(1, 4)
                terms = [rng.randint(-3, 3) for _ in range(r)]
                coefficients = [rng.randint(-2, 2) for _ in range(r)]
                while len(terms) < 2 * m + 1:
                    terms.append(sum(a * b for a, b in zip(coefficients, terms[-r:])))
                terms = terms[: 2 * m + 1]
            else:
                start = rng.randint(1, 6)
                terms = [catalan_closed(n) for n in range(start, start + 2 * m + 1)]
            minors = hankel_minors(terms)
            screened = hankel_screen(terms)
            if screened:
                assert minors[-1] != 0
            if trial % 3 == 2:
                # Catalan Hankel matrices are positive definite
                assert screened and 0 not in minors
            answered += screened
            undecided += minors[-1] == 0
        assert answered >= 250 and undecided >= 150

    def test_minor_divisible_by_the_prime_is_undecided(self):
        # H_k of p C_1..C_{2k+1} is p^(k+1), nonzero, but zero mod p
        terms = [PRIME * catalan_closed(n) for n in range(1, 12)]
        assert hankel_minors(terms) == [PRIME ** (k + 1) for k in range(6)]
        assert not hankel_screen(terms)

    def test_zero_leading_minor_is_undecided(self):
        # nonsingular, but the leading 2x2 block is singular (see
        # TestLeadingPrincipalMinors)
        assert not hankel_screen([1, 1, 1, 2, 0])
        assert not hankel_screen([0, 1, 0])

    def test_shapes_and_types(self):
        for even in ([], [1, 2], [1, 2, 3, 4]):
            with pytest.raises(DimensionError):
                hankel_screen(even)
        with pytest.raises(TypeError):
            hankel_screen([1, Fraction(1, 2), 3])


class TestDeterminant:
    def test_random_rational_matrices_match_cofactor_expansion(self):
        rng = random.Random(23)
        singular = 0
        for trial in range(150):
            n = rng.randint(1, 5)
            matrix = [
                [
                    Fraction(rng.randint(-7, 7), rng.randint(1, 5)) if rng.random() < 0.6
                    else rng.randint(-7, 7)
                    for _ in range(n)
                ]
                for _ in range(n)
            ]
            if n >= 2 and trial % 3 == 0:
                # a row combination of two others makes the matrix singular
                matrix[-1] = [2 * a - Fraction(1, 3) * b for a, b in zip(matrix[0], matrix[1])]
            det = determinant(matrix)
            assert isinstance(det, Fraction)
            assert det == cofactor_determinant(matrix)
            singular += det == 0
        assert singular >= 25

    def test_mixed_int_and_fraction_rows(self):
        matrix = [[1, 2, 3], [Fraction(1, 2), Fraction(1, 3), 0], [0, Fraction(5, 7), 4]]
        assert determinant(matrix) == cofactor_determinant(matrix) == Fraction(-67, 42)
        assert determinant([[Fraction(1, 2), 1], [1, 2]]) == 0

    def test_empty_and_shape(self):
        assert determinant([]) == Fraction(1)
        with pytest.raises(DimensionError):
            determinant([[1, 2], [3]])

    def test_quadratic_field_entry_is_refused(self):
        root_two = QuadraticFieldElement(0, 1, 2)
        with pytest.raises(TypeError):
            determinant([[1, root_two], [root_two, 1]])


class TestClearDenominators:
    def test_examples(self):
        assert clear_denominators([]) == ([], 1)
        assert clear_denominators([3, -4]) == ([3, -4], 1)
        assert clear_denominators([Fraction(1, 2), Fraction(-2, 3), 5]) == ([3, -4, 30], 6)
        assert clear_denominators((Fraction(3, 4), Fraction(1, 4))) == ([3, 1], 4)

    def test_refuses_floats(self):
        with pytest.raises(TypeError):
            clear_denominators([1, 0.5])


class TestRationalReconstruction:
    def test_recovers_every_fraction_within_the_bounds(self):
        # m = 7^k > 2 N D: every r / q with |r| <= N and 0 < q <= D, 7 not
        # dividing q, comes back from its residue r q^-1 mod m
        rng = random.Random(31)
        for _ in range(300):
            num_bound, den_bound = rng.randint(1, 10**12), rng.randint(1, 10**12)
            m = 7
            while m <= 2 * num_bound * den_bound:
                m *= 7
            q = rng.randint(1, den_bound)
            if q % 7 == 0:
                continue
            root = Fraction(rng.randint(-num_bound, num_bound), q)
            a = root.numerator * pow(root.denominator, -1, m) % m
            assert rational_reconstruction(a, m, num_bound, den_bound) == root

    def test_none_when_no_fraction_fits(self):
        # 1/3 mod 101 is 34; with denominators up to 2 and numerators up to
        # 3 no fraction stands for it (2 N D = 12 < 101)
        assert rational_reconstruction(34, 101, 3, 3) == Fraction(1, 3)
        assert rational_reconstruction(34, 101, 3, 2) is None
