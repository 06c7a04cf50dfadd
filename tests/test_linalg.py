"""Exact linear algebra: Bareiss determinants and minors, denominators."""

import random
from fractions import Fraction

import pytest

from cfinite.errors import DimensionError
from cfinite.linalg import clear_denominators, determinant, leading_principal_minors
from cfinite.seqcore import QuadraticFieldElement


def cofactor_determinant(matrix):
    """Laplace expansion along the first row: the reference for small n."""
    if not matrix:
        return 1
    return sum(
        (-1) ** j * a * cofactor_determinant([row[:j] + row[j + 1 :] for row in matrix[1:]])
        for j, a in enumerate(matrix[0])
    )


class TestLeadingPrincipalMinors:
    def test_match_determinants_of_leading_blocks(self):
        rng = random.Random(11)
        for _ in range(40):
            n = rng.randint(1, 8)
            matrix = [[rng.randint(-9, 9) for _ in range(n)] for _ in range(n)]
            minors = leading_principal_minors(matrix)
            assert 0 not in minors[:-1]
            assert len(minors) == n or minors[-1] == 0
            for i, minor in enumerate(minors):
                assert minor == determinant([row[: i + 1] for row in matrix[: i + 1]])

    def test_stops_at_zero_leading_minor(self):
        # nonsingular, but the leading 2x2 block is singular
        matrix = [[1, 2, 3], [2, 4, 5], [3, 5, 7]]
        assert determinant(matrix) != 0
        assert leading_principal_minors(matrix) == [1, 0]
        assert leading_principal_minors([[0, 1], [1, 0]]) == [0]

    def test_hilbert_like_integer_matrix(self):
        matrix = [[i + j + 1 for j in range(4)] for i in range(4)]
        assert leading_principal_minors(matrix) == [1, -1, 0]

    def test_shapes_and_types(self):
        assert leading_principal_minors([]) == []
        with pytest.raises(DimensionError):
            leading_principal_minors([[1, 2]])
        with pytest.raises(TypeError):
            leading_principal_minors([[1.5]])


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
