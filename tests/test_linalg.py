"""Exact linear algebra: the one-pass leading principal minors."""

import random

import pytest

from cfinite.errors import DimensionError
from cfinite.linalg import determinant, leading_principal_minors


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
