"""Exact linear algebra: the Bareiss determinant against a Leibniz sum."""

from fractions import Fraction
from itertools import permutations

from hypothesis import example, given, settings
from hypothesis import strategies as st

from hgpade.linalg import det_bareiss

F = Fraction


def _leibniz_det(matrix):
    """sum over permutations of sign * prod of entries, on Fractions."""
    n = len(matrix)
    total = F(0)
    for perm in permutations(range(n)):
        inversions = sum(perm[i] > perm[j] for i in range(n) for j in range(i + 1, n))
        term = F(-1) ** inversions
        for row, col in enumerate(perm):
            term *= matrix[row][col]
        total += term
    return total


@st.composite
def _square_matrices(draw, entries):
    n = draw(st.integers(0, 5))
    return [draw(st.lists(entries, min_size=n, max_size=n)) for _ in range(n)]


_ints = st.integers(-10**12, 10**12) | st.integers(-3, 3)
_fractions = st.fractions(min_value=-40, max_value=40, max_denominator=30)


@settings(deadline=None, derandomize=True, max_examples=100)
@given(_square_matrices(_ints))
@example([[0, 2], [3, 5]])                    # zero pivot, rows swap
@example([[1, 2, 3], [2, 4, 6], [0, 1, 5]])   # singular
def test_det_bareiss_on_int_matrices(matrix):
    got = det_bareiss(matrix)
    assert got == _leibniz_det(matrix)
    assert type(got) is F


@settings(deadline=None, derandomize=True, max_examples=100)
@given(_square_matrices(_fractions | _ints))
@example([[F(0), F(1, 3)], [F(-2, 7), F(5, 6)]])
@example([[F(1, 2), F(1, 3)], [F(1, 4), F(1, 6)]])  # singular, unequal denominators
def test_det_bareiss_on_fraction_matrices(matrix):
    # rows may mix ints and Fractions
    got = det_bareiss(matrix)
    assert got == _leibniz_det(matrix)
    assert got == det_bareiss([[F(x) for x in row] for row in matrix])
    assert type(got) is F
