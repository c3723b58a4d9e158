"""Exact linear algebra: the Bareiss determinant of integer rows against a
Leibniz sum."""

from fractions import Fraction
from itertools import permutations

from hypothesis import example, given, settings
from hypothesis import strategies as st

from conftest import fraction_det
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
    assert type(got) is int


@settings(deadline=None, derandomize=True, max_examples=100)
@given(_square_matrices(_fractions | _ints))
@example([[F(0), F(1, 3)], [F(-2, 7), F(5, 6)]])
@example([[F(1, 2), F(1, 3)], [F(1, 4), F(1, 6)]])  # singular, unequal denominators
def test_det_bareiss_on_fraction_matrices(matrix):
    # rows may mix ints and Fractions: each is scaled to an integer row
    # over the lcm of its denominators, the form every caller passes
    got = fraction_det(matrix)
    assert got == _leibniz_det(matrix)
    assert type(got) is F


def _laplace_det(matrix):
    """Expansion along the first row, recursively, on Fractions."""
    if not matrix:
        return F(1)
    total = F(0)
    for col, entry in enumerate(matrix[0]):
        if entry:
            minor = [row[:col] + row[col + 1:] for row in matrix[1:]]
            total += (-1) ** col * F(entry) * _laplace_det(minor)
    return total


@st.composite
def _matrices_with_contents(draw):
    # integer rows with a common factor per row and per column, and some
    # rows or columns zeroed
    n = draw(st.integers(1, 5))
    entries = st.integers(-6, 6)
    matrix = [draw(st.lists(entries, min_size=n, max_size=n)) for _ in range(n)]
    for i in range(n):
        f = draw(st.sampled_from([1, 2, 6, -15, 2**70]))
        matrix[i] = [x * f for x in matrix[i]]
    for j in range(n):
        f = draw(st.sampled_from([1, 3, -4, 10**20]))
        for row in matrix:
            row[j] *= f
    for i in draw(st.sets(st.integers(0, n - 1), max_size=2)):
        matrix[i] = [0] * n
    for j in draw(st.sets(st.integers(0, n - 1), max_size=1)):
        for row in matrix:
            row[j] = 0
    return matrix


@settings(deadline=None, derandomize=True, max_examples=150)
@given(_matrices_with_contents())
@example([[0, 0], [0, 0]])                     # every row and column zero
@example([[6, 4], [0, 0]])                     # a zero row last
@example([[0, 2], [0, 3]])                     # a zero column first
@example([[4, 6, 10], [6, 9, 15], [2, 3, 7]])  # contents 2 and 3, singular
def test_det_bareiss_removes_contents_and_keeps_the_value(matrix):
    # the determinant with every row's and column's content divided out
    # first, against the Laplace expansion, on int rows, zero rows and zero
    # columns
    got = det_bareiss(matrix)
    assert got == _laplace_det(matrix)
    assert type(got) is int
