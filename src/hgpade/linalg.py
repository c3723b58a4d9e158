"""Exact linear algebra: Bareiss determinants of integer matrices, and
kernels and Newton interpolation over Fraction.

Matrices are lists of equal-length rows.  `det_bareiss` takes integer rows
and returns an int, in O(N^3) exact integer operations; every determinant
the Wronskian chain evaluates goes through it (Delta's (rm+1) x (rm+1)
matrix at z = 0, Theta and the moment matrix of C_{u,m}), each row an
integer row (den, ints) whose denominators the caller divides out
(`wronskian._det`).  `kernel_basis` and `newton_interpolate` take
Fractions (ints are accepted too).
"""

from __future__ import annotations

import math
from fractions import Fraction

from .errors import InvalidInput


def det_bareiss(matrix: list[list[int]]) -> int:
    """Exact determinant of an integer matrix by fraction-free Bareiss
    elimination.

    Each row's and then each column's gcd is divided out of a copy, and the
    classic integer-preserving recurrence runs on it: every division in it
    is exact.
    """
    n = len(matrix)
    if n == 0:
        return 1
    if any(len(row) != n for row in matrix):
        raise InvalidInput("determinant needs a square matrix")
    rows = [math.gcd(*row) or 1 for row in matrix]
    m = [[a // g for a in row] for row, g in zip(matrix, rows)]
    cols = [math.gcd(*col) or 1 for col in zip(*m)]
    content = math.prod(rows) * math.prod(cols)
    m = [[a // g for a, g in zip(row, cols)] for row in m]

    sign = 1
    prev = 1
    for k in range(n - 1):
        if m[k][k] == 0:
            for i in range(k + 1, n):
                if m[i][k] != 0:
                    m[k], m[i] = m[i], m[k]
                    sign = -sign
                    break
            else:
                return 0
        for i in range(k + 1, n):
            for j in range(k + 1, n):
                m[i][j] = (m[i][j] * m[k][k] - m[i][k] * m[k][j]) // prev
            m[i][k] = 0
        prev = m[k][k]
    return sign * content * m[n - 1][n - 1]


def kernel_basis(matrix: list[list[Fraction]], ncols: int) -> list[list[Fraction]]:
    """Basis of the right kernel of a (possibly rectangular) matrix."""
    rows = [[Fraction(x) for x in row] for row in matrix]
    nrows = len(rows)
    pivots: dict[int, int] = {}  # column -> row
    r = 0
    for c in range(ncols):
        piv = next((i for i in range(r, nrows) if rows[i][c] != 0), None)
        if piv is None:
            continue
        rows[r], rows[piv] = rows[piv], rows[r]
        inv = 1 / rows[r][c]
        rows[r] = [x * inv for x in rows[r]]
        for i in range(nrows):
            if i != r and rows[i][c] != 0:
                f = rows[i][c]
                rows[i] = [x - f * y for x, y in zip(rows[i], rows[r])]
        pivots[c] = r
        r += 1
    basis = []
    free_cols = [c for c in range(ncols) if c not in pivots]
    for fc in free_cols:
        vec = [Fraction(0)] * ncols
        vec[fc] = Fraction(1)
        for c, pr in pivots.items():
            vec[c] = -rows[pr][fc]
        basis.append(vec)
    return basis


def newton_interpolate(xs: list[Fraction], ys: list[Fraction]) -> list[Fraction]:
    """Coefficients (low to high) of the unique interpolating polynomial."""
    if len(xs) != len(ys) or not xs:
        raise InvalidInput("interpolation needs matching non-empty node/value lists")
    n = len(xs)
    # divided differences
    dd = [Fraction(y) for y in ys]
    coeffs = [dd[0]]
    for level in range(1, n):
        for i in range(n - 1, level - 1, -1):
            dd[i] = (dd[i] - dd[i - 1]) / (xs[i] - xs[i - level])
        coeffs.append(dd[level])
    # expand the Newton form into monomial coefficients
    poly = [Fraction(0)] * n
    acc = [Fraction(1)]  # prod_{j<level} (x - xs[j])
    for level, c in enumerate(coeffs):
        for j, a in enumerate(acc):
            poly[j] += c * a
        if level < n - 1:
            # acc *= (x - xs[level])
            acc = [Fraction(0)] + acc
            for j in range(len(acc) - 1):
                acc[j] -= xs[level] * acc[j + 1]
    while poly and poly[-1] == 0:
        poly.pop()
    return poly
