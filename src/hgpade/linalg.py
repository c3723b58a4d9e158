"""Exact linear algebra over Fraction: Bareiss determinants, kernels and
Newton interpolation.

Matrices are lists of equal-length lists of Fractions (ints are accepted
too).  Every determinant of the Wronskian chain goes through `det_bareiss`,
O(N^3) exact integer operations: Delta's (rm+1) x (rm+1) matrix at z = 0,
Theta, the moment matrix of C_{u,m}, and the final determinant.
"""

from __future__ import annotations

import math
from fractions import Fraction

from .errors import InvalidInput


def det_bareiss(matrix: list[list[Fraction]]) -> Fraction:
    """Exact determinant by fraction-free Bareiss elimination.

    Each row is first scaled to integers over the lcm of its denominators
    (entry x becomes x.numerator * (d // x.denominator); int rows pass
    through with d = 1), each row's and then each column's gcd is divided
    out, and the classic integer-preserving recurrence runs without any
    rational division.
    """
    n = len(matrix)
    if n == 0:
        return Fraction(1)
    if any(len(row) != n for row in matrix):
        raise InvalidInput("determinant needs a square matrix")
    scale, content = 1, 1
    m: list[list[int]] = []
    for row in matrix:
        d = math.lcm(*(x.denominator for x in row))
        ints = [x.numerator * (d // x.denominator) for x in row]
        g = math.gcd(*ints) or 1
        scale, content = scale * d, content * g
        m.append([a // g for a in ints])
    cols = [math.gcd(*col) or 1 for col in zip(*m)]
    content *= math.prod(cols)
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
                return Fraction(0)
        for i in range(k + 1, n):
            for j in range(k + 1, n):
                m[i][j] = (m[i][j] * m[k][k] - m[i][k] * m[k][j]) // prev
            m[i][k] = 0
        prev = m[k][k]
    return Fraction(sign * content * m[n - 1][n - 1], scale)


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
