"""Exact linear algebra: Bareiss determinants of integer matrices.

A matrix is a list of equal-length rows.  `det_bareiss` takes integer rows
and returns an int, in O(N^3) exact integer operations; every determinant
the Wronskian chain evaluates goes through it (Delta's (rm+1) x (rm+1)
matrix at z = 0, Theta and the moment matrix of C_{u,m}), each row an
integer row (den, ints) whose denominators the caller divides out
(`wronskian._det`).
"""

from __future__ import annotations

import math

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
