"""Exact linear algebra over the rational-function field.

Entries are RationalExpr or rational numbers; zero tests are exact, so ranks
and solutions are authoritative at generic points of the coefficient
field.
"""
from __future__ import annotations

from fractions import Fraction

from .errors import SingularFrame
from .symcore import RationalExpr, ZERO


def _is_zero(x):
    if isinstance(x, RationalExpr):
        return x.is_zero()
    return x == 0


def _weight(x):
    if isinstance(x, RationalExpr):
        return x.complexity()
    return 2  # as RationalExpr.const: pivots follow values, not types


def rref(rows, ncols):
    """Reduced row echelon form by exact elimination.

    ``rows``: list of lists (mutated copies are used; an entry that is
    not a RationalExpr is copied as a Fraction, so that no division of
    two ints gives a float).  Columns are taken left to right.  Returns
    (reduced rows, pivots) where pivots is a list of (row, col); rows
    that become zero are kept (all-zero) at the end.

    Each pivot step divides and eliminates only over the pivot row's
    nonzero columns, since a - f*0 is exactly a.  An entry it skips
    keeps its type (a Fraction stays a Fraction), so compare results by
    value.
    """
    rows = [
        [x if isinstance(x, RationalExpr) else Fraction(x) for x in r] for r in rows
    ]
    pivots = []
    used = set()
    for col in range(ncols):
        best = None
        for r in range(len(rows)):
            if r in used or _is_zero(rows[r][col]):
                continue
            if best is None or _weight(rows[r][col]) < _weight(rows[best][col]):
                best = r
        if best is None:
            continue
        used.add(best)
        pivots.append((best, col))
        prow = rows[best]
        pv = prow[col]
        # only the pivot row's nonzero columns change; they are taken
        # over the whole row, which may be wider than ncols
        nz = [j for j, x in enumerate(prow) if not _is_zero(x)]
        for j in nz:
            prow[j] = prow[j] / pv
        for r, row in enumerate(rows):
            if r == best or _is_zero(row[col]):
                continue
            f = row[col]
            for j in nz:
                row[j] = row[j] - f * prow[j]
    return rows, pivots


def rank(rows, ncols=None):
    if not rows:
        return 0
    if ncols is None:
        ncols = len(rows[0])
    _, pivots = rref(rows, ncols)
    return len(pivots)


def mat_mul(a, b):
    return [
        [
            sum((a[i][k] * b[k][j] for k in range(len(b))), start=ZERO)
            for j in range(len(b[0]))
        ]
        for i in range(len(a))
    ]


def mat_vec(a, v):
    return [sum((a[i][k] * v[k] for k in range(len(v))), start=ZERO) for i in range(len(a))]


def transpose(a):
    return [list(r) for r in zip(*a)]


def det(a):
    """Determinant by Laplace expansion along the first row."""
    n = len(a)
    if n == 1:
        return a[0][0]
    total = ZERO
    for j in range(n):
        minor = [row[:j] + row[j + 1:] for row in a[1:]]
        term = a[0][j] * det(minor)
        total = total + term if j % 2 == 0 else total - term
    return total


def adjugate(a):
    """Transposed cofactor matrix: a * adjugate(a) == det(a) * I."""
    n = len(a)
    if n == 1:
        return [[1]]
    adj = [[None] * n for _ in range(n)]
    for r in range(n):
        for c in range(n):
            m = det([
                [a[i][j] for j in range(n) if j != c]
                for i in range(n) if i != r
            ])
            adj[c][r] = m if (r + c) % 2 == 0 else -m
    return adj


def inverse(a):
    d = det(a)
    if _is_zero(d):
        raise SingularFrame("matrix not invertible over the function field")
    return [[x / d for x in row] for row in adjugate(a)]
