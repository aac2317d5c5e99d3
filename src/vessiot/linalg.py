"""Exact linear algebra over the rational-function field.

Entries are RationalExpr or rational numbers; zero tests are exact, so ranks
and solutions are authoritative at generic points of the coefficient
field.

Elimination runs on sparse rows, ``{col: entry}`` dicts that hold only
the nonzero entries, so a zero cell is never stored, updated or tested;
``systems`` and ``invariants`` build their matrices in this form.  The
one kernel, ``_forward``, pivots each column on the entry of lowest
``_weight`` (term count), the earliest row winning a tie, and updates
rows with ``subtract``.  ``rank`` counts its pivots; ``rref`` adds
back-substitution over the pivot rows.  ``det`` and ``adjugate`` are
cofactor expansions over small dense square matrices.
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


def _sparse(row):
    """A copy of the sparse row ``row`` without its zero entries, in
    which an entry that is not a RationalExpr becomes a Fraction, so
    that no division of two ints gives a float."""
    return {
        j: x if isinstance(x, RationalExpr) else Fraction(x)
        for j, x in row.items() if x
    }


def subtract(row, f, prow, skip):
    """Sparse row update: row -= f * prow over prow's entries other than
    column ``skip``, in place; an entry that cancels leaves the row."""
    for j, x in prow.items():
        if j == skip:
            continue
        old = row.get(j)
        new = -(f * x) if old is None else old - f * x
        if _is_zero(new):
            del row[j]
        else:
            row[j] = new


def _forward(rows, ncols):
    """Forward elimination of sparse rows, in place.

    Columns are taken left to right up to ``ncols``; the pivot of a
    column is the entry of lowest ``_weight`` among the rows that are
    not yet pivot rows, the earliest row winning a tie.  Every other
    such row with an entry there loses that entry, by subtracting
    (entry / pivot) times the pivot row; that entry is dropped, not
    computed, and pivot rows are neither divided nor reduced.  Returns
    the pivots as (row, col) in column order.
    """
    free = list(range(len(rows)))
    pivots = []
    for col in range(ncols):
        best = None
        for r in free:
            x = rows[r].get(col)
            if x is None:
                continue
            w = _weight(x)
            if best is None or w < weight:
                best, weight = r, w
        if best is None:
            continue
        free.remove(best)
        pivots.append((best, col))
        prow = rows[best]
        pv = prow[col]
        for r in free:
            row = rows[r]
            a = row.pop(col, None)
            if a is not None:
                subtract(row, a / pv, prow, col)
        if not free:
            break
    return pivots


def rref(rows, ncols):
    """Reduced row echelon form by exact elimination.

    ``rows``: sparse rows ``{col: entry}`` (a zero entry is dropped),
    which are not mutated; columns at or past ``ncols`` (an augmented
    part) are carried along but never pivoted.  The rows are run through
    the forward kernel ``_forward`` (whose pivot rule this inherits),
    and each pivot row is then divided by its pivot and subtracted from
    the pivot rows above it, last pivot first.  Returns (reduced rows,
    pivots) where pivots is a list of (row, col) in column order; the
    reduced rows are sparse, keep their input positions, and a row that
    is not a pivot row has no entry in the first ``ncols`` columns.
    Entries are Fractions or RationalExprs, so compare by value.
    """
    sparse = [_sparse(r) for r in rows]
    pivots = _forward(sparse, ncols)
    for k in range(len(pivots) - 1, -1, -1):
        p, col = pivots[k]
        prow = sparse[p]
        pv = prow[col]
        for j, x in prow.items():
            prow[j] = x / pv
        for q, _ in pivots[:k]:
            a = sparse[q].pop(col, None)
            if a is not None:
                subtract(sparse[q], a, prow, col)
    return sparse, pivots


def rank(rows, ncols):
    """Rank of the sparse rows ``rows`` (as ``rref`` takes them, and not
    mutated) over the first ``ncols`` columns: the number of pivots
    ``_forward`` finds.  Entries past ``ncols`` are never pivots, and
    nothing is eliminated above a pivot."""
    return len(_forward([_sparse(r) for r in rows], ncols))


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
