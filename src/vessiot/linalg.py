"""Exact linear algebra over the rational-function field.

Entries are RationalExpr or rational numbers; zero tests are exact, so ranks
and solutions are authoritative at generic points of the coefficient
field.

Elimination runs on sparse rows, ``{col: entry}`` dicts that hold only
the nonzero entries, so a zero cell is never stored, updated or tested;
``systems`` and ``invariants`` build their matrices in this form.  The
one kernel, ``_forward``, is fraction-free: a row that meets another in
a pivot column is cleared to Polynomials once (``_clear``), the pivot is
the cleared entry of fewest terms, and rows are updated as
row <- pv*row - a*prow over Polynomials (``_eliminate``), so the forward
pass takes no polynomial gcd.  ``rank`` counts its pivots; ``rref``
divides each pivot row by its pivot once, which brings back Fraction
and RationalExpr entries, and back-substitutes with ``subtract``, the
field row update that ``systems``' strict pivot audit also uses.
``det`` and ``adjugate`` are cofactor expansions over small dense square
matrices.
"""
from __future__ import annotations

import math
from fractions import Fraction

from .errors import SingularFrame
from .symcore import ONE, UNIT, Polynomial, RationalExpr, ZERO, poly_divexact


def _is_zero(x):
    if isinstance(x, RationalExpr):
        return x.is_zero()
    return x == 0


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


def _primitive(row):
    """The Polynomial row ``row`` divided by the gcd of all the integer
    coefficients of its entries."""
    g = math.gcd(*(c for p in row.values() for c in p.terms.values()))
    if g < 2:
        return row
    g = Polynomial.const(g)
    return {j: poly_divexact(p, g) for j, p in row.items()}


def _clear(row):
    """The row ``row`` of Fractions and RationalExprs as a row of
    Polynomials with int coefficients: each entry times the product of
    the row's distinct denominators other than its own (compared with
    ==, so no gcd is taken), then divided by the integer content.  The
    row is only scaled by a nonzero factor."""
    parts, dens = [], []
    for j, x in row.items():
        if isinstance(x, RationalExpr):
            num, den = x.num, x.den
        else:
            num = Polynomial.const(x.numerator)
            den = Polynomial.const(x.denominator)
        if den == ONE.num:
            k = -1
        elif den in dens:
            k = dens.index(den)
        else:
            k = len(dens)
            dens.append(den)
        parts.append((j, num, k))
    if not dens:
        return _primitive({j: num for j, num, _ in parts})
    # the product of all the denominators but the k-th (all of them at -1)
    others = []
    for k in [*range(len(dens)), -1]:
        prod = ONE.num
        for i, den in enumerate(dens):
            if i != k:
                prod = prod * den
        others.append(prod)
    return _primitive({j: num * others[k] for j, num, k in parts})


def _ratio(a, b):
    """Coprime ints (s, t), s > 0, with s*a == t*b, when the nonzero
    Polynomials a and b are proportional; else None."""
    if a.terms.keys() != b.terms.keys():
        return None
    m = next(iter(a.terms))
    t, s = a.terms[m], b.terms[m]
    g = math.gcd(t, s) if s > 0 else -math.gcd(t, s)
    s, t = s // g, t // g
    bt = b.terms
    if all(s * c == t * bt[m] for m, c in a.terms.items()):
        return s, t
    return None


def _eliminate(row, pv, prow, col):
    """The cleared row pv*row - a*prow, a = row[col] and pv = prow[col],
    without column ``col``; an entry that cancels is left out.  When a
    is t/s times pv for ints s and t, the row is s*row - t*prow."""
    a = row[col]
    st = _ratio(a, pv)
    if st is not None:
        pv, a = Polynomial.const(st[0]), Polynomial.const(st[1])
    na = -a
    out = {}
    for j, x in row.items():
        if j == col:
            continue
        y = prow.get(j)
        new = pv * x if y is None else pv * x + na * y
        if new.terms:
            out[j] = new
    for j, y in prow.items():
        if j not in row:
            out[j] = na * y
    return _primitive(out)


def _forward(rows, ncols):
    """Fraction-free forward elimination of sparse rows, in place.

    Columns are taken left to right up to ``ncols``.  When one row that
    is not yet a pivot row carries the column, its entry is the pivot as
    it stands.  When several do, each of them is cleared (``_clear``)
    if it was not already, the pivot is the cleared entry of fewest
    terms, the earliest row winning a tie (so over Q the earliest row),
    and every other of them becomes pv*row - a*prow, a its entry in the
    column, with its integer content taken out.  Rows are only scaled
    and combined, so the pivots are those of elimination over the field,
    and no polynomial gcd is taken.  Pivot rows are neither divided nor
    reduced; a row, once cleared, holds Polynomials.  Returns the pivots
    as (row, col) in column order.
    """
    free = list(range(len(rows)))
    cleared = set()
    pivots = []
    for col in range(ncols):
        cands = [r for r in free if col in rows[r]]
        if not cands:
            continue
        best = cands[0]
        if len(cands) > 1:
            for r in cands:
                if r not in cleared:
                    rows[r] = _clear(rows[r])
                    cleared.add(r)
            best = min(cands, key=lambda r: len(rows[r][col].terms))
            prow = rows[best]
            pv = prow[col]
            for r in cands:
                if r != best:
                    rows[r] = _eliminate(rows[r], pv, prow, col)
        free.remove(best)
        pivots.append((best, col))
        if not free:
            break
    return pivots


def _quotient(x, pv):
    """x / pv for two entries of one row after ``_forward``: Fractions
    or RationalExprs as they are, or Polynomials of a cleared row, whose
    quotient is a Fraction when it is constant and else a RationalExpr."""
    if not isinstance(pv, Polynomial):
        return x / pv
    if x.is_constant() and pv.is_constant():
        return Fraction(x.terms[UNIT], pv.terms[UNIT])
    q = RationalExpr(x, pv)
    return q.constant_value() if q.is_constant() else q


def rref(rows, ncols):
    """Reduced row echelon form by exact elimination.

    ``rows``: sparse rows ``{col: entry}`` (a zero entry is dropped),
    which are not mutated; columns at or past ``ncols`` (an augmented
    part) are carried along but never pivoted.  The rows are run through
    the forward kernel ``_forward`` (whose pivot rule this inherits),
    each pivot row is then divided by its pivot once, and each is
    subtracted from the pivot rows above it, last pivot first.  Returns
    (reduced rows, pivots) where pivots is a list of (row, col) in
    column order; the reduced rows are sparse and keep their input
    positions.  A row that is not a pivot row has no entry in the first
    ``ncols`` columns, and its augmented part is fixed only up to a
    nonzero factor, since ``_forward`` scales rows.  Entries are
    Fractions or RationalExprs, so compare by value.
    """
    sparse = [_sparse(r) for r in rows]
    pivots = _forward(sparse, ncols)
    pivot_col = dict(pivots)
    for r, row in enumerate(sparse):
        if r in pivot_col:
            pv = row[pivot_col[r]]
        elif any(isinstance(x, Polynomial) for x in row.values()):
            pv = ONE.num
        else:
            continue
        sparse[r] = {j: _quotient(x, pv) for j, x in row.items()}
    for k in range(len(pivots) - 1, -1, -1):
        p, col = pivots[k]
        for q, _ in pivots[:k]:
            a = sparse[q].pop(col, None)
            if a is not None:
                subtract(sparse[q], a, sparse[p], col)
    return sparse, pivots


def rank(rows, ncols):
    """Rank of the sparse rows ``rows`` (as ``rref`` takes them, and not
    mutated) over the first ``ncols`` columns: the number of pivots
    ``_forward`` finds, with no polynomial gcd taken.  Entries past
    ``ncols`` are never pivots, and nothing is eliminated above a
    pivot."""
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
        return [[ONE]]  # not the int 1: inverse's 1 / det could be int / int
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
