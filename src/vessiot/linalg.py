"""Exact linear algebra over the rational-function field.

Entries are RationalExprs, Polynomials or rational numbers; zero tests
are exact, so ranks and solutions are authoritative at generic points
of the coefficient field.

Elimination runs on sparse rows, ``{col: entry}`` dicts that hold only
the nonzero entries, so a zero cell is never stored, updated or tested;
``systems`` and ``invariants`` build their matrices in this form.  The
one kernel, ``_forward``, works on one entry type: it clears each row
on entry to a row of int-coefficient Polynomials (``clear``: the row
over one denominator, ``symcore.over_one_denominator``, then made
integral and divided by its integer content); a row of nonzero
Polynomials, as ``systems``' symbols hold them, skips the first step.
Entries of all these types may share a row.  The pivot is the entry of
fewest terms, and rows are updated as row <- pv*row - a*prow over
Polynomials (``_eliminate``), so it takes no polynomial gcd.  Its one
column rule takes next a column of the lowest block that fewest
remaining rows carry (Markowitz's rule, which keeps fill-in down); each
caller names the blocks.  ``rank`` puts all columns in one block.
``rref`` gives each its own, so the lowest comes first, as its pivot
columns are part of its answer; it back-substitutes with the same
update and then divides each row by its pivot once.
``pivot_columns`` serves ``systems.characters``, one block per class.
``det`` and ``adjugate`` are cofactor expansions over small dense square
matrices.
"""
from __future__ import annotations

import heapq
import math
from fractions import Fraction

from .errors import SingularFrame
from .symcore import (
    ONE,
    UNIT,
    Polynomial,
    RationalExpr,
    ZERO,
    over_one_denominator,
    poly_divexact,
)


def _is_zero(x):
    if isinstance(x, RationalExpr):
        return x.is_zero()
    return x == 0


def _primitive(row):
    """The Polynomial row ``row`` divided by the gcd of all the integer
    coefficients of its entries; a row with a Fraction coefficient is
    first multiplied by the lcm of its coefficients' denominators."""
    try:
        g = math.gcd(*(c for p in row.values() for c in p.terms.values()))
    except TypeError:
        # a Fraction coefficient, which math.gcd refuses
        lcm = math.lcm(*(c.denominator for p in row.values()
                         for c in p.terms.values()))
        return _primitive({
            j: Polynomial({m: c * lcm for m, c in p.terms.items()})
            for j, p in row.items()})
    if g < 2:
        return row
    g = Polynomial.const(g)
    return {j: poly_divexact(p, g) for j, p in row.items()}


def clear(row):
    """The sparse row ``row`` of ints, Fractions, Polynomials and
    RationalExprs as a new row of Polynomials with int coefficients,
    without its zero entries: the row over one denominator
    (over_one_denominator), then made integral and divided by the
    integer content (_primitive).  The row is only scaled by a nonzero
    factor.  A row of nonzero Polynomials (``symcore.linearize`` makes
    them) skips the first step, and one of int-coefficient Polynomials
    with integer content 1 is returned as it is."""
    if all(isinstance(x, Polynomial) and x.terms for x in row.values()):
        return _primitive(row)
    nums, _ = over_one_denominator(row.values())
    return _primitive({j: p for j, p in zip(row, nums) if p.terms})


def proportion(a, b):
    """Coprime ints (s, t), s > 0, with s*a == t*b, when the
    int-coefficient Polynomials a and b are nonzero constant multiples of
    each other, and (1, 1) when both are zero; else None: equal supports,
    and one ratio read at one monomial holds at all of them."""
    if a.terms.keys() != b.terms.keys():
        return None
    if not a.terms:
        return 1, 1
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
    st = proportion(a, pv)
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


def _forward(rows, ncols, block):
    """Fraction-free forward elimination of the sparse rows ``rows``,
    which are not mutated.

    Each row not yet cleared is cleared on entry (``clear``); from then
    on the rows hold Polynomials with int coefficients.  The pivot column is
    one up to ``ncols`` that a row not yet a pivot row carries: of the
    lowest ``block[j]``, the one that fewest such rows carry, the lowest
    winning a tie.  An index from each column to the free rows that
    carry it is kept up to date as rows change, and the column comes off
    a heap of (block, count, column) triples, a triple whose count has
    since changed being passed over.  A column that no free row carries
    leaves the index for good, since a row gains only columns of the
    pivot row, itself a free row; so a block is done before the next
    starts.  The pivot is the entry of fewest
    terms among the free rows that carry the column, the earliest row
    winning a tie (so over Q the earliest row), and every other of them
    becomes pv*row - a*prow, a its entry in the column, with its integer
    content taken out (``_eliminate``).  Rows are only scaled and
    combined, so the pivots are those of elimination over the field, and
    no polynomial gcd is taken.  Pivot rows are neither divided nor
    reduced.  Returns (rows, pivots): the cleared rows after
    elimination, in their input positions, and the pivots as (row, col)
    in the order they were taken.
    """
    rows = [clear(r) for r in rows]
    where = {}  # column below ncols -> the free rows that carry it
    for r, row in enumerate(rows):
        for j in row:
            if j < ncols:
                where.setdefault(j, set()).add(r)
    heap = [(block[j], len(rs), j) for j, rs in where.items()]
    heapq.heapify(heap)

    def leave(r, cols):
        for j in cols:
            rs = where.get(j)
            if rs is not None:  # else j is past ncols or the pivot column
                rs.discard(r)
                if not rs:
                    del where[j]
                else:
                    heapq.heappush(heap, (block[j], len(rs), j))

    def enter(r, cols):
        for j in cols:
            if j < ncols:
                rs = where.setdefault(j, set())
                rs.add(r)
                heapq.heappush(heap, (block[j], len(rs), j))

    pivots = []
    while where:
        _, count, col = heapq.heappop(heap)
        rs = where.get(col)
        if rs is None or len(rs) != count:
            continue
        del where[col]
        cands = sorted(rs)
        best = min(cands, key=lambda r: len(rows[r][col].terms))
        prow = rows[best]
        pv = prow[col]
        for r in cands:
            if r != best:
                old = rows[r]
                rows[r] = new = _eliminate(old, pv, prow, col)
                leave(r, old.keys() - new.keys())
                enter(r, new.keys() - old.keys())
        leave(best, prow)
        pivots.append((best, col))
    return rows, pivots


def _quotient(x, pv):
    """x / pv for two Polynomials of one row after elimination: a
    Fraction when it is constant, else a RationalExpr."""
    if x.is_constant() and pv.is_constant():
        return Fraction(x.terms[UNIT], pv.terms[UNIT])
    q = RationalExpr(x, pv)
    return q.constant_value() if q.is_constant() else q


def rref(rows, ncols):
    """Reduced row echelon form by exact elimination.

    ``rows``: sparse rows ``{col: entry}`` (a zero entry is dropped),
    which are not mutated; columns at or past ``ncols`` (an augmented
    part) are carried along but never pivoted.  The rows are run through
    the forward kernel ``_forward`` with a block of its own for each
    column, so the lowest column comes first (its pivot-row rule this
    inherits).  Each pivot row then loses the pivot columns of
    the pivot rows after it, in column order, by the forward update
    (``_eliminate``) with those rows as the forward pass left them: such
    a row holds no pivot column before its own, so each step leaves
    only later pivot columns to clear.  A row is so scaled only by
    forward pivots; with rows already reduced, as in back-substitution
    last pivot first, the scale factors would compound from step to
    step.  Then every row is divided once by its pivot, a row that is
    not a pivot row by 1.
    Returns (reduced rows, pivots) where pivots is a list of (row, col)
    in column order; the reduced rows are sparse and keep their input
    positions.  A row that is not a pivot row has no entry in the first
    ``ncols`` columns, and its augmented part is fixed only up to a
    nonzero factor, since ``_forward`` scales rows.  Entries are
    Fractions or RationalExprs, so compare by value.
    """
    rows, pivots = _forward(rows, ncols, range(ncols))
    for k, (q, _) in enumerate(pivots):
        for p, col in pivots[k + 1:]:
            if col in rows[q]:
                rows[q] = _eliminate(rows[q], rows[p][col], rows[p], col)
    pivot_col = dict(pivots)
    for r, row in enumerate(rows):
        pv = row[pivot_col[r]] if r in pivot_col else ONE.num
        rows[r] = {j: _quotient(x, pv) for j, x in row.items()}
    return rows, pivots


def rank(rows, ncols):
    """Rank of the sparse rows ``rows`` (as ``rref`` takes them or as
    ``clear`` makes them, and not mutated) over the first ``ncols``
    columns: the number of pivots ``_forward`` finds with all columns in
    one block (sparsest first),
    with no polynomial gcd taken.  The rank does not depend on the order
    of the columns, and this order keeps fill-in and entry growth down
    where left to right can run for minutes.  Entries past ``ncols`` are
    never pivots, and nothing is eliminated above a pivot."""
    return len(_forward(rows, ncols, [0] * ncols)[1])


def pivot_columns(rows, ncols, block):
    """The pivot columns of ``rows`` (as ``rank`` takes them) in the
    order ``_forward`` takes them, ``block[j]`` the block of column j.
    Once the blocks up to b are done no free row carries their columns,
    so the pivots in them number the rank of those columns alone."""
    return [col for _, col in _forward(rows, ncols, block)[1]]


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
