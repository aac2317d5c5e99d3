"""Determinant, adjugate and inverse on seeded matrices of sizes 1 to 4,
over Q (int and Fraction entries) and over Q(x, y) (RationalExpr
entries); the constant-multiple rule ``proportion``; ``rank`` and
``rref`` on rows that mix Polynomials with the other entry types, and
on rows of Polynomials with Fraction coefficients, against dense field
elimination."""
import random
from fractions import Fraction

import pytest

from vessiot.errors import SingularFrame
from vessiot.jets import JetContext
from vessiot.linalg import (
    adjugate,
    det,
    inverse,
    mat_mul,
    proportion,
    rank,
    rref,
)
from vessiot.symcore import Polynomial, RationalExpr
from test_systems import dense_rref

CTX = JetContext(["x", "y"], [])


def int_entry(rng):
    return rng.randint(-5, 5)


def fraction_entry(rng):
    return Fraction(rng.randint(-5, 5), rng.randint(1, 4))


def rational_entry(rng):
    a, b, c = (rng.randint(-3, 3) for _ in range(3))
    return CTX.expr(f"({a}*x + {b}*y) / {rng.randint(1, 3)} + {c}")


ENTRIES = {"int": int_entry, "fraction": fraction_entry,
           "rational": rational_entry}


def random_matrix(n, entry, rng):
    """A seeded n x n matrix with nonzero determinant."""
    while True:
        a = [[entry(rng) for _ in range(n)] for _ in range(n)]
        if det(a) != 0:
            return a


def is_scalar(m, d):
    n = len(m)
    return all(
        m[i][j] == (d if i == j else 0) for i in range(n) for j in range(n)
    )


@pytest.mark.parametrize("n", [1, 2, 3, 4])
@pytest.mark.parametrize("kind", sorted(ENTRIES))
class TestCofactors:
    def test_inverse(self, n, kind):
        a = random_matrix(n, ENTRIES[kind], random.Random(n))
        # int / int would be a float, and no later zero test is exact
        assert not any(isinstance(x, float) for r in inverse(a) for x in r)
        assert is_scalar(mat_mul(a, inverse(a)), 1)
        assert is_scalar(mat_mul(inverse(a), a), 1)

    def test_adjugate(self, n, kind):
        a = random_matrix(n, ENTRIES[kind], random.Random(10 + n))
        assert is_scalar(mat_mul(a, adjugate(a)), det(a))

    def test_det_is_multiplicative(self, n, kind):
        rng = random.Random(20 + n)
        a = random_matrix(n, ENTRIES[kind], rng)
        b = random_matrix(n, ENTRIES[kind], rng)
        assert det(mat_mul(a, b)) == det(a) * det(b)

    def test_singular_matrix_has_no_inverse(self, n, kind):
        a = random_matrix(n, ENTRIES[kind], random.Random(30 + n))
        # the last row becomes the sum of the others (zero when n = 1)
        a[-1] = [sum((r[j] for r in a[:-1]), 0 * a[0][j]) for j in range(n)]
        assert det(a) == 0
        with pytest.raises(SingularFrame):
            inverse(a)


def test_known_values():
    assert det([[Fraction(1, 2)]]) == Fraction(1, 2)
    assert det([[1, 2], [3, 4]]) == -2
    assert det([[2, 0, 1], [1, 3, 2], [1, 1, 1]]) == 0
    assert det([[1, 2, 0, 0], [3, 4, 0, 0], [0, 0, 5, 6], [0, 0, 7, 8]]) == 4
    x, y = CTX.expr("x"), CTX.expr("y")
    assert det([[x, y], [y, x]]) == CTX.expr("x^2 - y^2")
    assert adjugate([[x, y], [1, x]]) == [[x, -y], [-1, x]]
    assert inverse([[2]]) == [[Fraction(1, 2)]]


@pytest.mark.parametrize("a, b, st", [
    pytest.param("2*x + 4*y", "x + 2*y", (1, 2), id="scaled"),
    pytest.param("x - y", "y - x", (1, -1), id="negated"),
    pytest.param("3*x*y", "2*x*y", (2, 3), id="fractional-ratio"),
    pytest.param("0", "0", (1, 1), id="both-zero"),
    pytest.param("x + y", "x + 2*y", None, id="other-ratio"),
    pytest.param("x + y", "x", None, id="other-support"),
    pytest.param("x", "0", None, id="zero-and-nonzero"),
])
def test_proportion(a, b, st):
    # the one rule of _eliminate and of the loader's repeated residuals
    a, b = (CTX.expr(e).num for e in (a, b))
    assert proportion(a, b) == st
    if st is not None:
        s, t = st
        assert s > 0 and a * s == b * t


def polynomial_entry(rng):
    """A Polynomial in x, y, zero a fifth of the time, with a Fraction
    coefficient half the time."""
    if rng.random() < 0.2:
        return Polynomial()
    p = CTX.expr(f"{rng.randint(-3, 3)}*x + {rng.randint(-2, 2)}*y "
                 f"+ {rng.randint(-2, 2)}").num
    return p * Fraction(rng.randint(1, 3), 2) if rng.random() < 0.5 else p


def mixed_entry(rng):
    """A Polynomial, an int, a Fraction or a RationalExpr."""
    kind = rng.randrange(4)
    if kind == 0:
        return polynomial_entry(rng)
    if kind == 1:
        return int_entry(rng)
    if kind == 2:
        return fraction_entry(rng)
    return rational_entry(rng)


def assert_rank_and_rref_equal_dense(dense):
    """rank and rref of the sparse form of the dense rows ``dense`` (all
    columns pivot columns) against dense field elimination: the same
    rank, and each pivot row equal to the reference's row of its
    column."""
    ncols = len(dense[0])
    rows = [{j: x for j, x in enumerate(r) if x != 0} for r in dense]
    copies = [dict(r) for r in rows]
    want, want_pivots = dense_rref(dense, ncols)
    assert rank(rows, ncols) == len(want_pivots)
    got, got_pivots = rref(rows, ncols)
    assert rows == copies
    assert [c for _, c in got_pivots] == [c for _, c in want_pivots]
    for (p, _), (q, _) in zip(got_pivots, want_pivots):
        assert [got[p].get(j, 0) for j in range(ncols)] == want[q]


@pytest.mark.parametrize("entry", [mixed_entry, polynomial_entry],
                         ids=["mixed", "polynomial"])
def test_rows_of_polynomials_equal_dense_elimination(entry):
    """Rows that mix Polynomials with ints, Fractions and
    RationalExprs, and rows of Polynomials alone with Fraction
    coefficients and zero entries, rank and reduce as their values do;
    a third of the matrices get a last row that is the sum of the
    others."""
    rng = random.Random(4201 if entry is mixed_entry else 4202)
    for _ in range(40):
        n, m = rng.randint(1, 4), rng.randint(1, 4)
        dense = [[entry(rng) for _ in range(m)] for _ in range(n)]
        if n > 1 and rng.random() < 0.3:
            dense[-1] = [sum((r[j] for r in dense[:-1]), RationalExpr.const(0))
                         for j in range(m)]
        assert_rank_and_rref_equal_dense(dense)


def test_named_polynomial_rows():
    X = CTX.expr("x").num
    half = Polynomial.const(Fraction(1, 2))
    for dense in (
        [[X, 3], [RationalExpr.const(1), X]],  # rank 2 unless x^2 = 3
        [[X, Fraction(3, 2)], [2 * X, CTX.expr("3")]],  # rank 1
        [[X * half, half], [X, Polynomial.const(1)]],  # rank 1
        [[Polynomial(), half]],  # a zero Polynomial is no pivot
    ):
        assert_rank_and_rref_equal_dense(dense)
    assert rank([{0: Polynomial()}], 1) == 0
