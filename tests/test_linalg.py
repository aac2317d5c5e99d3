"""Determinant, adjugate and inverse on seeded matrices of sizes 1 to 4,
over Q (int and Fraction entries) and over Q(x, y) (RationalExpr
entries); the constant-multiple rule ``proportion``."""
import random
from fractions import Fraction

import pytest

from vessiot.errors import SingularFrame
from vessiot.jets import JetContext
from vessiot.linalg import adjugate, det, inverse, mat_mul, proportion

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
