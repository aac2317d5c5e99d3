"""Canonical arithmetic: normal forms, substitution, partials, rewrite
reduction and exact evaluation."""
import copy
import gc
import json
import math
import os
import pickle
import random
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest

from vessiot import symcore
from vessiot.errors import (
    CyclicBinding,
    DenominatorVanishes,
    DivisionByZero,
    InexactSubresultant,
    UnboundVariable,
    VessiotError,
)
from vessiot.jets import JetContext
from vessiot.symcore import (
    UNIT,
    Polynomial,
    RationalExpr,
    VariableId,
    coordinate_partial,
    eval_point,
    linearize,
    mono_div,
    mono_gcd,
    mono_key,
    mono_make,
    mono_mul,
    poly_cofactors,
    poly_partials,
    poly_divexact,
    poly_gcd,
    normalize,
    over_one_denominator,
    substitute,
    sum_of_products,
)

SRC = Path(__file__).resolve().parents[1] / "src"


@pytest.fixture
def surf():
    """Two independents, three dependents (a parametrized surface)."""
    return JetContext(["x1", "x2"], ["y1", "y2", "y3"], max_order=3)


@pytest.fixture
def hyp():
    """One independent with hyperbolic symbols ch, sh."""
    return JetContext(
        ["x"], ["y1", "y2"], max_order=3,
        specials=[("ch", "x", "sh", "ch^2 -> 1 + sh^2"), ("sh", "x", "ch")],
    )


def saddle_first_form(ctx):
    """First fundamental form of y3 = ((x1)^3 + (x2)^3)/6 over the plane."""
    E = ctx.expr
    y = [E("x1"), E("x2"), (E("x1") ** 3 + E("x2") ** 3) / 6]
    d = {}
    for i, xi in enumerate(["x1", "x2"], start=1):
        for j, xj in enumerate(["x1", "x2"], start=1):
            if j < i:
                continue
            d[(i, j)] = sum(
                (ctx.total_derivative(c, xi) * ctx.total_derivative(c, xj)
                 for c in y),
                start=RationalExpr.const(0),
            )
    return d


class TestNormalize:
    def test_expansion(self, surf):
        x = surf.expr("x1")
        assert (x + 1) * (x - 1) - x**2 == RationalExpr.const(-1)

    def test_cancellation(self, surf):
        e = surf.expr("y2[] * y1[x1] / y2[]")
        assert e == surf.expr("y1[x1]")
        assert e.den.is_constant() and e.den.constant_value() == 1

    def test_surface_det_first_form(self, surf):
        w = saddle_first_form(surf)
        det = w[(1, 1)] * w[(2, 2)] - w[(1, 2)] ** 2
        assert det == surf.expr("1 + x1^4/4 + x2^4/4")

    def test_idempotent_and_distributive(self, surf):
        a, b, c = surf.expr("x1"), surf.expr("y1"), surf.expr("y2[x1]")
        assert normalize(a * (b + c)) == normalize(a * b + a * c)
        e = (a + b) / (c + 1)
        assert normalize(e) == e

    def test_division_by_zero(self, surf):
        with pytest.raises(DivisionByZero):
            surf.expr("x1") / (surf.expr("x1") - surf.expr("x1"))

    @pytest.mark.parametrize("value, name", [(1.5, "float"), ("x", "str")])
    def test_non_expression_is_a_type_error(self, value, name):
        match = f"not an expression: {name}"
        with pytest.raises(TypeError, match=match):
            normalize(value)
        with pytest.raises(TypeError, match=match):
            eval_point(value, {})
        with pytest.raises(TypeError, match=match):
            substitute(value, {})

    @pytest.mark.parametrize("value", [None, 1.5, "x"])
    def test_reflected_operators_refuse_non_expressions(self, surf, value):
        e = surf.expr("x1")
        with pytest.raises(TypeError, match="unsupported operand"):
            value - e
        with pytest.raises(TypeError, match="unsupported operand"):
            value / e


class TestSubstitute:
    @pytest.fixture
    def pair(self):
        return JetContext(["x"], ["y1", "y2", "yb1", "yb2"], max_order=2)

    def test_identification(self, pair):
        e = pair.expr("yb1[x] / y1[x]")
        b = {pair.jet_by_dirs("yb1", ["x"]): pair.expr("y2 * y1[x] / yb2")}
        assert substitute(e, b) == pair.expr("y2 / yb2")

    def test_identity_binding(self, pair):
        e = pair.expr("y1[x] + y2")
        v = pair.jet_by_dirs("y1", ["x"])
        assert substitute(e, {v: RationalExpr.var(v)}) == e

    def test_to_zero(self, pair):
        e = pair.expr("x^2")
        assert substitute(e, {pair.var("x"): RationalExpr.const(0)}).is_zero()

    def test_cyclic(self, pair):
        u, w = pair.var("x"), pair.jet_by_dirs("y1", [])
        with pytest.raises(CyclicBinding, match="^x -> y1 -> x$"):
            substitute(
                pair.expr("x + y1"),
                {u: RationalExpr.var(w), w: RationalExpr.var(u) + 1},
            )

    def test_three_cycle_names_its_path(self, pair):
        x, y1, y2, yb1 = (pair.var(n) for n in ("x", "y1", "y2", "yb1"))
        bindings = {
            yb1: pair.expr("y1"),  # a branch that leads into the cycle
            y1: pair.expr("y2 + 1"),
            y2: pair.expr("2*x"),
            x: pair.expr("y1 / yb2"),
        }
        with pytest.raises(CyclicBinding, match="^yb1 -> y1 -> y2 -> x -> y1$"):
            substitute(pair.expr("x + yb1"), bindings)

    def test_acyclic_check_leaves_no_cyclic_garbage(self, pair):
        x, y1, y2 = (pair.var(n) for n in ("x", "y1", "y2"))
        bindings = {x: pair.expr("y1 + 1"), y1: pair.expr("y2^2")}
        e = pair.expr("x * y1 + y2")
        gc.collect()
        gc.disable()
        try:
            for _ in range(5):
                substitute(e, bindings)
            assert gc.collect() == 0
        finally:
            gc.enable()

    def test_vanishing_denominator(self, pair):
        with pytest.raises(DivisionByZero):
            substitute(
                pair.expr("1 / y2"), {pair.var("y2"): RationalExpr.const(0)}
            )


class TestPartial:
    def test_special_chain_rule(self, hyp):
        e = hyp.expr("ch^2")
        assert hyp.total_derivative(e, "x") == hyp.expr("2 * ch * sh")

    def test_jet_coordinate(self, surf):
        e = surf.expr("y2 * y1[x1]")
        w = surf.jet_by_dirs("y1", ["x1"])
        assert coordinate_partial(e, w) == surf.expr("y2")

    def test_first_form_entry(self, surf):
        w = saddle_first_form(surf)
        x1 = surf.var("x1")
        assert coordinate_partial(w[(1, 1)], x1) == surf.expr("x1^3")

    def test_commutes(self, surf):
        e = surf.expr("(x1^2 * y1 + y2[x1,x2]) / (x2 + 1)")
        u, v = surf.var("x1"), surf.var("x2")
        p = coordinate_partial
        assert p(p(e, u), v) == p(p(e, v), u)


class TestReduce:
    def test_pythagorean(self, hyp):
        assert hyp.reduce(hyp.expr("ch^2 - sh^2")) == RationalExpr.const(1)

    def test_fourth_power(self, hyp):
        assert hyp.reduce(hyp.expr("ch^4")) == hyp.expr("(1 + sh^2)^2")

    def test_frame_entry(self, hyp):
        e = hyp.expr("(ch*ch - sh*sh) / ch")  # orthonormal-frame entry
        assert hyp.reduce(e) == hyp.expr("1 / ch")

    def test_no_rewrite_returns_the_expression(self, hyp, monkeypatch):
        # no monomial of either part carries ch^2: no rule fires, and
        # the expression comes back as it is, with no gcd taken
        e = hyp.expr("(ch*sh + y1 + ch) / (sh^3 + 1)")
        hyp.rules  # parses the rewrite rules first
        calls = []
        cofactors0 = symcore.poly_cofactors

        def counted(a, b):
            calls.append((a, b))
            return cofactors0(a, b)

        monkeypatch.setattr(symcore, "poly_cofactors", counted)
        assert hyp.reduce(e) is e
        assert calls == []

    def test_value_preserved(self, hyp):
        # at a point with c^2 - s^2 = 1, reduction must preserve values
        e = hyp.expr("ch^4 - 2*ch^2*sh^2")
        r = hyp.reduce(e)
        pt = {hyp.var("ch"): Fraction(5, 4), hyp.var("sh"): Fraction(3, 4)}
        assert eval_point(e, pt) == eval_point(r, pt)


class TestEvalPoint:
    def test_simple(self, surf):
        x = surf.var("x1")
        e = surf.expr("(x1^2 + 1) / x1")
        assert eval_point(e, {x: 2}) == Fraction(5, 2)

    def test_det_at_ones(self, surf):
        w = saddle_first_form(surf)
        det = w[(1, 1)] * w[(2, 2)] - w[(1, 2)] ** 2
        pt = {surf.var("x1"): 1, surf.var("x2"): 1}
        assert eval_point(det, pt) == Fraction(3, 2)

    def test_pole(self, surf):
        with pytest.raises(DenominatorVanishes):
            eval_point(surf.expr("1/x1"), {surf.var("x1"): 0})

    @pytest.mark.parametrize("text", ["x1 + x2", "1/(x1 + x2)"])
    def test_unbound_variable(self, surf, text):
        with pytest.raises(UnboundVariable, match="no value for x2"):
            eval_point(surf.expr(text), {surf.var("x1"): 1})

    def test_homomorphism(self, surf):
        a = surf.expr("x1 + y1")
        b = surf.expr("x1 * y2[x1]")
        c = surf.expr("y3")
        pt = {
            surf.var("x1"): 2, surf.jet_by_dirs("y1", []): 3,
            surf.jet_by_dirs("y2", ["x1"]): 5, surf.jet_by_dirs("y3", []): 7,
        }
        assert eval_point(a * b + c, pt) == (
            eval_point(a, pt) * eval_point(b, pt) + eval_point(c, pt)
        )


class TestIsZero:
    def test_binomial(self, surf):
        a, b = surf.expr("x1"), surf.expr("y1")
        assert ((a + b) ** 2 - a**2 - 2 * a * b - b**2).is_zero()

    def test_nonzero(self, surf):
        assert not surf.expr("y1[x1]").is_zero()

    def test_lagrange_identity(self):
        ctx = JetContext(["x"], ["y1", "y2"], max_order=2)
        E = ctx.expr
        om = E("y1[x]^2 + y2[x]^2")
        ga = E("y1[x]*y1[x,x] + y2[x]*y2[x,x]")
        si = E("y1[x]*y2[x,x] - y2[x]*y1[x,x]")
        up = E("y1[x,x]^2 + y2[x,x]^2")
        assert (om * up - ga**2 - si**2).is_zero()


class TestHenrici:
    """The field operators cancel by Henrici's scheme; the constructor's
    full gcd of the multiplied-out pair is the reference."""

    CASES = 10

    @pytest.fixture
    def xyz(self):
        ctx = JetContext(["x", "y", "z"], ["u"], max_order=1)
        return [ctx.var(n) for n in ("x", "y", "z")]

    @staticmethod
    def poly(rng, xyz):
        """A random linear polynomial with a nonzero constant term and
        at least one variable."""
        out = {(): Fraction(rng.choice([-3, -2, -1, 1, 2, 3]), rng.randint(1, 3))}
        for v in rng.sample(xyz, rng.randint(1, 2)):
            out[((v, 1),)] = Fraction(rng.choice([-4, -3, -2, -1, 1, 2, 3, 4]))
        return Polynomial(out)

    @staticmethod
    def check_all(a, b):
        full = RationalExpr
        assert a + b == full(a.num * b.den + b.num * a.den, a.den * b.den)
        assert a - b == full(a.num * b.den - b.num * a.den, a.den * b.den)
        assert a * b == full(a.num * b.num, a.den * b.den)
        assert a / b == full(a.num * b.den, a.den * b.num)

    def test_planted_common_denominator_factor(self, xyz):
        rng = random.Random(20)
        for _ in range(self.CASES):
            f = self.poly(rng, xyz)
            a = RationalExpr(self.poly(rng, xyz), f * self.poly(rng, xyz))
            b = RationalExpr(self.poly(rng, xyz), f * self.poly(rng, xyz))
            assert not poly_gcd(a.den, b.den).is_constant()
            self.check_all(a, b)

    def test_sum_numerator_shares_factor_with_gcd(self, xyz):
        # a = (b1*w + f*v1) / (f*b1) and b = (f*v2 - b2*w) / (f*b2) have
        # g = f, and t = b2*(b1*w + f*v1) + b1*(f*v2 - b2*w) is divisible by f
        rng = random.Random(21)
        for _ in range(self.CASES):
            f, b1, b2, w, v1, v2 = (self.poly(rng, xyz) for _ in range(6))
            a = RationalExpr(b1 * w + f * v1, f * b1)
            b = RationalExpr(f * v2 - b2 * w, f * b2)
            g = poly_gcd(a.den, b.den)
            t = a.num * poly_divexact(b.den, g) + b.num * poly_divexact(a.den, g)
            assert not poly_gcd(t, g).is_constant()
            self.check_all(a, b)

    def test_sum_cancels_to_zero(self, xyz):
        rng = random.Random(22)
        for _ in range(self.CASES):
            f = self.poly(rng, xyz)
            a = RationalExpr(self.poly(rng, xyz), f * self.poly(rng, xyz))
            b = RationalExpr(self.poly(rng, xyz), f * self.poly(rng, xyz))
            s = RationalExpr(a.num * b.den + b.num * a.den, a.den * b.den)
            for zero in (a + b - s, a - a, (a + b) - b - a, -s + a + b):
                assert zero == RationalExpr.const(0)
                assert zero.den == Polynomial.const(1)

    def test_divisor_with_negative_leading_coefficient(self, xyz):
        rng = random.Random(23)
        for _ in range(self.CASES):
            a = RationalExpr(self.poly(rng, xyz), self.poly(rng, xyz))
            b = RationalExpr(self.poly(rng, xyz), self.poly(rng, xyz))
            if b.num.leading_coefficient() > 0:
                b = -b
            assert (a / b).den.leading_coefficient() > 0
            assert b**-1 == RationalExpr(b.den, b.num)
            self.check_all(a, b)

    def test_constant_denominators(self, xyz):
        X, Y = (Polynomial.var(v) for v in xyz[:2])
        x, y = RationalExpr(X), RationalExpr(Y)
        assert x / 2 + y / 3 == RationalExpr(X * 3 + Y * 2, 6)
        assert (x / 2 + y / 3).den == Polynomial.const(6)
        assert (x / 2) * (y / 3) == RationalExpr(X * Y, 6)
        assert (x / 2) / (y / -4) == RationalExpr(X * -2, Y)
        rng = random.Random(24)
        for _ in range(self.CASES):
            a = RationalExpr(self.poly(rng, xyz), rng.randint(2, 9))
            c = Fraction(rng.randint(1, 9), rng.randint(2, 5))
            self.check_all(a, RationalExpr(self.poly(rng, xyz), c))
            b = RationalExpr(self.poly(rng, xyz), self.poly(rng, xyz))
            self.check_all(a, b)

    @staticmethod
    def check_partial(e, v):
        n, d = e.num, e.den
        dn, dd = ref_poly_partial(n, v), ref_poly_partial(d, v)
        assert coordinate_partial(e, v) == RationalExpr(dn * d - n * dd, d * d)

    def test_partial_repeated_denominator_factor(self, xyz):
        X, Y = (Polynomial.var(v) for v in xyz[:2])
        f = X + Y
        # d/dx 1/(x+y)^2 = -2/(x+y)^3: g = x+y cancels once more
        e = RationalExpr(Polynomial.const(1), f * f)
        assert coordinate_partial(e, xyz[0]) == RationalExpr(
            Polynomial.const(-2), f * f * f
        )
        rng = random.Random(26)
        for _ in range(self.CASES):
            f = self.poly(rng, xyz)
            for den in (f**2 * self.poly(rng, xyz), f**3):
                e = RationalExpr(self.poly(rng, xyz), den)
                for v in xyz:
                    self.check_partial(e, v)

    def test_partial_cancels_to_zero(self, xyz):
        rng = random.Random(27)
        for _ in range(self.CASES):
            # the planted factor f carries z and cancels in the
            # constructor, so the quotient does not depend on z
            f = self.poly(rng, xyz) + Polynomial.var(xyz[2])
            p, q = self.poly(rng, xyz[:2]), self.poly(rng, xyz[:2])
            e = RationalExpr(p * f, q * f)
            assert coordinate_partial(e, xyz[2]) == RationalExpr.const(0)
            self.check_partial(e, xyz[2])
        # (xy + 1)/x = y + 1/x: the y terms of n'd - nd' cancel
        X, Y = (Polynomial.var(v) for v in xyz[:2])
        e = RationalExpr(X * Y + 1, X)
        assert coordinate_partial(e, xyz[1]) == RationalExpr.const(1)
        assert coordinate_partial(e, xyz[0]) == RationalExpr(
            Polynomial.const(-1), X * X
        )

    def test_partial_negative_leading_denominator(self, xyz):
        rng = random.Random(28)
        for _ in range(self.CASES):
            d = self.poly(rng, xyz) * self.poly(rng, xyz)
            if d.leading_coefficient() > 0:
                d = -d
            e = RationalExpr(self.poly(rng, xyz), d)
            for v in xyz:
                out = coordinate_partial(e, v)
                assert out.den.leading_coefficient() > 0
                self.check_partial(e, v)

    def test_linearize_scales_each_partial_by_one_factor(self, xyz):
        X, Y = (Polynomial.var(v) for v in xyz[:2])
        # (xy + 1)/x = y + 1/x: n_x*d - n*d_x = -1 and n_y*d = x^2, the
        # partials times x^2; z is absent
        assert linearize(RationalExpr(X * Y + 1, X), set(xyz)) == {
            xyz[0]: Polynomial.const(-1), xyz[1]: X * X}
        # a denominator free of the variables: n_v alone, times d = 2
        assert linearize(RationalExpr(X * Y, 2), {xyz[1]}) == {xyz[1]: X}
        assert linearize(RationalExpr(X), set()) == {}
        rng = random.Random(29)
        for _ in range(self.CASES):
            f = self.poly(rng, xyz) + Polynomial.var(xyz[2])
            p, q = self.poly(rng, xyz[:2]), self.poly(rng, xyz[:2])
            for e in (
                RationalExpr(p * f, rng.randint(2, 9)),  # constant den
                RationalExpr(p, f * f * q),  # den shares f with its partials
                RationalExpr(p * q, f * self.poly(rng, xyz)),  # distinct
                RationalExpr(p, q),  # z absent
                RationalExpr(p * f, q * f),  # f cancels: d/dz is zero
            ):
                for vs in (set(xyz), {xyz[0]}, {xyz[2]}):
                    row = linearize(e, vs)
                    assert row.keys() == vs & e.variables()
                    d = RationalExpr(e.den)
                    k = d * d if vs & e.den.variables() else d
                    for v in vs:
                        assert RationalExpr(row.get(v, Polynomial())) == (
                            k * coordinate_partial(e, v))

    def test_gcd_with_a_nonzero_constant_is_one(self, xyz):
        rng = random.Random(25)
        for _ in range(self.CASES):
            p = self.poly(rng, xyz) * Polynomial.var(xyz[1])
            c = Polynomial.const(Fraction(rng.randint(1, 9), rng.randint(1, 9)))
            assert poly_gcd(c, p) == Polynomial.const(1)
            assert poly_gcd(p, -c) == Polynomial.const(1)


class TestVariableId:
    @staticmethod
    def declared(ctx):
        return (ctx.var("x1"), ctx.var("x2"),
                ctx.jet_by_dirs("y2", ["x1", "x2"]))

    def test_equal_declarations_are_one_object(self):
        def context():
            return JetContext(["x1", "x2"], ["y1", "y2"], max_order=2)

        one, two = self.declared(context()), self.declared(context())
        assert all(v is w for v, w in zip(one, two))
        assert VariableId(one[2].kind, one[2].name, one[2].key) is one[2]
        # another declaration index is another variable
        swapped = JetContext(["x2", "x1"], ["y1", "y2"], max_order=1)
        assert swapped.var("x1") is not one[0] and swapped.var("x1") != one[0]

    def test_one_expression_per_variable(self):
        def context():
            return JetContext(["x1", "x2"], ["y1", "y2"], max_order=2)

        one, two = self.declared(context()), self.declared(context())
        for v, w in zip(one, two):
            e = RationalExpr.var(v)
            assert e is RationalExpr.var(v) is RationalExpr.var(w)
            assert e == RationalExpr(Polynomial.var(v))
        # the parser's resolver hands out the same expression
        assert context().expr("y2[x1,x2]") is RationalExpr.var(one[2])

    def test_pickle_and_copies_give_the_same_object(self, surf):
        for v in self.declared(surf):
            assert pickle.loads(pickle.dumps(v)) is v
            assert copy.copy(v) is v and copy.deepcopy(v) is v
            assert copy.deepcopy({v: [v]}) == {v: [v]}

    def test_is_immutable(self, surf):
        v = surf.var("x1")
        for attr in ("kind", "name", "key", "_sk", "other"):
            with pytest.raises(AttributeError):
                setattr(v, attr, "z")
            with pytest.raises(AttributeError):
                delattr(v, attr)
        assert (v.kind, v.name, v.key) == ("independent", "x1", (0, 0))

    def test_pickle_round_trip(self, surf):
        v = surf.jet_by_dirs("y1", ["x2"])
        data = pickle.dumps(v)
        # the cached hash follows the interpreter's hash seed, so it must
        # be recomputed on loading, not carried in the pickle
        assert b"_hash" not in data
        w = pickle.loads(data)
        assert w == v and hash(w) == hash(v) and {w: 1}[v] == 1


# ---------------------------------------------------------------------------
# coefficient types: ints in every normal form, Fractions at the edges


def assert_normal_ints(e):
    """Every coefficient of a normal form is a plain int, and den leads
    with a positive one."""
    coeffs = [*e.num.terms.values(), *e.den.terms.values()]
    assert all(type(c) is int for c in coeffs), e
    assert e.den.leading_coefficient() > 0


def complexity(e):
    """The size of an expression: the terms of its numerator and of its
    denominator."""
    return len(e.num.terms) + len(e.den.terms)


def random_poly(rng, xs, terms=2, max_exp=1):
    """Distinct random monomials in xs (exponents up to max_exp) with
    small integer, or sometimes fractional, coefficients."""
    out = {}
    while len(out) < terms:
        mono = tuple((v, e) for v in xs if (e := rng.randint(0, max_exp)))
        c = rng.choice([-3, -2, -1, 1, 2, 3, 5])
        if rng.random() < 0.3:
            c = Fraction(c, rng.randint(2, 4))
        out[mono] = c
    return Polynomial(out)


class TestIntCoefficients:
    @pytest.fixture
    def xyz(self):
        ctx = JetContext(["x", "y", "z"], ["u"], max_order=1)
        return [ctx.var(n) for n in ("x", "y", "z")]

    def test_constructors_store_ints(self, xyz):
        x = xyz[0]
        assert type(Polynomial.const(Fraction(4, 2)).terms[()]) is int
        assert type(Polynomial.var(x).terms[((x, 1),)]) is int
        assert Polynomial.const(Fraction(1, 2)).terms[()] == Fraction(1, 2)
        # a Fraction operand may leave an integral Fraction in a product;
        # the normal form turns it back into an int
        p = Polynomial({((x, 1),): Fraction(1, 2)}) * 4
        assert p.terms[((x, 1),)] == 2
        assert_normal_ints(RationalExpr(p))
        e = RationalExpr(Polynomial.var(x), Fraction(2, 3))
        assert e.num.terms == {((x, 1),): 3} and e.den.terms == {(): 2}
        assert_normal_ints(e)
        for bad in (0.5, 2.0):
            with pytest.raises(TypeError, match="not a rational number"):
                Polynomial.const(bad)
            with pytest.raises(TypeError, match="not a rational number"):
                Polynomial({((x, 1),): bad})

    def test_divexact_never_gives_a_float(self, xyz):
        X, Y = (Polynomial.var(v) for v in xyz[:2])
        even = X * 6 + Y * 4
        q = poly_divexact(even, Polynomial.const(2))
        assert q == X * 3 + Y * 2
        assert all(type(c) is int for c in q.terms.values())
        odd = poly_divexact(X * 3 + 1, Polynomial.const(2))
        assert sorted(odd.terms.values()) == [Fraction(1, 2), Fraction(3, 2)]
        assert all(type(c) is Fraction for c in odd.terms.values())
        q = poly_divexact(X * X * 6 + X * 3, X * 4 + 2)
        assert q == X * Fraction(3, 2)
        assert type(q.terms[((xyz[0], 1),)]) is Fraction
        q = poly_divexact(X * X * 4 - 4, X * 2 + 2)
        assert q == X * 2 - 2
        assert all(type(c) is int for c in q.terms.values())

    def test_constant_value_is_a_fraction(self, xyz):
        X = Polynomial.var(xyz[0])
        assert type(Polynomial.const(3).constant_value()) is Fraction
        assert type(Polynomial().constant_value()) is Fraction
        e = RationalExpr(X * 6, X * 4)
        assert e.constant_value() == Fraction(3, 2)
        assert type(e.constant_value()) is Fraction
        assert type(RationalExpr.const(4).constant_value()) is Fraction

    def test_seeded_walk(self, xyz):
        """+ - * /, coordinate_partial and substitute keep every normal
        form's coefficients ints, constants read as Fractions, and no
        float anywhere."""
        rng = random.Random(40)

        def fresh():
            return RationalExpr(random_poly(rng, xyz), random_poly(rng, xyz))

        pool = [fresh() for _ in range(6)]
        point = {v: Fraction(p) for v, p in zip(xyz, (3, 5, 7))}
        for step in range(120):
            a, b = rng.choice(pool), rng.choice(pool)
            op = step % 6
            if op == 0:
                out = a + b
            elif op == 1:
                out = a - b
            elif op == 2:
                out = a * b
            elif op == 3:
                out = a / b if not b.is_zero() else a
            elif op == 4:
                out = coordinate_partial(a, rng.choice(xyz))
            else:
                v = rng.choice(xyz)
                rest = [w for w in xyz if w != v]
                repl = RationalExpr(random_poly(rng, rest), random_poly(rng, rest))
                try:
                    out = substitute(a, {v: repl})
                except DivisionByZero:
                    continue
            assert_normal_ints(out)
            k = Fraction(rng.randint(-5, 5) or 1, rng.randint(1, 4))
            if not out.is_zero():
                ratio = (out * k) / out
                assert_normal_ints(ratio)
                assert ratio.constant_value() == k
                assert type(ratio.constant_value()) is Fraction
            try:
                value = eval_point(out, point)
            except DenominatorVanishes:
                value = None
            assert value is None or type(value) is Fraction
            if complexity(out) <= 12:
                pool.append(out)
            else:
                pool[rng.randrange(len(pool))] = fresh()


# ---------------------------------------------------------------------------
# monomial kernels against comparison- and dict-based references


def order_key(v):
    """The variable order as declared: each kernel compares ranks
    (VariableId._sk), and the references compare this instead."""
    return v.key, v.name


def ref_mono_make(pairs):
    return tuple(sorted(((v, e) for v, e in pairs if e),
                        key=lambda p: order_key(p[0])))


def ref_mono_cmp(a, b):
    """Graded reverse-lexicographic comparison, -1, 0 or 1: degrees
    first; on ties scan variables ascending in the global order and the
    first exponent difference decides with reversed sign."""
    da, db = sum(e for _, e in a), sum(e for _, e in b)
    if da != db:
        return -1 if da < db else 1
    ia, ib = 0, 0
    while ia < len(a) and ib < len(b):
        (va, ea), (vb, eb) = a[ia], b[ib]
        if va is vb:
            if ea != eb:
                return 1 if ea < eb else -1
            ia += 1
            ib += 1
        else:
            return -1 if order_key(va) < order_key(vb) else 1
    if ia < len(a):
        return -1
    if ib < len(b):
        return 1
    return 0


def ref_mono_mul(a, b):
    d = dict(a)
    for v, e in b:
        d[v] = d.get(v, 0) + e
    return ref_mono_make(d.items())


def ref_mono_div(a, b):
    d = dict(a)
    for v, e in b:
        d[v] = d.get(v, 0) - e
        if d[v] < 0:
            return None
    return ref_mono_make(d.items())


def ref_mono_gcd(a, b):
    db = dict(b)
    return ref_mono_make((v, min(e, db[v])) for v, e in a if v in db)


def ref_poly_partial(p, v):
    """dp/dv, one variable per pass over p's terms: the reference for
    symcore.poly_partials and the quotient rules."""
    t = {}
    for m, c in p.terms.items():
        for i, (w, e) in enumerate(m):
            if w is v:
                if e == 1:
                    m2 = m[:i] + m[i + 1:]
                else:
                    m2 = m[:i] + ((w, e - 1),) + m[i + 1:]
                t[m2] = t.get(m2, 0) + c * e
    return Polynomial(t)


class TestMonomialKernels:
    @pytest.fixture
    def two_contexts(self):
        """The same five variables from two contexts with equal
        declarations: interning makes them the same objects."""
        def variables():
            ctx = JetContext(["x", "y"], ["u"], parameters=["a"], max_order=2)
            return [ctx.var("x"), ctx.var("y"), ctx.var("a"),
                    ctx.jet_by_dirs("u", ["x"]),
                    ctx.jet_by_dirs("u", ["x", "y"])]

        one, two = variables(), variables()
        assert one == two and all(v is w for v, w in zip(one, two))
        return one, two

    @staticmethod
    def monomials(rng, two_contexts, n):
        """The unit monomial and n - 1 random ones, each variable taken
        from either context."""
        out = [UNIT]
        while len(out) < n:
            out.append(mono_make(
                (rng.choice(pair), e) for pair in zip(*two_contexts)
                if (e := rng.choice((0, 0, 1, 2, 3)))
            ))
        return out

    def test_key_orders_as_the_comparison(self, two_contexts):
        rng = random.Random(51)
        monos = self.monomials(rng, two_contexts, 120)
        for _ in range(4000):
            a, b = rng.choice(monos), rng.choice(monos)
            ka, kb = mono_key(a), mono_key(b)
            assert (ka > kb) - (ka < kb) == ref_mono_cmp(a, b), (a, b)

    def test_merges_match_dict_references(self, two_contexts):
        rng = random.Random(52)
        monos = self.monomials(rng, two_contexts, 60)
        for a in monos:
            assert mono_mul(UNIT, a) == mono_mul(a, UNIT) == a
            assert mono_div(a, UNIT) == a and mono_div(a, a) == UNIT
            assert mono_gcd(a, UNIT) == mono_gcd(UNIT, a) == UNIT
            for b in monos:
                ab = mono_mul(a, b)
                assert ab == ref_mono_mul(a, b)
                assert mono_div(a, b) == ref_mono_div(a, b)
                assert mono_div(ab, b) == a
                assert mono_gcd(a, b) == ref_mono_gcd(a, b)

    def test_variable_lookups_across_contexts(self, two_contexts):
        one, two = two_contexts
        rng = random.Random(53)
        monos = self.monomials(rng, two_contexts, 8)
        p = Polynomial({m: rng.randint(1, 9) for m in monos})
        partials = poly_partials(p, set(one))
        for w in two:
            assert p.degree_in(w) == max(dict(m).get(w, 0) for m in monos)
            dp = Polynomial({
                ref_mono_div(m, ((w, 1),)): c * dict(m)[w]
                for m, c in p.terms.items() if w in dict(m)
            })
            assert ref_poly_partial(p, w) == dp
            assert partials.get(w, Polynomial()) == dp

    def test_var_is_canonical(self, two_contexts):
        x = two_contexts[0][0]
        assert Polynomial.var(x, 0) == Polynomial.const(1)
        assert Polynomial.var(x, 0) * Polynomial.var(x) == Polynomial.var(x)
        assert Polynomial.var(x, 2).terms == {((x, 2),): 1}
        with pytest.raises(ValueError):
            Polynomial.var(x, -1)

    def test_divexact(self, two_contexts):
        rng = random.Random(54)
        xs = two_contexts[0][:3] + two_contexts[1][3:]
        for _ in range(60):
            a = random_poly(rng, xs, terms=rng.randint(1, 4), max_exp=2)
            b = random_poly(rng, xs, terms=rng.randint(1, 3), max_exp=2)
            ab = a * b
            q = poly_divexact(ab, b)
            assert q == a and q * b == ab
            if not b.is_constant():
                assert poly_divexact(ab + 1, b) is None
        X, Y = (Polynomial.var(v) for v in xs[:2])
        assert poly_divexact(X * X - Y * Y, X + Y) == X - Y
        assert poly_divexact(X * X + Y * Y, X + Y) is None
        h = Fraction(1, 2)
        assert poly_divexact(X * X * h - Y * h, X * 3 + Y * 2) is None


class TestVariableOrder:
    """Each variable's rank (VariableId._sk) is kept in (key, name)
    order as variables are created; when no rank fits between a new
    variable's neighbours, every variable is ranked afresh in place."""

    @staticmethod
    def assert_ranks_in_order():
        by_rank = sorted(symcore._VARIABLES.values(), key=lambda v: v._sk)
        for a, b in zip(by_rank, by_rank[1:]):
            assert a._sk < b._sk and order_key(a) < order_key(b), (a, b)

    def test_ranks_follow_the_order_as_variables_are_created(self):
        rng = random.Random(61)
        ctx = JetContext(["t", "s"], ["w", "q"], max_order=60)
        pool = [ctx.var("t"), ctx.var("s"), ctx.jet("w", (0, 0)),
                ctx.jet("q", (1, 0)), ctx.jet("w", (1, 1))]
        monos = [UNIT] + [
            ref_mono_make((v, rng.randint(1, 3))
                          for v in rng.sample(pool, rng.randint(1, 3)))
            for _ in range(20)
        ]
        polys = [Polynomial({m: rng.choice((-3, -1, 1, 2, 5))
                             for m in rng.sample(monos, 4)})
                 for _ in range(6)]
        printed = [repr(p) for p in polys]
        ranks = {v: v._sk for v in symcore._VARIABLES.values()}
        # w's jets of rising order each fall right after the one before,
        # in one gap, which halves until it closes; q's jets of order 40
        # in falling mu each fall right before the one before; then w's
        # jets of order 30 in no order
        creations = (
            [("w", (k, 0)) for k in range(2, 60)]
            + [("q", (a, 40 - a)) for a in range(40, -1, -1)]
            + rng.sample([("w", (a, 30 - a)) for a in range(31)], 31)
        )

        def created(v):
            self.assert_ranks_in_order()
            assert all(mono_make(m) == m == ref_mono_make(m) for m in monos)
            assert [repr(p) for p in polys] == printed
            # a monomial and a polynomial that carry the new variable
            pool.append(v)
            m = ref_mono_make(
                (w, rng.randint(1, 2))
                for w in dict.fromkeys([*rng.sample(pool, 3), v]))
            monos.append(m)
            p = Polynomial({m: 1, rng.choice(monos[:-1]): -2})
            polys.append(p)
            printed.append(repr(p))
            for _ in range(30):
                a, b = rng.choice(monos), rng.choice(monos)
                assert mono_mul(a, b) == ref_mono_mul(a, b)
                assert mono_div(a, b) == ref_mono_div(a, b)
                assert mono_gcd(a, b) == ref_mono_gcd(a, b)
                ka, kb = mono_key(a), mono_key(b)
                assert (ka > kb) - (ka < kb) == ref_mono_cmp(a, b), (a, b)

        # independents of one declaration index, so of one key, in
        # falling name order: each goes before the one made before it
        for name in ("order_c", "order_b", "order_a"):
            created(JetContext([name], [], max_order=1).var(name))
        for dep, mu in creations:
            created(ctx.jet(dep, mu))
        # a gap closed, so every variable was ranked afresh
        assert any(v._sk != r for v, r in ranks.items())

    def test_pickle_loads_under_another_creation_order(self):
        """A pickled expression, loaded in an interpreter that created
        its variables in another order, and so gave them other ranks,
        equals, hashes and prints as the one built there."""
        script = (
            "import json, pickle, sys\n"
            "from vessiot.jets import JetContext\n"
            "ctx = JetContext(['x', 'z'], ['u', 'v'], max_order=3)\n"
            "jets = [('u', (1, 0)), ('v', (0, 2)), ('u', (2, 1)),\n"
            "        ('v', (0, 0)), ('u', (0, 1))]\n"
            "if sys.argv[1] == 'load':\n"
            "    jets.reverse()\n"
            "ranks = {v.name: v._sk for v in (ctx.jet(*j) for j in jets)}\n"
            "e = ctx.expr('(u[x]*v[z,z] - 3*x*u[x,x,z]^2 + v)/(x - u[z])')\n"
            "data = pickle.dumps(e).hex()\n"
            "if sys.argv[1] == 'load':\n"
            "    f = pickle.loads(bytes.fromhex(sys.stdin.read()))\n"
            "    assert f == e and (f.num, f.den) == (e.num, e.den)\n"
            "    assert hash(f) == hash(e) and {f: 1}[e] == 1\n"
            "    assert repr(f) == repr(e)\n"
            "print(json.dumps([ranks, data, repr(e)]))\n"
        )
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(
            [str(SRC), os.environ.get("PYTHONPATH", "")]))

        def run(mode, data=""):
            return json.loads(subprocess.run(
                [sys.executable, "-c", script, mode], input=data, env=env,
                capture_output=True, text=True, check=True, timeout=60,
            ).stdout)

        ranks, data, text = run("dump")
        other_ranks, _, other_text = run("load", data)
        assert other_ranks != ranks
        assert other_text == text == (
            "(3*x*u[x,x,z]^2 - u[x]*v[z,z] - v)/(u[z] - x)")


class TestSympyOracle:
    """poly_gcd and the RationalExpr normal form against SymPy, used
    here only as an independent reference."""

    @pytest.fixture
    def sp(self):
        return pytest.importorskip("sympy")

    @pytest.fixture
    def xyz(self):
        ctx = JetContext(["x", "y", "z"], ["u"], max_order=1)
        return [ctx.var(n) for n in ("x", "y", "z")]

    @staticmethod
    def to_sympy(sp, p):
        return sp.Add(*(
            sp.Rational(c.numerator, c.denominator)
            * sp.Mul(*(sp.Symbol(v.name) ** e for v, e in m))
            for m, c in p.terms.items()
        ))

    def test_poly_gcd(self, sp, xyz):
        rng = random.Random(41)
        for _ in range(20):
            f = random_poly(rng, xyz, terms=3, max_exp=2)
            a = random_poly(rng, xyz) * f
            b = random_poly(rng, xyz) * f
            if rng.random() < 0.3:
                b = b * f
            g = poly_gcd(a, b)
            want = sp.gcd(self.to_sympy(sp, a), self.to_sympy(sp, b))
            ratio = sp.cancel(self.to_sympy(sp, g) / want)
            assert ratio.is_Rational and ratio != 0, (g, want)
            assert all(type(c) is int for c in g.terms.values())
            assert g.leading_coefficient() > 0

    def test_poly_gcd_of_split_shapes(self, sp, xyz):
        """An operand p = c*x linear in x with c free of x, against a q
        sharing a factor of c, x, both or neither; a larger operand
        linear in x against a smaller square; Fraction coefficients
        throughout (random_poly draws them). Both argument orders."""
        rng = random.Random(43)
        X = Polynomial.var(xyz[0])

        def poly(terms=2, max_exp=2):
            while True:
                p = random_poly(rng, xyz[1:], terms, max_exp)
                if not p.is_constant():
                    return p

        for _ in range(12):
            x = poly(2, 1) * X + poly()
            c1, c2, f = poly(), poly(2, 1), poly()
            r = random_poly(rng, xyz, 3, 2)
            for a, b in ((c1 * c2 * x, r), (c1 * c2 * x, r * c1),
                         (c1 * c2 * x, r * x), (c1 * c2 * x, r * c1 * x),
                         (x * f * poly(3), f * f), (x * poly(3), f * f)):
                want = sp.gcd(self.to_sympy(sp, a), self.to_sympy(sp, b))
                for g in (poly_gcd(a, b), poly_gcd(b, a)):
                    ratio = sp.cancel(self.to_sympy(sp, g) / want)
                    assert ratio.is_Rational and ratio != 0, (a, b, g, want)
                    assert all(type(c) is int for c in g.terms.values())
                    assert g.leading_coefficient() > 0

    def test_poly_cofactors(self, sp, xyz):
        """(g, a/g, b/g) equals SymPy's cofactors up to one rational
        unit u: g = u*h, a/g = cff/u and b/g = cfg/u."""
        rng = random.Random(44)
        X = Polynomial.var(xyz[0])
        for _ in range(20):
            f = random_poly(rng, xyz, terms=3, max_exp=2)
            x = random_poly(rng, xyz[1:], 2, 1) * X + random_poly(rng, xyz[1:])
            cases = [(random_poly(rng, xyz) * f, random_poly(rng, xyz) * f),
                     (x * random_poly(rng, xyz[1:]) * f, f * x),
                     (x * f, random_poly(rng, xyz, 3, 2))]
            for a, b in cases:
                for p, q in ((a, b), (b, a)):
                    g, pg, qg = poly_cofactors(p, q)
                    h, cff, cfg = sp.cofactors(self.to_sympy(sp, p),
                                               self.to_sympy(sp, q))
                    u = sp.cancel(self.to_sympy(sp, g) / h)
                    assert u.is_Rational and u != 0, (p, q, g, h)
                    assert sp.expand(self.to_sympy(sp, pg) * u - cff) == 0
                    assert sp.expand(self.to_sympy(sp, qg) * u - cfg) == 0

    def test_normal_form(self, sp, xyz):
        rng = random.Random(42)
        for _ in range(20):
            f = random_poly(rng, xyz, terms=2, max_exp=2)
            e = RationalExpr(random_poly(rng, xyz) * f, random_poly(rng, xyz) * f)
            e = e + RationalExpr(random_poly(rng, xyz), random_poly(rng, xyz))
            assert_normal_ints(e)
            num, den = self.to_sympy(sp, e.num), self.to_sympy(sp, e.den)
            p, q = sp.fraction(sp.cancel(num / den))
            assert sp.expand(num * q - p * den) == 0
            scale = sp.cancel(num / p)
            assert scale.is_Rational and scale != 0


class TestOverOneDenominator:
    """over_one_denominator against the canonical constructor: each
    numerator over B gives back its value, and B is the product of the
    distinct denominators, found here by hashing."""

    @pytest.fixture
    def xyz(self):
        ctx = JetContext(["x", "y", "z"], ["u"], max_order=1)
        return [ctx.var(n) for n in ("x", "y", "z")]

    @staticmethod
    def check(values):
        nums, B = over_one_denominator(values)
        dens = {RationalExpr._coerce(x).den for x in values}
        dens.discard(Polynomial.const(1))
        assert B == math.prod(dens, start=Polynomial.const(1))
        assert len(nums) == len(values)
        for num, x in zip(nums, values):
            assert type(num) is Polynomial
            assert all(type(c) is int for c in num.terms.values())
            assert RationalExpr(num, B) == x
        return nums, B

    def test_seeded_values(self, xyz):
        rng = random.Random(29)
        X, Y, Z = (Polynomial.var(v) for v in xyz)
        pool = [X + 1, Y * 2 - 3, X * Y + Z, Polynomial.const(3), X * X]
        for _ in range(60):
            values = []
            for _ in range(rng.randint(0, 6)):
                kind = rng.randrange(5)
                if kind == 0:
                    values.append(rng.randint(-4, 4))
                elif kind == 1:
                    values.append(Fraction(rng.randint(-4, 4),
                                           rng.randint(1, 4)))
                elif kind == 2:  # no denominator
                    values.append(RationalExpr(random_poly(rng, xyz)))
                else:  # shared, repeated and distinct ones from the pool
                    values.append(RationalExpr(random_poly(rng, xyz),
                                               rng.choice(pool)))
            self.check(values)

    def test_named_cases(self, xyz):
        x, y, _ = (RationalExpr.var(v) for v in xyz)
        X, Y = Polynomial.var(xyz[0]), Polynomial.var(xyz[1])
        # no denominator: the numerators as they are, B = 1
        nums, B = self.check([x, y * 2, 5, Fraction(4), 0])
        assert B == 1 and nums == [X, Y * 2, 5, 4, 0]
        assert self.check([]) == ([], Polynomial.const(1))
        # a repeated denominator counts once
        nums, B = self.check([1 / x, y / x, 3 / x])
        assert B == X and nums == [1, Y, 3]
        # distinct ones multiply, and a constant one is one of them
        nums, B = self.check([1 / x, 1 / (x + 1), Fraction(1, 2)])
        assert B == X * (X + 1) * 2
        assert nums == [(X + 1) * 2, X * 2, X * (X + 1)]
        nums, B = self.check([x / 2, Fraction(3, 2), y])
        assert B == 2 and nums == [X, 3, Y * 2]


class TestSumOfProducts:
    """sum_of_products against the left-to-right operator sum of the
    operator products."""

    @pytest.fixture
    def xyz(self):
        ctx = JetContext(["x", "y", "z"], ["u"], max_order=1)
        return [ctx.var(n) for n in ("x", "y", "z")]

    @staticmethod
    def reference(terms):
        out = RationalExpr.const(0)
        for term in terms:
            prod = RationalExpr.const(1)
            for f in term:
                prod = prod * f
            out = out + prod
        return out

    def check(self, terms):
        got = sum_of_products(terms)
        want = self.reference(terms)
        assert got.num == want.num and got.den == want.den, (got, want)
        assert_normal_ints(got)
        return got

    def test_seeded_oracle(self, xyz):
        rng = random.Random(60)
        # a small pool of denominators, so that terms often share one
        dens = [random_poly(rng, xyz, terms=2) for _ in range(3)]
        dens.append(Polynomial.const(1))

        def factor():
            r = rng.random()
            if r < 0.08:
                return rng.choice([0, RationalExpr.const(0)])
            if r < 0.2:
                return rng.choice([-2, -1, 1, 3, Fraction(2, 3), Fraction(-5, 4)])
            return RationalExpr(random_poly(rng, xyz), rng.choice(dens))

        zeros = 0
        for case in range(500):
            terms = [
                tuple(factor() for _ in range(rng.randint(0, 3)))
                for _ in range(rng.randint(0, 5))
            ]
            if case % 5 == 0 and terms:
                # the same products again with the sign flipped, in
                # another order: the sum cancels to exactly zero
                terms += [(-1, *t[::-1]) for t in terms[::-1]]
            if not self.check(terms):
                zeros += 1
        assert zeros >= 100

    def test_seeded_powers_of_shared_bases(self, xyz):
        """Denominators that are powers of one base B: multisets such as
        B^2*B^2, B^4 and B*B^3 differ but multiply out equal, so their
        terms share one group.  A planted pair sums over B^k to B*b,
        which cancels against one factor only after the addition; the
        pair less the same values over B^k alone is a group that sums to
        zero.  One base per sum: a sum over powers of two bases spends
        seconds in the reference's gcds."""
        rng = random.Random(3401)
        X, Y, Z = (Polynomial.var(v) for v in xyz)
        bases = [X * X + Y * Y + 1, X - Z + 2]

        def numerator():
            """A random polynomial with integer coefficients, so that a
            factor's denominator stays the power it is given."""
            return Polynomial({m: Fraction(c).numerator for m, c in
                               random_poly(rng, xyz).terms.items()})

        def over_split(num, B, k):
            """num / B^k as a term of factors over powers of B up to
            B^4, whose exponents sum to k."""
            parts = []
            while k:
                parts.append(rng.randint(1, min(k, 4)))
                k -= parts[-1]
            return (RationalExpr(num, B ** parts[0]),
                    *(RationalExpr(1, B ** e) for e in parts[1:]))

        merged = 0
        for case in range(200):
            B, k = rng.choice(bases), rng.randint(2, 6)
            a, b = numerator(), numerator()
            pair = [over_split(a, B, k), over_split(B * b - a, B, k)]
            if len(pair[0]) != len(pair[1]):
                merged += 1
            assert self.check(pair) == RationalExpr(b, B ** (k - 1))
            opposite = [(-1, RationalExpr(a, B ** k)),
                        (-1, RationalExpr(B * b - a, B ** k))]
            assert self.check([*pair, *opposite]) == 0
            # beside a term over another power of B, in any order
            terms = [*pair, *opposite[case % 2:],
                     (Fraction(2, 3), *over_split(numerator(), B,
                                                  rng.randint(1, 6)))]
            rng.shuffle(terms)
            self.check(terms)
        assert merged >= 80

    def test_edge_cases(self, xyz):
        X, Y = (RationalExpr(Polynomial.var(v)) for v in xyz[:2])
        assert sum_of_products([]) == RationalExpr.const(0)
        assert sum_of_products([()]) == RationalExpr.const(1)
        assert sum_of_products([(0, X), (X, RationalExpr.const(0))]) == 0
        assert sum_of_products([(2, Fraction(1, 4))]).den == Polynomial.const(2)
        # equal denominators group, and the group's numerator cancels
        # against its denominator only after the addition
        a, b = X / (X + Y), Y / (X + Y)
        assert self.check([(a,), (b,)]) == RationalExpr.const(1)
        # unequal denominators, one of them constant
        self.check([(a, Fraction(1, 3)), (X / 2, Y), (-1, b, b)])
        with pytest.raises(TypeError, match="not a factor: float"):
            sum_of_products([(X, 0.5)])


class TestSubresultantGcd:
    """The subresultant remainder sequence divides exactly or raises a
    typed error; there is no silent fallback."""

    def test_degree_drop_above_one(self, monkeypatch):
        # Knuth's example (TAOCP 4.6.1) with y in two coefficients: the
        # remainder sequence in x has degrees 8, 6, 4, 2, 1, so the
        # h = g^delta / h^(delta-1) update runs with delta = 2
        ctx = JetContext(["y", "x"], ["u"], max_order=1)
        E = ctx.expr
        a = E("x^8 + y*x^6 - 3*x^4 - 3*x^3 + 8*x^2 + 2*x - 5")
        b = E("3*x^6 + 5*x^4 - 4*y*x^2 - 9*x + 21")
        g = E("x*y + 2*x - 1")
        seen = []
        div = symcore._subresultant_div

        def spy(num, den, what):
            seen.append((what, den.is_constant()))
            return div(num, den, what)

        monkeypatch.setattr(symcore, "_subresultant_div", spy)
        assert poly_gcd((a * g).num, (b * g).num) == g.num
        assert ("h", False) in seen
        assert poly_gcd(a.num, b.num) == Polynomial.const(1)

    def test_inexact_division_is_a_typed_error(self, surf):
        X = Polynomial.var(surf.var("x1"))
        with pytest.raises(InexactSubresultant, match="remainder division"):
            symcore._subresultant_div(X * X, X + 1, "remainder")
        assert issubclass(InexactSubresultant, VessiotError)
