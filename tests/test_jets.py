"""Total derivatives, prolongation, Spencer operator, brackets, forms."""
import pytest

from vessiot.errors import OrderOverflow, UnknownVariable
from vessiot.jets import (
    DiffForm,
    JetContext,
    JetSection,
    VectorField,
    bracket,
    exterior_derivative,
    holonomic_section,
    prolong_field,
    spencer,
    wedge,
)
from vessiot.linalg import rank
from vessiot.symcore import RationalExpr


@pytest.fixture
def plane2():
    """n = 2, m = 2 (area/1-form preserving source)."""
    return JetContext(["x1", "x2"], ["y1", "y2"], max_order=3)


@pytest.fixture
def curve2():
    """n = 1, m = 2 (planar curves)."""
    return JetContext(["x"], ["y1", "y2"], max_order=4)


class TestTotalDerivative:
    def test_cross_identity(self, plane2):
        E = plane2.expr
        phi1 = E("y2 * y1[x1]")
        phi2 = E("y2 * y1[x2]")
        lhs = plane2.total_derivative(phi1, "x2") - plane2.total_derivative(
            phi2, "x1"
        )
        assert lhs == E("y1[x1]*y2[x2] - y1[x2]*y2[x1]")

    def test_independent(self, plane2):
        assert plane2.total_derivative(plane2.expr("x1"), "x1") == 1

    def test_wronskian_shift(self, curve2):
        E = curve2.expr
        phi = E("y1[x]*y2[x,x] - y2[x]*y1[x,x]")
        assert curve2.total_derivative(phi, "x") == E(
            "y1[x]*y2[x,x,x] - y2[x]*y1[x,x,x]"
        )

    def test_order_overflow(self, curve2):
        top = curve2.expr("y1[x,x,x,x]")
        with pytest.raises(OrderOverflow):
            curve2.total_derivative(top, "x")

    def test_unknown_direction(self, plane2):
        e = plane2.expr("x1 * y1[x2]")
        # a name that is not an independent, a dependent's name, and an
        # index out of range on either side
        for bad in ("q", "y1", 2, -1):
            with pytest.raises(UnknownVariable):
                plane2.total_derivative(e, bad)
        want = plane2.expr("x1 * y1[x2,x2]")
        assert plane2.total_derivative(e, 1) == want
        assert plane2.total_derivative(e, "x2") == want


class TestShift:
    def test_bumped_jet_or_none(self):
        ctx = JetContext(["x", "y"], ["u", ("v", ["x"])], max_order=2)
        u_x, v = ctx.jet_by_dirs("u", ["x"]), ctx.var("v")
        assert ctx.shift(u_x, 1) is ctx.jet_by_dirs("u", ["x", "y"])
        assert ctx.shift(u_x, 0) is ctx.jet_by_dirs("u", ["x", "x"])
        assert ctx.shift(v, 0) is ctx.jet_by_dirs("v", ["x"])
        # v does not depend on y, on every call
        assert ctx.shift(v, 1) is None and ctx.shift(v, 1) is None

    def test_over_order_shift_keeps_raising(self, curve2):
        top = curve2.jet_by_dirs("y1", ["x"] * 4)
        for _ in range(3):
            with pytest.raises(OrderOverflow):
                curve2.shift(top, 0)
            with pytest.raises(OrderOverflow):
                curve2.total_derivative(RationalExpr.var(top), "x")

    def test_commuting(self, plane2):
        e = plane2.expr("y1[x1] * y2 + x2 * y2[x2]")
        d12 = plane2.total_derivative(plane2.total_derivative(e, "x1"), "x2")
        d21 = plane2.total_derivative(plane2.total_derivative(e, "x2"), "x1")
        assert d12 == d21


class TestProlongField:
    def test_rotation(self, curve2):
        E = curve2.expr
        j = lambda name, dirs: curve2.jet_by_dirs(name, dirs)
        theta3 = VectorField({j("y1", []): -E("y2"), j("y2", []): E("y1")})
        r2 = prolong_field(curve2, theta3, 2)
        assert r2.component(j("y2", ["x"])) == E("y1[x]")
        assert r2.component(j("y1", ["x"])) == -E("y2[x]")
        assert r2.component(j("y2", ["x", "x"])) == E("y1[x,x]")
        assert r2.component(j("y1", ["x", "x"])) == -E("y2[x,x]")

    def test_translation(self, curve2):
        j = lambda name, dirs: curve2.jet_by_dirs(name, dirs)
        t = VectorField({j("y1", []): RationalExpr.const(1)})
        r3 = prolong_field(curve2, t, 3)
        assert r3.components == t.components

    def test_scaling_family_spans_listed_distribution(self, curve2):
        """The lifts of (a(y1), -y2*a'(y1)) for a in {1, y1, y1^2/2} span
        the same rank-3 jet distribution as the listed first-order one."""
        E = curve2.expr
        j = lambda name, dirs: curve2.jet_by_dirs(name, dirs)
        point_fields = [
            VectorField({j("y1", []): RationalExpr.const(1)}),
            VectorField({j("y1", []): E("y1"), j("y2", []): -E("y2")}),
            VectorField({
                j("y1", []): E("y1^2/2"), j("y2", []): -E("y1*y2"),
            }),
        ]
        lifted = [prolong_field(curve2, f, 1) for f in point_fields]
        listed = [
            VectorField({j("y1", []): RationalExpr.const(1)}),
            VectorField({
                j("y2", []): E("y2"),
                j("y1", ["x"]): -E("y1[x]"),
                j("y2", ["x"]): E("y2[x]"),
            }),
            VectorField({j("y2", ["x"]): E("y1[x]")}),
        ]
        coords = sorted(
            {v for f in lifted + listed for v in f.components}
        )
        mat = lambda fs: [{j: f.component(v) for j, v in enumerate(coords)}
                          for f in fs]
        assert rank(mat(lifted), len(coords)) == 3
        assert rank(mat(lifted + listed), len(coords)) == 3

    def test_linear_in_theta(self, curve2):
        E = curve2.expr
        j = lambda name, dirs: curve2.jet_by_dirs(name, dirs)
        a = VectorField({j("y1", []): E("y2")})
        b = VectorField({j("y2", []): E("y1 * y2")})
        lhs = prolong_field(curve2, a + b, 2)
        rhs = prolong_field(curve2, a, 2) + prolong_field(curve2, b, 2)
        assert (lhs - rhs).is_zero()

    def test_bracket_compatibility(self, curve2):
        E = curve2.expr
        j = lambda name, dirs: curve2.jet_by_dirs(name, dirs)
        a = VectorField({j("y1", []): E("y2"), j("y2", []): E("y1")})
        b = VectorField({j("y2", []): E("y1^2")})
        lhs = prolong_field(curve2, bracket(a, b), 2)
        rhs = bracket(prolong_field(curve2, a, 2), prolong_field(curve2, b, 2))
        assert (lhs - rhs).is_zero()


class TestSpencer:
    def test_holonomic(self):
        ctx = JetContext(
            ["x"], ["y1", "y2"], max_order=3,
            specials=[("ch", "x", "sh", "ch^2 -> 1 + sh^2"), ("sh", "x", "ch")],
        )
        f = holonomic_section(
            ctx, {"y1": ctx.expr("x"), "y2": ctx.expr("ch")}, 2
        )
        assert all(v.is_zero() for v in spencer(ctx, f).values())

    def test_nonholonomic_slot(self):
        """First-order section (u(x), F(x, u)): the only nonzero Spencer
        component is u_x - F."""
        ctx = JetContext(["x"], ["w", "u"], max_order=2)
        E = ctx.expr
        f = JetSection(ctx, 1, {
            ("w", (0,)): E("u"),
            ("w", (1,)): E("x * u"),
        })
        out = spencer(ctx, f)
        assert out[("w", (0,), "x")] == E("u[x] - x*u")

    def test_curved_section(self):
        """A section with f_xx replaced by f (not j_2 of anything)."""
        ctx = JetContext(
            ["x"], ["y1", "y2"], max_order=3,
            specials=[("ch", "x", "sh", "ch^2 -> 1 + sh^2"), ("sh", "x", "ch")],
        )
        E = ctx.expr
        fbar = JetSection(ctx, 2, {
            ("y1", (0,)): E("sh"), ("y2", (0,)): RationalExpr.const(1),
            ("y1", (1,)): E("ch"), ("y2", (1,)): RationalExpr.const(0),
            ("y1", (2,)): E("sh"), ("y2", (2,)): RationalExpr.const(1),
        })
        out = spencer(ctx, fbar)
        assert out[("y1", (0,), "x")].is_zero()
        assert out[("y2", (0,), "x")].is_zero()
        assert out[("y1", (1,), "x")].is_zero()
        assert out[("y2", (1,), "x")] == RationalExpr.const(-1)


class TestBracket:
    def test_listed_pair(self, curve2):
        E = curve2.expr
        j = lambda name, dirs: curve2.jet_by_dirs(name, dirs)
        th2 = VectorField({
            j("y2", []): E("y2"),
            j("y1", ["x"]): -E("y1[x]"),
            j("y2", ["x"]): E("y2[x]"),
        })
        th3 = VectorField({j("y2", ["x"]): E("y1[x]")})
        assert (bracket(th2, th3) - th3.scale(RationalExpr.const(-2))).is_zero()

    def test_self(self, curve2):
        E = curve2.expr
        j = lambda name, dirs: curve2.jet_by_dirs(name, dirs)
        t = VectorField({j("y1", []): E("y2 * y1[x]")})
        assert bracket(t, t).is_zero()

    def test_affine_pair(self):
        ctx = JetContext(["x"], ["a1", "a2"], max_order=1)
        E = ctx.expr
        j = lambda name: ctx.jet_by_dirs(name, [])
        th1 = VectorField({j("a1"): E("a1"), j("a2"): E("a2")})
        th2 = VectorField({j("a2"): RationalExpr.const(1)})
        assert (bracket(th1, th2) + th2).is_zero()

    def test_jacobi(self, curve2):
        E = curve2.expr
        j = lambda name, dirs: curve2.jet_by_dirs(name, dirs)
        a = VectorField({j("y1", []): E("y2")})
        b = VectorField({j("y2", []): E("y1 * y2")})
        c = VectorField({j("y1", []): E("y1"), j("y2", []): E("y2")})
        s = (
            bracket(a, bracket(b, c))
            + bracket(b, bracket(c, a))
            + bracket(c, bracket(a, b))
        )
        assert s.is_zero()


class TestForms:
    @pytest.fixture
    def base2(self, plane2):
        coords = (plane2.var("x1"), plane2.var("x2"))
        return plane2, coords

    def test_alpha_beta(self, base2):
        ctx, coords = base2
        alpha = DiffForm.d_coord(ctx, coords, "x1").scale(ctx.expr("x2"))
        beta = wedge(
            DiffForm.d_coord(ctx, coords, "x1"),
            DiffForm.d_coord(ctx, coords, "x2"),
        )
        assert (exterior_derivative(alpha) + beta).is_zero()

    def test_d_squared(self, base2):
        ctx, coords = base2
        phi = DiffForm.d_coord(ctx, coords, "x1").scale(
            ctx.expr("x1^2 * x2 + x2^3")
        )
        assert exterior_derivative(exterior_derivative(phi)).is_zero()

    def test_f_dg(self, base2):
        ctx, coords = base2
        f, g = ctx.expr("x1 * x2"), ctx.expr("x1 + x2^2")
        df = exterior_derivative(DiffForm.function(ctx, coords, f))
        dg = exterior_derivative(DiffForm.function(ctx, coords, g))
        fdg = dg.scale(f)
        assert (exterior_derivative(fdg) - wedge(df, dg)).is_zero()

    def test_wedge_square_zero(self, base2):
        ctx, coords = base2
        dx = DiffForm.d_coord(ctx, coords, "x1")
        assert wedge(dx, dx).is_zero()

    def test_graded_commutative(self, base2):
        ctx, coords = base2
        a = DiffForm.d_coord(ctx, coords, "x1").scale(ctx.expr("x2"))
        b = DiffForm.d_coord(ctx, coords, "x2").scale(ctx.expr("x1^2"))
        assert (wedge(a, b) + wedge(b, a)).is_zero()

    def test_leibniz(self, base2):
        ctx, coords = base2
        a = DiffForm.d_coord(ctx, coords, "x1").scale(ctx.expr("x2^2"))
        g = DiffForm.function(ctx, coords, ctx.expr("x1 * x2"))
        lhs = exterior_derivative(wedge(g, a))
        rhs = wedge(exterior_derivative(g), a) + wedge(
            g, exterior_derivative(a)
        )
        assert (lhs - rhs).is_zero()
