"""Surface/curve invariants, compatibility residuals, Frenet quantities,
gauging and structure forms."""
import random
from fractions import Fraction

import pytest

from vessiot.errors import (
    DegenerateCurve,
    DegenerateMetric,
    SingularFrame,
    ZeroCurvatureLocus,
)
from vessiot.geomkit import (
    CurveData,
    curve_invariants,
    codazzi_residual,
    frenet_squares,
    gauging,
    gauss_residual,
    maurer_cartan,
    surface_invariants,
)
from vessiot.jets import JetContext, JetSection, holonomic_section, spencer
from vessiot.linalg import det
from vessiot.symcore import (
    RationalExpr,
    coordinate_partial,
    normalize,
    substitute,
)

ZERO = RationalExpr.const(0)


@pytest.fixture(scope="module")
def saddle():
    ctx = JetContext(["x1", "x2"], ["y1", "y2", "y3"], max_order=2)
    E = ctx.expr
    f = [E("x1"), E("x2"), E("(x1^3 + x2^3)/6")]
    return ctx, f, surface_invariants(ctx, f)


@pytest.fixture(scope="module")
def sphere():
    ctx = JetContext(
        ["x1", "x2"], ["y1", "y2", "y3"], parameters=["R"], max_order=2
    )
    E = ctx.expr
    L2 = E("R^2 + x1^2 + x2^2")
    f = [
        E("2*R^2*x1") / L2,
        E("2*R^2*x2") / L2,
        E("R") * E("R^2 - x1^2 - x2^2") / L2,
    ]
    return ctx, f, surface_invariants(ctx, f)


@pytest.fixture(scope="module")
def plane():
    ctx = JetContext(["x1", "x2"], ["y1", "y2", "y3"], max_order=2)
    E = ctx.expr
    f = [E("x1"), E("x2"), ZERO]
    return ctx, f, surface_invariants(ctx, f)


@pytest.fixture(scope="module")
def catenary_ctx():
    return JetContext(
        ["x"], ["y1", "y2"], max_order=4,
        specials=[("ch", "x", "sh", "ch^2 -> 1 + sh^2"), ("sh", "x", "ch")],
    )


@pytest.fixture(scope="module")
def trig3_ctx():
    return JetContext(
        ["x"], ["y1", "y2", "y3"], parameters=["r", "h"], max_order=4,
        specials=[("cs", "x", "0 - sn", "cs^2 -> 1 - sn^2"),
                  ("sn", "x", "cs")],
    )


class TestSurfaceInvariants:
    def test_saddle(self, saddle):
        ctx, _, S = saddle
        E = ctx.expr
        assert (S.si(1, 1) - E("x1")).is_zero()
        assert (S.si(2, 2) - E("x2")).is_zero()
        assert S.si(1, 2).is_zero()
        assert (S.det_sigma - E("x1*x2")).is_zero()
        assert (S.om(1, 1) - E("1 + x1^4/4")).is_zero()
        assert (S.om(1, 2) - E("x1^2*x2^2/4")).is_zero()
        assert (S.ga(1, 1, 1) - E("x1^3/2")).is_zero()
        assert (S.ga(2, 1, 1) - E("x1*x2^2/2")).is_zero()
        assert S.ga(1, 1, 2).is_zero() and S.ga(2, 1, 2).is_zero()

    def test_sphere(self, sphere):
        ctx, _, S = sphere
        E = ctx.expr
        phi = E("4*R^4") / E("(R^2 + x1^2 + x2^2)^2")
        assert (S.om(1, 1) - phi).is_zero()
        assert (S.om(2, 2) - phi).is_zero()
        assert S.om(1, 2).is_zero()
        assert (S.det_sigma - phi ** 4 / E("R^2")).is_zero()
        assert (S.si(1, 1) + phi ** 2 / E("R")).is_zero()
        assert (S.si(2, 2) + phi ** 2 / E("R")).is_zero()
        assert S.si(1, 2).is_zero()

    def test_sphere_sign_at_origin(self, sphere):
        ctx, _, S = sphere
        at0 = {ctx.var("x1"): ZERO, ctx.var("x2"): ZERO}
        assert (substitute(S.si(1, 1), at0) - ctx.expr("-16/R")).is_zero()

    def test_plane(self, plane):
        _, _, S = plane
        assert all(v.is_zero() for v in S.sigma.values())
        assert all(v.is_zero() for v in S.gamma.values())
        assert (S.om(1, 1) - 1).is_zero()
        assert (S.om(2, 2) - 1).is_zero()
        assert S.om(1, 2).is_zero()

    def test_degenerate_metric(self):
        ctx = JetContext(["x1", "x2"], ["y1", "y2", "y3"], max_order=2)
        E = ctx.expr
        with pytest.raises(DegenerateMetric):
            surface_invariants(ctx, [E("x1"), E("x1"), ZERO])

    def test_metric_derivative_relation(self, saddle, sphere, plane):
        for ctx, _, S in (saddle, sphere, plane):
            for r in (1, 2):
                for i in (1, 2):
                    for j in (1, 2):
                        lhs = ctx.total_derivative(S.om(i, j), r - 1)
                        assert ctx.reduce(
                            lhs - S.ga(i, r, j) - S.ga(j, r, i)
                        ).is_zero()


class TestCompatibility:
    def test_gauss(self, saddle, sphere, plane):
        for _, _, S in (saddle, sphere, plane):
            assert gauss_residual(S).is_zero()

    def test_codazzi(self, saddle, sphere, plane):
        for _, _, S in (saddle, sphere, plane):
            a, b = codazzi_residual(S)
            assert a.is_zero() and b.is_zero()

    def test_saddle_direct_form(self, saddle):
        ctx, _, S = saddle
        d = ctx.total_derivative
        lhs = d(S.si(1, 2), "x2") - d(S.si(2, 2), "x1")
        assert lhs.is_zero()

    def test_sphere_scalar_form(self, sphere):
        ctx, _, S = sphere
        E = ctx.expr
        phi = S.om(1, 1)
        p = ctx.total_derivative
        lhs = phi ** 2 * (p(p(phi, "x1"), "x1") + p(p(phi, "x2"), "x2")) / 2
        rhs = -S.det_sigma + phi * (
            p(phi, "x1") ** 2 + p(phi, "x2") ** 2
        ) / 2
        assert ctx.reduce(normalize(lhs - rhs)).is_zero()


@pytest.fixture(scope="module")
def random_surfaces():
    """Seeded rational surfaces (x1 + m1/3, x2 + m2/2, m3/l) with random
    monomials m1, m2, m3 and a random linear l; their second form has
    sigma_12 != 0 (those with sigma_12 = 0 are passed over), unlike the
    saddle's, the sphere's and the plane's."""
    rng = random.Random(70)
    ctx = JetContext(["x1", "x2"], ["y1", "y2", "y3"], max_order=2)
    E = ctx.expr

    def mono():
        c = rng.choice([-2, -1, 1, 3])
        return E(f"{c}*{rng.choice(['x1', 'x2', 'x1*x2', 'x1^2', 'x2^2'])}")

    def lin():
        c, k = rng.choice([-2, -1, 1, 3]), rng.choice([1, 2, 5])
        return E(f"{c}*{rng.choice(['x1', 'x2'])} + {k}")

    out = []
    while len(out) < 4:
        f = [E("x1") + mono() / 3, E("x2") + mono() / 2, mono() / lin()]
        S = surface_invariants(ctx, f)
        if not S.si(1, 2).is_zero():
            out.append((ctx, f, S))
    return out


class TestRandomSurfaces:
    """surface_invariants takes sigma_ij = N . f_ij with the normal
    N = f_1 x f_2; the 3x3 determinant det(f_1, f_2, f_ij) it replaced
    is the reference, and the compatibility residuals vanish."""

    def test_sigma_is_the_determinant(self, random_surfaces):
        for ctx, f, S in random_surfaces:
            red = ctx.reduce
            p = lambda e, i: ctx.total_derivative(e, i - 1)
            fd = {i: [red(p(c, i)) for c in f] for i in (1, 2)}
            for i, j in ((1, 1), (1, 2), (2, 2)):
                fij = [red(p(c, j)) for c in fd[i]]
                want = det([[fd[1][k], fd[2][k], fij[k]] for k in range(3)])
                assert S.si(i, j) == red(want)
            for form, d in ((S.om, S.det_omega), (S.si, S.det_sigma)):
                assert d == red(form(1, 1) * form(2, 2) - form(1, 2) ** 2)

    def test_gauss(self, random_surfaces):
        for _, _, S in random_surfaces:
            assert gauss_residual(S).is_zero()

    def test_codazzi(self, random_surfaces):
        for _, _, S in random_surfaces:
            a, b = codazzi_residual(S)
            assert a.is_zero() and b.is_zero()


class TestSpecialiseAfterDifferentiating:
    """The invariants of a curve or a surface whose components carry
    unknown functions, with each jet then replaced by that derivative of
    a seeded polynomial, equal the invariants of the explicit object of
    those polynomials: the total derivative differentiates the unknowns."""

    @staticmethod
    def polynomial(ctx, rng):
        return ctx.expr(" + ".join(
            f"{rng.randint(-3, 3)}*"
            + "*".join(rng.choices(ctx.independents, k=rng.randint(1, 4)))
            for _ in range(4)))

    @staticmethod
    def specialise(ctx, polys, order):
        jets = holonomic_section(ctx, polys, order).values
        binding = {ctx.jet(dep, mu): e for (dep, mu), e in jets.items()}
        return lambda e: substitute(e, binding)

    def test_surface(self):
        ctx = JetContext(["x", "y"], ["F"], max_order=2)
        E = ctx.expr
        S = surface_invariants(ctx, [E("x"), E("y"), E("F")])
        rng = random.Random(33)
        for _ in range(3):
            p = self.polynomial(ctx, rng)
            at = self.specialise(ctx, {"F": p}, 2)
            Sp = surface_invariants(ctx, [E("x"), E("y"), p])
            for form in ("omega", "gamma", "sigma"):
                got = {k: at(v) for k, v in getattr(S, form).items()}
                assert got == getattr(Sp, form), form

    @pytest.mark.parametrize("deps", [["F"], ["F", "G"]],
                             ids=["plane", "space"])
    def test_curve(self, deps):
        ctx = JetContext(["x"], deps, max_order=3)
        E = ctx.expr
        C = curve_invariants(ctx, [E("x"), *map(E, deps)])
        rng = random.Random(33)
        for _ in range(3):
            ps = {dep: self.polynomial(ctx, rng) for dep in deps}
            at = self.specialise(ctx, ps, 3)
            Cp = curve_invariants(ctx, [E("x"), *ps.values()])
            for name in ("omega", "gamma", "sigma", "upsilon", "phi", "psi",
                         "rho"):
                if getattr(C, name) is not None:
                    assert at(getattr(C, name)) == getattr(Cp, name), name


class TestCurveInvariants:
    def test_catenary(self, catenary_ctx):
        ctx = catenary_ctx
        E = ctx.expr
        C = curve_invariants(ctx, [E("x"), E("ch")])
        assert (C.omega - E("ch^2")).is_zero() or ctx.reduce(
            C.omega - E("ch^2")
        ).is_zero()
        assert ctx.reduce(C.gamma - E("sh*ch")).is_zero()
        assert ctx.reduce(C.sigma - E("ch")).is_zero()
        assert ctx.reduce(C.upsilon - E("ch^2")).is_zero()
        assert C.identity_report().ok

    def test_straight_line(self, catenary_ctx):
        ctx = catenary_ctx
        C = curve_invariants(ctx, [ctx.expr("x"), ZERO])
        assert (C.omega - 1).is_zero()
        assert C.gamma.is_zero() and C.sigma.is_zero()

    def test_helix(self, trig3_ctx):
        ctx = trig3_ctx
        E = ctx.expr
        C = curve_invariants(ctx, [E("r*cs"), E("r*sn"), E("h*x")])
        assert (C.omega - E("r^2 + h^2")).is_zero()
        assert C.gamma.is_zero()
        assert (C.sigma - E("r^2")).is_zero()
        assert (C.upsilon - E("h*r^2")).is_zero()
        assert C.identity_report().ok

    def test_identity_failure_has_a_witness(self, trig3_ctx):
        E = trig3_ctx.expr
        C = curve_invariants(trig3_ctx, [E("r*cs"), E("r*sn"), E("h*x")])
        rep = CurveData(C.ctx, C.m, C.omega, C.gamma, C.sigma, C.upsilon,
                        C.phi, C.psi + 1, C.rho).identity_report()
        assert rep.status == "FAIL" and rep.witness == 1
        assert rep.detail == "gamma: 0, phi: 0, psi: 1"

    def test_degenerate(self, catenary_ctx):
        with pytest.raises(DegenerateCurve):
            curve_invariants(
                catenary_ctx, [RationalExpr.const(1), RationalExpr.const(2)]
            )


class TestFrenet:
    def test_helix(self, trig3_ctx):
        ctx = trig3_ctx
        E = ctx.expr
        C = curve_invariants(ctx, [E("r*cs"), E("r*sn"), E("h*x")])
        k2, tau = frenet_squares(C)
        assert (k2 - E("r^2") / E("(r^2 + h^2)^2")).is_zero()
        assert (tau - E("h") / E("r^2 + h^2")).is_zero()

    def test_circle(self):
        ctx = JetContext(
            ["x"], ["y1", "y2"], max_order=4,
            specials=[("cs", "x", "0 - sn", "cs^2 -> 1 - sn^2"),
                      ("sn", "x", "cs")],
        )
        E = ctx.expr
        C = curve_invariants(ctx, [E("cs"), E("sn")])
        assert (C.omega - 1).is_zero()
        assert C.gamma.is_zero()
        k2, tau = frenet_squares(C)
        # with omega = 1 and gamma = 0 the curvature square equals sigma^2
        assert (k2 - C.sigma ** 2).is_zero()
        assert (k2 - 1).is_zero()
        assert tau is None

    def test_catenary_square(self, catenary_ctx):
        ctx = catenary_ctx
        E = ctx.expr
        C = curve_invariants(ctx, [E("x"), E("ch")])
        k2, _ = frenet_squares(C)
        assert ctx.reduce(k2 - 1 / E("ch^4")).is_zero()

    def test_zero_curvature(self, trig3_ctx):
        ctx = trig3_ctx
        C = curve_invariants(ctx, [ctx.expr("x"), ZERO, ZERO])
        with pytest.raises(ZeroCurvatureLocus):
            frenet_squares(C)


class TestGauging:
    @pytest.fixture
    def catenary_pair(self, catenary_ctx):
        ctx = catenary_ctx
        E = ctx.expr
        f = holonomic_section(ctx, {"y1": E("x"), "y2": E("ch")}, 2)
        fbar = JetSection(ctx, 2, {
            ("y1", (0,)): E("sh"), ("y2", (0,)): RationalExpr.const(1),
            ("y1", (1,)): E("ch"), ("y2", (1,)): ZERO,
            ("y1", (2,)): E("sh"), ("y2", (2,)): RationalExpr.const(1),
        })
        return ctx, f, fbar, gauging(f, fbar)

    def test_catenary_values(self, catenary_pair):
        ctx, _, _, G = catenary_pair
        E = ctx.expr
        ch = E("ch")
        expect_a = [[1 / ch, E("sh") / ch], [-E("sh") / ch, 1 / ch]]
        expect_b = [-E("x") / ch, E("x*sh") / ch]
        for i in range(2):
            assert ctx.reduce(G.B[i] - expect_b[i]).is_zero()
            for j in range(2):
                assert ctx.reduce(G.A[i][j] - expect_a[i][j]).is_zero()

    def test_orthogonality(self, catenary_pair):
        _, _, _, G = catenary_pair
        assert all(
            c.is_zero() for row in G.orthogonal_defect() for c in row
        )
        assert G.det_defect().is_zero()

    def test_identity_pair(self, catenary_pair):
        ctx, f, _, _ = catenary_pair
        G = gauging(f, f)
        for i in range(2):
            assert G.B[i].is_zero()
            for j in range(2):
                assert (G.A[i][j] - (1 if i == j else 0)).is_zero()

    def test_maurer_cartan(self, catenary_pair):
        ctx, _, _, G = catenary_pair
        E = ctx.expr
        P, Q = (form["x"] for form in maurer_cartan(G))
        ch = E("ch")
        expect_p = [[ZERO, 1 / ch], [-1 / ch, ZERO]]
        expect_q = [-1 / ch, E("sh") / ch]
        for i in range(2):
            assert ctx.reduce(Q[i] - expect_q[i]).is_zero()
            for j in range(2):
                assert ctx.reduce(P[i][j] - expect_p[i][j]).is_zero()

    def test_constant_pair_flat_forms(self, catenary_pair):
        ctx, f, _, _ = catenary_pair
        E = ctx.expr
        # a rigid motion of the catenary: reflect and translate
        fbar = holonomic_section(
            ctx, {"y1": -E("x") + 1, "y2": E("ch") + 2}, 2
        )
        G = gauging(f, fbar)
        P, Q = (form["x"] for form in maurer_cartan(G))
        assert all(c.is_zero() for row in P for c in row)
        assert all(c.is_zero() for c in Q)

    def test_spencer_reconstruction(self, catenary_pair):
        ctx, _, fbar, G = catenary_pair
        P, Q = (form["x"] for form in maurer_cartan(G))
        sp = spencer(ctx, fbar)
        for mu in ((0,), (1,)):
            vec = [fbar.value(dep, mu) for dep in ctx.dependents]
            pred = [
                sum((P[i][j] * vec[j] for j in range(2)), start=ZERO)
                for i in range(2)
            ]
            if mu == (0,):
                pred = [a + b for a, b in zip(pred, Q)]
            for i, dep in enumerate(ctx.dependents):
                assert ctx.reduce(
                    normalize(sp[(dep, mu, "x")] - pred[i])
                ).is_zero()

    def test_curve3_frame_constant(self, trig3_ctx):
        """Two rigid-motion-related space curves gauge through a constant
        rotation; the frame determinant is the third-order invariant."""
        ctx = trig3_ctx
        E = ctx.expr
        f = holonomic_section(
            ctx, {"y1": E("r*cs"), "y2": E("r*sn"), "y3": E("h*x")}, 3
        )
        fbar = holonomic_section(
            ctx, {"y1": -E("r*sn"), "y2": E("r*cs"), "y3": E("h*x")}, 3
        )
        G = gauging(f, fbar)
        expect = [[0, -1, 0], [1, 0, 0], [0, 0, 1]]
        for i in range(3):
            assert G.B[i].is_zero()
            for j in range(3):
                assert (G.A[i][j] - expect[i][j]).is_zero()
        P, Q = (form["x"] for form in maurer_cartan(G))
        assert all(c.is_zero() for row in P for c in row)
        assert all(c.is_zero() for c in Q)

    def test_surface_frame(self, sphere):
        ctx, f, _ = sphere
        fsec = holonomic_section(
            ctx, {"y1": f[0], "y2": f[1], "y3": f[2]}, 1
        )
        fbar = holonomic_section(
            ctx, {"y1": -f[1], "y2": f[0], "y3": f[2]}, 1
        )
        G = gauging(fsec, fbar)
        assert all(b.is_zero() for b in G.B)
        assert all(
            c.is_zero() for row in G.orthogonal_defect() for c in row
        )
        P, Q = maurer_cartan(G)
        for x in ("x1", "x2"):
            for i in range(3):
                assert Q[x][i].is_zero()
                for j in range(3):
                    # constant gauging: flat and in particular skew
                    assert ctx.reduce(P[x][i][j] + P[x][j][i]).is_zero()
                    assert P[x][i][j].is_zero()

    def test_singular_frame(self, catenary_ctx):
        ctx = catenary_ctx
        f = holonomic_section(ctx, {"y1": ctx.expr("x"), "y2": ZERO}, 2)
        with pytest.raises(SingularFrame):
            gauging(f, f)


class TestAlgebraicIdentities:
    def test_lagrange_identity(self):
        ctx = JetContext(
            ["x"], ["u"],
            parameters=["a1", "a2", "a3", "b1", "b2", "b3"], max_order=1,
        )
        E = ctx.expr
        a = [E("a1"), E("a2"), E("a3")]
        b = [E("b1"), E("b2"), E("b3")]
        dot = lambda u, v: sum(
            (p * q for p, q in zip(u, v)), start=ZERO
        )
        minors = sum(
            (
                (a[k] * b[l] - a[l] * b[k]) ** 2
                for k in range(3) for l in range(k + 1, 3)
            ),
            start=ZERO,
        )
        assert (dot(a, a) * dot(b, b) - dot(a, b) ** 2 - minors).is_zero()

    def test_curve_quadratic_identity(self):
        """omega*sigma - gamma^2 equals the sum of squared 2x2 minors of
        the first/second derivative rows, in the 6 jet variables."""
        ctx = JetContext(["x"], ["y1", "y2", "y3"], max_order=2)
        E = ctx.expr
        d1 = [E(f"y{k}[x]") for k in (1, 2, 3)]
        d2 = [E(f"y{k}[x,x]") for k in (1, 2, 3)]
        dot = lambda u, v: sum((p * q for p, q in zip(u, v)), start=ZERO)
        rho = dot(d1, d1) * dot(d2, d2) - dot(d1, d2) ** 2
        minors = sum(
            (
                (d1[k] * d2[l] - d1[l] * d2[k]) ** 2
                for k in range(3) for l in range(k + 1, 3)
            ),
            start=ZERO,
        )
        assert (rho - minors).is_zero()

    def test_metric_minor_identity(self):
        """det(omega) equals the sum of squared 2x2 minors of the strict
        first-order jet matrix."""
        ctx = JetContext(["x1", "x2"], ["y1", "y2", "y3"], max_order=1)
        E = ctx.expr
        d1 = [E(f"y{k}[x1]") for k in (1, 2, 3)]
        d2 = [E(f"y{k}[x2]") for k in (1, 2, 3)]
        dot = lambda u, v: sum((p * q for p, q in zip(u, v)), start=ZERO)
        det_om = dot(d1, d1) * dot(d2, d2) - dot(d1, d2) ** 2
        minors = sum(
            (
                (d1[k] * d2[l] - d1[l] * d2[k]) ** 2
                for k in range(3) for l in range(k + 1, 3)
            ),
            start=ZERO,
        )
        assert (det_om - minors).is_zero()

    def test_linearized_rho(self):
        """The second-order linearization of rho factors through those of
        its two second-order constituents."""
        ctx = JetContext(
            ["x"], ["y1", "y2", "y3"],
            parameters=["v1", "v2", "v3"], max_order=2,
        )
        E = ctx.expr
        d1 = [E(f"y{k}[x]") for k in (1, 2, 3)]
        d2 = [E(f"y{k}[x,x]") for k in (1, 2, 3)]
        dot = lambda u, v: sum((p * q for p, q in zip(u, v)), start=ZERO)
        Om, Ga, Si = dot(d1, d1), dot(d1, d2), dot(d2, d2)
        R = Om * Si - Ga ** 2
        vs = [E(f"v{k}") for k in (1, 2, 3)]
        lin = lambda F: sum(
            (
                coordinate_partial(F, ctx.jet_by_dirs(f"y{k}", ["x", "x"]))
                * vs[k - 1]
                for k in (1, 2, 3)
            ),
            start=ZERO,
        )
        assert (lin(R) - Om * lin(Si) + 2 * Ga * lin(Ga)).is_zero()

    def test_sigma_density_weight(self):
        """Under x -> c*x the second form picks up the square of the
        jacobian determinant on top of its S2 transformation."""
        ctx = JetContext(
            ["x1", "x2"], ["y1", "y2", "y3"],
            parameters=["u1", "u2"], max_order=2,
        )
        E = ctx.expr
        f = [E("x1"), E("x2"), E("(x1^3 + x2^3)/6")]
        S = surface_invariants(ctx, f)
        c = Fraction(2, 3)

        def scale(e):
            staged = substitute(e, {
                ctx.var("x1"): E("u1"), ctx.var("x2"): E("u2"),
            })
            return substitute(staged, {
                ctx.var("u1"): E("x1") * c, ctx.var("u2"): E("x2") * c,
            })

        g = [scale(e) for e in f]
        Sg = surface_invariants(ctx, g)
        for i in (1, 2):
            for j in (1, 2):
                if j < i:
                    continue
                assert (Sg.si(i, j) - c ** 4 * scale(S.si(i, j))).is_zero()
                assert (Sg.om(i, j) - c ** 2 * scale(S.om(i, j))).is_zero()
        assert (Sg.det_sigma - c ** 8 * scale(S.det_sigma)).is_zero()
