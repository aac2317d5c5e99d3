"""Integrating factors, multipliers, the Hessian identity, and the
contact-form closure chain."""
import random
from fractions import Fraction

import pytest

from vessiot.errors import (
    DegenerateHamiltonian,
    NotAMultiplier,
    SingularFrame,
)
from vessiot.jets import DiffForm, JetContext, holonomic_section, wedge
from vessiot.linalg import adjugate, det
from vessiot.mechanics import (
    _jacobian,
    _pullback_divergence,
    hessian_multiplier_identity,
    hj_closure_chain,
    jacobi_multiplier_identity,
    lie_condition_equivalence,
    multiplier_transport,
    separability_conditions,
)
from vessiot.symcore import RationalExpr, eval_point, normalize
from vessiot.systems import (
    SolvedSystem,
    fiber_dimension,
    implicit_equation,
    solved_equation,
    witness_from_section,
)

ONE = RationalExpr.const(1)
ZERO = RationalExpr.const(0)


class TestLieCondition:
    def test_generic(self):
        rep = lie_condition_equivalence()
        assert rep.ok

    def test_flipped_factor_fails(self):
        rep = lie_condition_equivalence(flip_chi=True)
        assert rep.status == "FAIL"
        assert rep.witness is not None and not rep.witness.is_zero()

    def test_divergence_is_scaled_condition(self):
        # oracle: before any substitution, the divergence of (chi, omega
        # chi) equals minus the invariance condition divided by
        # (eta - F xi)^2, so imposing the condition must kill it
        ctx = JetContext(["x", "y"], ["xi", "eta", "F"], max_order=3)
        E = ctx.expr
        xi, eta, F = E("xi"), E("eta"), E("F")
        d = ctx.total_derivative
        cond = (
            d(eta, "x") + F * d(eta, "y") - F * d(xi, "x")
            - F ** 2 * d(xi, "y") - d(F, "x") * xi - d(F, "y") * eta
        )
        W = eta - F * xi
        chi = ONE / W
        divergence = d(chi, "x") - d(-F * chi, "y")
        assert normalize(divergence + cond / W ** 2).is_zero()


class TestJacobiIdentity:
    @pytest.mark.parametrize("n", [2, 3])
    def test_generic(self, n):
        rep = jacobi_multiplier_identity(n)
        assert rep.ok and rep.numbers["n"] == n

    # jacobi_multiplier_identity checks the generic map; a concrete map
    # is checked through multiplier_transport: M = 1 and a unit field
    # theta = e_i transport to the i-th column of d(phi)
    @staticmethod
    def columns_transport(phi):
        ctx = JetContext(["x1", "x2"], [], max_order=3)
        E = ctx.expr
        return all(
            multiplier_transport(ctx, ONE, theta, [E(c) for c in phi]).ok
            for theta in ([ONE, ZERO], [ZERO, ONE]))

    def test_identity_map(self):
        assert self.columns_transport(["x1", "x2"])

    def test_concrete_map(self):
        # a map with a nonconstant determinant
        assert self.columns_transport(["x1^2", "x2 + x1*x2"])


class TestPullbackDivergence:
    """_pullback_divergence factors Delta out of each field's sum; the
    term-by-term loop it replaced is the reference."""

    @staticmethod
    def reference(ctx, adj, delta, fields):
        d = ctx.total_derivative
        n = len(ctx.independents)
        d_delta = [d(delta, x) for x in ctx.independents]
        res = ZERO
        for j in range(n):
            for k in range(n):
                res = res + adj[k][j] * (
                    d(fields[j], ctx.independents[k]) * delta
                    - fields[j] * d_delta[k]
                )
        return normalize(res)

    @pytest.mark.parametrize("n", [2, 3])
    def test_seeded_maps(self, n):
        rng = random.Random(80 + n)
        names = [f"x{i}" for i in range(1, n + 1)]
        ctx = JetContext(names, [], max_order=3)
        E = ctx.expr

        def poly():
            return E(" + ".join(
                f"{rng.choice([-2, -1, 1, 3])}*{rng.choice(names)}"
                f"^{rng.randint(0, 2)}" for _ in range(2)
            ))

        for _ in range(3):
            phi = [E(x) + poly() for x in names]
            J = _jacobian(ctx, phi)
            delta = normalize(det(J))
            if delta.is_zero():
                continue
            adj = adjugate(J)
            fields = [poly() / (poly() + 4) for _ in range(n)]
            got = _pullback_divergence(ctx, adj, delta, fields)
            assert got == self.reference(ctx, adj, delta, fields)
            # the chain-rule identity: the columns of d(phi) give zero
            cols = [J[j][0] for j in range(n)]
            assert _pullback_divergence(ctx, adj, delta, cols).is_zero()


class TestMultiplierTransport:
    @pytest.fixture
    def flow_ctx(self):
        return JetContext(
            ["x1", "x2", "x3"],
            [("F", ("x1", "x2")), "phi1", "phi2", "phi3"],
            max_order=3,
        )

    def test_planar_flow(self, flow_ctx):
        ctx = flow_ctx
        E = ctx.expr
        rep = multiplier_transport(
            ctx, ONE, [ONE, E("x3"), E("F")],
            [E("phi1"), E("phi2"), E("phi3")],
        )
        assert rep.ok

    def test_third_slot_dependence_rejected(self):
        # the same field with F allowed to depend on x3 is no longer
        # divergence free
        ctx = JetContext(["x1", "x2", "x3"], ["F", "phi1", "phi2", "phi3"],
                         max_order=3)
        E = ctx.expr
        with pytest.raises(NotAMultiplier):
            multiplier_transport(
                ctx, ONE, [ONE, E("x3"), E("F")],
                [E("phi1"), E("phi2"), E("phi3")],
            )

    def test_hamiltonian_field(self):
        ctx = JetContext(["t", "x", "p"], ["H", "phi1", "phi2", "phi3"],
                         max_order=3)
        E = ctx.expr
        d = ctx.total_derivative
        H = E("H")
        rep = multiplier_transport(
            ctx, ONE, [ONE, d(H, "p"), -d(H, "x")],
            [E("phi1"), E("phi2"), E("phi3")],
        )
        assert rep.ok

    def test_not_a_multiplier(self):
        ctx = JetContext(["x1", "x2"], ["phi1", "phi2"], max_order=3)
        E = ctx.expr
        with pytest.raises(NotAMultiplier):
            multiplier_transport(
                ctx, ONE, [E("x1"), ZERO], [E("phi1"), E("phi2")]
            )

    def test_concrete_rotation_like_map(self):
        ctx = JetContext(["x1", "x2"], [], max_order=3)
        E = ctx.expr
        rep = multiplier_transport(
            ctx, ONE, [E("x2"), E("0 - x1")],
            [E("x1 + x2"), E("x1 - x2")],
        )
        assert rep.ok

    def test_nonconstant_multiplier(self):
        # theta = (x2/x1, 1) is not divergence free, but M = x1 is a
        # multiplier for it: d_1(x2) + d_2(x1) = 0
        ctx = JetContext(["x1", "x2"], ["phi1", "phi2"], max_order=3)
        E = ctx.expr
        rep = multiplier_transport(
            ctx, E("x1"), [E("x2/x1"), ONE],
            [E("phi1"), E("phi2")],
        )
        assert rep.ok

    def test_singular_change(self):
        ctx = JetContext(["x1", "x2"], ["phi1", "phi2"], max_order=3)
        E = ctx.expr
        with pytest.raises(SingularFrame):
            multiplier_transport(
                ctx, ONE, [E("x2"), E("0 - x1")], [E("phi1"), E("phi1")]
            )


class TestHessianIdentity:
    def test_generic(self):
        assert hessian_multiplier_identity().ok


class TestClosureChain:
    def test_generic_coefficient(self):
        ctx = JetContext(["t", "x", "z", "p"], ["H"], max_order=3)
        rep, art = hj_closure_chain(ctx, ctx.expr("H"))
        assert rep.ok
        hz = ctx.expr("H[z]")
        assert normalize(art["coefficient"] - 2 * hz).is_zero()

    def test_three_form_expansion(self):
        # oracle: the wedge-square step expanded term by term
        ctx = JetContext(["t", "x", "z", "p"], ["H"], max_order=3)
        H = ctx.expr("H")
        rep, art = hj_closure_chain(ctx, H)
        coords = [ctx.var(n) for n in ("t", "x", "z", "p")]
        one = {n: DiffForm.d_coord(ctx, coords, n) for n in ("t", "x", "z", "p")}
        from vessiot.jets import exterior_derivative

        dH = exterior_derivative(DiffForm.function(ctx, coords, H))
        p = ctx.expr("p")
        expected = (
            wedge(one["z"], wedge(one["x"], one["p"]))
            + wedge(one["z"], wedge(dH, one["t"]))
            - wedge(one["x"], wedge(dH, one["t"])).scale(p)
            + wedge(one["t"], wedge(one["x"], one["p"])).scale(H)
        )
        assert (art["three_form"] - expected).is_zero()

    def test_z_free_hamiltonian(self):
        ctx = JetContext(["t", "x", "z", "p"], [("H", ("t", "x", "p"))],
                         max_order=3)
        rep, art = hj_closure_chain(ctx, ctx.expr("H"))
        assert rep.ok and art["coefficient"].is_zero()

    def test_linear_in_z(self):
        ctx = JetContext(["t", "x", "z", "p"], [], max_order=3)
        rep, art = hj_closure_chain(ctx, ctx.expr("z"))
        assert rep.ok
        assert normalize(art["coefficient"] - 2).is_zero()

    def test_concrete(self):
        ctx = JetContext(["t", "x", "z", "p"], [], max_order=3)
        rep, art = hj_closure_chain(ctx, ctx.expr("p^2/2 + z*x"))
        assert rep.ok
        assert normalize(art["coefficient"] - ctx.expr("2*x")).is_zero()

    def test_two_form_is_closure_of_contact(self):
        ctx = JetContext(["t", "x", "z", "p"], ["H"], max_order=3)
        _, art = hj_closure_chain(ctx, ctx.expr("H"))
        two = art["two_form"]
        assert two.grade == 2
        # coefficient of dx^dp is 1, of dt^dx is -H_x ... spot checks
        names = ("t", "x", "z", "p")
        pos = {n: i for i, n in enumerate(names)}
        assert normalize(two.coefficient((pos["x"], pos["p"])) - 1).is_zero()
        hx = ctx.expr("H[x]")
        assert normalize(
            two.coefficient((pos["t"], pos["x"])) + hx
        ).is_zero()


class TestSeparability:
    @pytest.fixture
    def ctx(self):
        return JetContext(["t", "x", "z", "p"], [("V", ("x",))], max_order=3)

    def test_potential(self, ctx):
        assert separability_conditions(ctx, ctx.expr("p^2/2 + V")).ok

    def test_free(self, ctx):
        assert separability_conditions(ctx, ctx.expr("p")).ok

    def test_product(self, ctx):
        # H = t*x*p: the mixed quotient is p/x, time independent, and H
        # has no z dependence, so both conditions vanish
        assert separability_conditions(ctx, ctx.expr("t*x*p")).ok

    def test_failure_witness(self, ctx):
        rep = separability_conditions(ctx, ctx.expr("x*p + t*x^2"))
        assert rep.status == "FAIL"
        assert normalize(rep.witness - 2).is_zero()

    def test_z_dependence_fails(self, ctx):
        rep = separability_conditions(ctx, ctx.expr("p + z"))
        assert rep.status == "FAIL"
        assert normalize(rep.witness - 1).is_zero()

    def test_degenerate(self, ctx):
        with pytest.raises(DegenerateHamiltonian):
            separability_conditions(ctx, ctx.expr("x"))

    def test_no_z_coordinate(self):
        ctx = JetContext(["t", "x", "p"], [("V", ("x",))], max_order=3)
        assert separability_conditions(ctx, ctx.expr("p^2/2 + V")).ok


class TestPlanarFlowSystem:
    """The two-unknown linear system carried by the planar flow
    (1, x3, F) and its fiber-dimension count."""

    @pytest.fixture
    def ctx(self):
        return JetContext(["x1", "x2", "x3"], ["y1", "y2"], max_order=2)

    def _system(self, ctx, implicit=False):
        E = ctx.expr
        F = E("x1")
        eqs = []
        for dep in ("y1", "y2"):
            lead = ctx.jet(dep, (1, 0, 0))
            rhs = -E("x3") * E(f"{dep}[x2]") - F * E(f"{dep}[x3]")
            if implicit:
                eqs.append(
                    implicit_equation(
                        RationalExpr.var(lead) - rhs, leading=lead
                    )
                )
            else:
                eqs.append(solved_equation(lead, rhs))
        gen = E("y1[x2]*y2[x3] - y1[x3]*y2[x2]")
        return SolvedSystem(ctx, 1, eqs, genericity=(gen,))

    @pytest.fixture
    def section(self, ctx):
        return holonomic_section(
            ctx,
            {
                "y1": ctx.expr("x3 - x1^2/2"),
                "y2": ctx.expr("x2 + x1^3/3 - x1*x3"),
            },
            2,
        )

    def test_section_solves(self, ctx, section):
        from vessiot.symcore import substitute

        S = self._system(ctx)
        for eq in S.equations:
            dep, mu = ctx.jet_info(eq.leading)
            binding = {
                v: section.value(*ctx.jet_info(v))
                for v in eq.rhs.variables() if v.kind == "jet"
            }
            rhs_val = substitute(eq.rhs, binding)
            assert normalize(
                section.value(dep, mu) - rhs_val
            ).is_zero()

    def test_genericity_on_section(self, ctx, section):
        S = self._system(ctx)
        point = {
            ctx.var("x1"): Fraction(1),
            ctx.var("x2"): Fraction(2),
            ctx.var("x3"): Fraction(3),
        }
        w = witness_from_section(section, point)
        val = eval_point(S.genericity[0], w)
        assert val == Fraction(-1)

    def test_fiber_dimension(self, ctx):
        S = self._system(ctx)
        assert fiber_dimension(S) == 6

    def test_fiber_dimension_implicit(self, ctx, section):
        S = self._system(ctx, implicit=True)
        point = {
            ctx.var("x1"): Fraction(1),
            ctx.var("x2"): Fraction(2),
            ctx.var("x3"): Fraction(3),
        }
        w = witness_from_section(section, point)
        assert fiber_dimension(S, w) == 6

    def test_point_transformation_count(self):
        # invertible substitutions of the two unknowns: first-order jet
        # fiber of two functions of two variables
        ctx2 = JetContext(["y1", "y2"], ["g1", "g2"], max_order=1)
        assert ctx2.fiber_jet_count(1) == 6
