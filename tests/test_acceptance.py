"""End-to-end acceptance checks.

Every check is exact (integer/rational zero, no tolerances) and each
test stays well under ten seconds; the bundled corpus runs in full at
the end through the command-line entry point.
"""
import json
from fractions import Fraction
from pathlib import Path

import pytest

import test_properties as props
from test_invariants import constancy_residuals, jacobian_rank
from test_systems import (
    embed_targets,
    metric_equations,
    normal_equations,
    tangency_equations,
)
from vessiot import geomkit, mechanics, systems
from vessiot.cli import Options, main, parse_problem, run
from vessiot.errors import (
    ContextMismatch,
    ProblemSyntaxError,
    UnknownReference,
)
from vessiot.invariants import (
    GeneratorSet,
    invariant_count,
    is_invariant,
    jacobi_residuals,
    structure_constants,
)
from vessiot.jets import JetContext, VectorField, holonomic_section
from vessiot.linalg import inverse, mat_mul
from vessiot.symcore import RationalExpr, normalize, substitute

CORPUS = Path(__file__).resolve().parents[1] / "src" / "vessiot" / "corpus"
# problem files kept outside the bundled corpus, so its report stays put
PROBLEMS = Path(__file__).resolve().parent / "problems"
ZERO = RationalExpr.const(0)
ONE = RationalExpr.const(1)


def corpus_problem(name):
    path = CORPUS / name
    return parse_problem(path.read_bytes(), str(path))


@pytest.fixture(scope="module")
def saddle():
    ctx = JetContext(["x1", "x2"], ["y1", "y2", "y3"], max_order=3)
    E = ctx.expr
    return ctx, geomkit.surface_invariants(
        ctx, [E("x1"), E("x2"), E("(x1^3 + x2^3)/6")]
    )


@pytest.fixture(scope="module")
def sphere():
    ctx = JetContext(
        ["x1", "x2"], ["y1", "y2", "y3"], parameters=["R"], max_order=3
    )
    E = ctx.expr
    L2 = "(R^2 + x1^2 + x2^2)"
    return ctx, geomkit.surface_invariants(ctx, [
        E(f"2*R^2*x1/{L2}"),
        E(f"2*R^2*x2/{L2}"),
        E(f"R*(R^2 - x1^2 - x2^2)/{L2}"),
    ])


@pytest.fixture(scope="module")
def shell():
    ctx = JetContext(["x1", "x2"], ["y1", "y2", "y3"], max_order=5)
    E = ctx.expr
    f = [E("x1"), E("x2"), E("(x1^3 + x2^3)/6")]
    om, ga, si = embed_targets(ctx, f)
    sec = holonomic_section(ctx, {"y1": f[0], "y2": f[1], "y3": f[2]}, 5)
    pt = {ctx.var("x1"): Fraction(1), ctx.var("x2"): Fraction(2)}
    d = ctx.total_derivative
    extra_lhs = sum(
        (E(f"y{k}[x1,x1]") * E(f"y{k}[x2,x2]") - E(f"y{k}[x1,x2]") ** 2
         for k in (1, 2, 3)),
        start=ZERO,
    )
    extra_rhs = sum(
        (d(d(c, "x1"), "x1") * d(d(c, "x2"), "x2")
         - d(d(c, "x1"), "x2") ** 2 for c in f),
        start=ZERO,
    )
    A2 = systems.SolvedSystem(
        ctx, 2, metric_equations(ctx, om) + tangency_equations(ctx, ga)
    )
    return {
        "ctx": ctx,
        "witness": systems.witness_from_section(sec, pt),
        "A1": systems.SolvedSystem(ctx, 1, metric_equations(ctx, om)),
        "A2": A2,
        "A2x": systems.SolvedSystem(
            ctx, 2,
            A2.equations + [systems.implicit_equation(extra_lhs, extra_rhs)],
        ),
        "A2c": systems.SolvedSystem(
            ctx, 2,
            metric_equations(ctx, om) + tangency_equations(ctx, ga)
            + normal_equations(ctx, si),
        ),
    }


@pytest.fixture(scope="module")
def rigid():
    ctx = JetContext(["y1", "y2", "y3"], ["w1", "w2", "w3"], max_order=4)
    E = ctx.expr
    eqs = [
        systems.implicit_equation(
            sum((E(f"w{k}[y{i}]") * E(f"w{k}[y{j}]") for k in (1, 2, 3)),
                start=ZERO),
            RationalExpr.const(1 if i == j else 0),
        )
        for i in (1, 2, 3) for j in range(i, 4)
    ]
    sec = holonomic_section(
        ctx, {"w1": E("y1"), "w2": E("y2"), "w3": E("y3")}, 4
    )
    pt = {ctx.var(f"y{i}"): Fraction(i) for i in (1, 2, 3)}
    return {
        "R1": systems.SolvedSystem(ctx, 1, eqs),
        "witness": systems.witness_from_section(sec, pt),
    }


class TestCriterion01SaddleSurface:
    def test_values(self, saddle):
        ctx, S = saddle
        E = ctx.expr
        assert (S.si(1, 1) - E("x1")).is_zero()
        assert (S.si(2, 2) - E("x2")).is_zero()
        assert S.si(1, 2).is_zero()
        assert (S.det_sigma - E("x1*x2")).is_zero()
        assert (S.det_omega - E("1 + x1^4/4 + x2^4/4")).is_zero()


class TestCriterion02Sphere:
    def test_values(self, sphere):
        ctx, S = sphere
        E = ctx.expr
        phi = E("4*R^4/(R^2 + x1^2 + x2^2)^2")
        assert (S.om(1, 1) - phi).is_zero()
        assert (S.om(2, 2) - phi).is_zero()
        assert S.om(1, 2).is_zero()
        assert (S.det_sigma - phi ** 4 / E("R^2")).is_zero()
        assert S.si(1, 2).is_zero()
        assert (S.si(1, 1) + phi ** 2 / E("R")).is_zero()
        assert (S.si(2, 2) + phi ** 2 / E("R")).is_zero()

    def test_origin_value(self, sphere):
        ctx, S = sphere
        origin = {ctx.var("x1"): ZERO, ctx.var("x2"): ZERO}
        at0 = normalize(substitute(S.si(1, 1), origin))
        assert (at0 + ctx.expr("16/R")).is_zero()


class TestCriterion03GaussCodazzi:
    def test_plane(self):
        ctx = JetContext(["x1", "x2"], ["y1", "y2", "y3"], max_order=3)
        E = ctx.expr
        S = geomkit.surface_invariants(ctx, [E("x1"), E("x2"), ZERO])
        self._check(S)

    def test_saddle(self, saddle):
        self._check(saddle[1])

    def test_sphere(self, sphere):
        self._check(sphere[1])

    @staticmethod
    def _check(S):
        assert geomkit.gauss_residual(S).is_zero()
        c1, c2 = geomkit.codazzi_residual(S)
        assert c1.is_zero() and c2.is_zero()


class TestCriterion04ShellSuite:
    def test_second_order_characters(self, shell):
        assert systems.characters(shell["A2"]) == (2, 1)

    def test_third_order_symbol_dimension(self, shell):
        r = systems.cartan_test(shell["A2"])
        assert r.ok
        assert r.numbers["dim_symbol_next"] == 4
        assert r.numbers["bound"] == 4

    def test_projected_characters(self, shell):
        assert systems.characters(shell["A2x"]) == (2, 0)

    def test_compatibility_count(self, shell):
        assert systems.compatibility_count(shell["A2c"]) == 12

    def test_dimension_tower(self, shell):
        w = shell["witness"]
        assert systems.fiber_dimension(shell["A2"], w) == 9
        cur = shell["A2"]
        for r in (0, 1, 2):
            cur = systems.prolong_system(cur, 1)
            assert systems.fiber_dimension(cur, w) == 3 * r + 12

    def test_phs_order_one(self, shell, rigid):
        r = systems.phs_check(
            shell["A1"], rigid["R1"], shell["witness"], rigid["witness"]
        )
        assert r.ok
        assert r.numbers == {"dim_system": 6, "dim_groupoid": 6}

    def test_phs_fails_at_order_two(self, shell, rigid):
        r = systems.phs_check(
            systems.prolong_system(shell["A1"], 1),
            systems.prolong_system(rigid["R1"], 1),
            shell["witness"], rigid["witness"],
        )
        assert r.status == "FAIL"
        assert r.numbers == {"dim_system": 9, "dim_groupoid": 6}


@pytest.fixture(scope="module")
def catenary():
    return JetContext(
        ["x"], ["y1", "y2"], max_order=4,
        specials=[("ch", "x", "sh", "ch^2 -> 1 + sh^2"),
                  ("sh", "x", "ch")],
    )


class TestCriterion05Chain:
    def test_planar_quadratic_identity(self):
        """Omega*Upsilon - Gamma^2 - Sigma^2 vanishes identically in the
        four first/second-derivative jet variables of a planar curve."""
        ctx = JetContext(["x"], ["y1", "y2"], max_order=2)
        E = ctx.expr
        d1 = [E("y1[x]"), E("y2[x]")]
        d2 = [E("y1[x,x]"), E("y2[x,x]")]
        dot = lambda u, v: sum((p * q for p, q in zip(u, v)), start=ZERO)
        omega, upsilon, gamma = dot(d1, d1), dot(d2, d2), dot(d1, d2)
        sigma = d1[0] * d2[1] - d1[1] * d2[0]
        assert (omega * upsilon - gamma ** 2 - sigma ** 2).is_zero()

    def test_catenary_invariants(self, catenary):
        ctx = catenary
        E = ctx.expr
        C = geomkit.curve_invariants(ctx, [E("x"), E("ch")])
        assert ctx.reduce(C.omega - E("ch^2")).is_zero()
        assert ctx.reduce(C.gamma - E("sh*ch")).is_zero()
        assert ctx.reduce(C.sigma - E("ch")).is_zero()
        assert ctx.reduce(C.upsilon - E("ch^2")).is_zero()

    def test_gauging_and_maurer_cartan(self, catenary):
        from vessiot.jets import JetSection

        ctx = catenary
        E = ctx.expr
        f = holonomic_section(ctx, {"y1": E("x"), "y2": E("ch")}, 2)
        fbar = JetSection(ctx, 2, {
            ("y1", (0,)): E("sh"), ("y2", (0,)): ONE,
            ("y1", (1,)): E("ch"), ("y2", (1,)): ZERO,
            ("y1", (2,)): E("sh"), ("y2", (2,)): ONE,
        })
        G = geomkit.gauging(f, fbar)
        A_expected = [[E("1/ch"), E("sh/ch")], [E("0 - sh/ch"), E("1/ch")]]
        B_expected = [E("0 - x/ch"), E("x*sh/ch")]
        for i in range(2):
            assert ctx.reduce(G.B[i] - B_expected[i]).is_zero()
            for j in range(2):
                assert ctx.reduce(G.A[i][j] - A_expected[i][j]).is_zero()
        P, Q = (form["x"] for form in geomkit.maurer_cartan(G))
        P_expected = [[ZERO, E("1/ch")], [E("0 - 1/ch"), ZERO]]
        Q_expected = [E("0 - 1/ch"), E("sh/ch")]
        for i in range(2):
            assert ctx.reduce(Q[i] - Q_expected[i]).is_zero()
            for j in range(2):
                assert ctx.reduce(P[i][j] - P_expected[i][j]).is_zero()
                assert ctx.reduce(P[i][j] + P[j][i]).is_zero()


class TestCriterion06Frenet:
    def test_space_quadratic_identity(self):
        """The squared-minor expansion of Omega*Sigma - Gamma^2 holds in
        the six first/second-derivative jet variables of a space
        curve."""
        ctx = JetContext(["x"], ["y1", "y2", "y3"], max_order=2)
        E = ctx.expr
        d1 = [E(f"y{k}[x]") for k in (1, 2, 3)]
        d2 = [E(f"y{k}[x,x]") for k in (1, 2, 3)]
        dot = lambda u, v: sum((p * q for p, q in zip(u, v)), start=ZERO)
        rho = dot(d1, d1) * dot(d2, d2) - dot(d1, d2) ** 2
        minors = sum(
            ((d1[k] * d2[l] - d1[l] * d2[k]) ** 2
             for k in range(3) for l in range(k + 1, 3)),
            start=ZERO,
        )
        assert (rho - minors).is_zero()

    def test_helix(self):
        ctx = JetContext(
            ["x"], ["y1", "y2", "y3"], parameters=["r", "h"], max_order=4,
            specials=[("cs", "x", "0 - sn", "cs^2 -> 1 - sn^2"),
                      ("sn", "x", "cs")],
        )
        E = ctx.expr
        C = geomkit.curve_invariants(ctx, [E("r*cs"), E("r*sn"), E("h*x")])
        kappa2, tau = geomkit.frenet_squares(C)
        assert ctx.reduce(kappa2 - E("r^2/(r^2 + h^2)^2")).is_zero()
        assert ctx.reduce(tau - E("h/(r^2 + h^2)")).is_zero()


@pytest.fixture(scope="module")
def curve_ctx():
    return JetContext(["x"], ["y1", "y2"], max_order=4)


@pytest.fixture(scope="module")
def listed_fields(curve_ctx):
    ctx = curve_ctx
    E, j = ctx.expr, ctx.jet_by_dirs
    return [
        VectorField({j("y1", []): ONE}),
        VectorField({
            j("y2", []): E("y2"),
            j("y1", ["x"]): -E("y1[x]"),
            j("y2", ["x"]): E("y2[x]"),
        }),
        VectorField({j("y2", ["x"]): E("y1[x]")}),
    ]


class TestCriterion07InvariantVerification:
    def test_curve_invariant_killed_by_each_generator(
        self, curve_ctx, listed_fields
    ):
        phi = curve_ctx.expr("y2 * y1[x]")
        for theta in listed_fields:
            single = GeneratorSet(curve_ctx, [theta], order=1)
            assert is_invariant(phi, single).ok

    def test_area_invariant_killed_by_each_generator(self):
        ctx = JetContext(["x"], ["y1", "y2"], max_order=4)
        E, j = ctx.expr, ctx.jet_by_dirs
        fields = [
            VectorField({j("y1", []): ONE}),
            VectorField({j("y2", []): ONE}),
            VectorField({
                j("y1", ["x"]): E("y1[x]"), j("y1", ["x", "x"]): E("y1[x,x]"),
                j("y2", ["x"]): -E("y2[x]"),
                j("y2", ["x", "x"]): -E("y2[x,x]"),
            }),
            VectorField({
                j("y1", ["x"]): E("y2[x]"), j("y1", ["x", "x"]): E("y2[x,x]"),
            }),
            VectorField({
                j("y2", ["x"]): E("y1[x]"), j("y2", ["x", "x"]): E("y1[x,x]"),
            }),
        ]
        phi = E("y1[x]*y2[x,x] - y2[x]*y1[x,x]")
        for theta in fields:
            single = GeneratorSet(ctx, [theta], order=2)
            assert is_invariant(phi, single).ok

    def test_rigid_counts(self):
        ctx = JetContext(["x1", "x2"], ["y1", "y2", "y3"], max_order=3)
        E, j = ctx.expr, ctx.jet_by_dirs
        fields = [
            VectorField({j("y1", []): ONE}),
            VectorField({j("y2", []): ONE}),
            VectorField({j("y3", []): ONE}),
            VectorField({j("y3", []): E("y2"), j("y2", []): -E("y3")}),
            VectorField({j("y1", []): E("y3"), j("y3", []): -E("y1")}),
            VectorField({j("y2", []): E("y1"), j("y1", []): -E("y2")}),
        ]
        G = GeneratorSet(ctx, fields, order=0)
        assert invariant_count(ctx, G, 1) == 3
        assert invariant_count(ctx, G, 0) == 0


class TestCriterion08StructureConstants:
    def test_listed_table(self, curve_ctx, listed_fields):
        G = GeneratorSet(curve_ctx, listed_fields, order=1)
        table = structure_constants(G)
        for (rho, sigma), coeffs in table.items():
            if (rho, sigma) in ((1, 2), (2, 1)):
                sign = -2 if (rho, sigma) == (1, 2) else 2
                assert coeffs == [0, 0, Fraction(sign)]
            else:
                assert all(c == 0 for c in coeffs)

    def test_jacobi_on_corpus_tables(self):
        for name, obj in (
            ("invariants_curves.json", "listed"),
            ("invariants_rigid3.json", "rigid"),
        ):
            pf = corpus_problem(name)
            from vessiot.cli import _build

            G = _build(pf, obj, "generators")
            table = structure_constants(G)
            assert all(
                s == 0 for s in jacobi_residuals(table, len(G.fields))
            )


@pytest.fixture(scope="module")
def frame_ctx():
    return JetContext(["x"], ["y1", "y2", "yb1", "yb2"], max_order=1)


class TestCriterion09ReciprocalFrameSuite:
    def test_frame_quotients_constant(self, frame_ctx):
        """(delta + delta-bar) kills all four entries of Mbar*M^-1 for
        the four reciprocal pairs of the Wronskian frame."""
        ctx = frame_ctx
        E, j = ctx.expr, ctx.jet_by_dirs
        M = [[E("y1"), E("y1[x]")], [E("y2"), E("y2[x]")]]
        Mb = [[E("yb1"), E("yb1[x]")], [E("yb2"), E("yb2[x]")]]
        A = mat_mul(Mb, inverse(M))
        targets = [A[i][k] for i in range(2) for k in range(2)]
        bar = lambda name: "yb" + name[1]
        delta = [
            VectorField({j("y1", []): E("y1"), j("y2", []): E("y2")}),
            VectorField({j("y1", ["x"]): E("y1"), j("y2", ["x"]): E("y2")}),
            VectorField({j("y1", []): E("y1[x]"), j("y2", []): E("y2[x]")}),
            VectorField({
                j("y1", ["x"]): E("y1[x]"), j("y2", ["x"]): E("y2[x]"),
            }),
        ]
        binds = {}
        for base in ("y1", "y2"):
            binds[j(base, [])] = E(bar(base))
            binds[j(base, ["x"])] = E(bar(base) + "[x]")
        pairs = []
        for d in delta:
            comp = {}
            for v, c in d.components.items():
                name, mu = ctx.jet_info(v)
                comp[j(bar(name), ["x"] * sum(mu))] = substitute(c, binds)
            pairs.append((d, VectorField(comp)))
        residuals = constancy_residuals(ctx, targets, pairs, {})
        assert len(residuals) == 16
        assert all(r.is_zero() for r in residuals)

    def test_identified_quotients(self):
        ctx = JetContext(["x"], ["y1", "y2", "yb1", "yb2"], max_order=1)
        E, j = ctx.expr, ctx.jet_by_dirs
        targets = [
            E("yb1[x] / y1[x]"),
            ZERO,
            E("(yb1[x]*yb2[x] - y1[x]*y2[x]) / (y1[x]*yb1[x])"),
            E("y1[x] / yb1[x]"),
        ]
        d1 = VectorField({
            j("y1", ["x"]): E("y1[x]"), j("y2", ["x"]): E("y2[x]"),
        })
        db1 = VectorField({
            j("yb1", ["x"]): E("yb1[x]"), j("yb2", ["x"]): E("yb2[x]"),
        })
        d2 = VectorField({j("y2", ["x"]): E("y2")})
        db2 = VectorField({j("yb2", ["x"]): E("yb2")})
        ident = {j("yb1", ["x"]): E("y2 * y1[x] / yb2")}
        residuals = constancy_residuals(
            ctx, targets, [(d1, db1), (d2, db2)], ident)
        assert all(r.is_zero() for r in residuals)
        # without the identification the second pair moves the third target
        assert not constancy_residuals(ctx, targets[2:3], [(d2, db2)],
                                       {})[0].is_zero()

    def test_unstable_product(self):
        ctx = JetContext(["x"], ["a1", "a2"], max_order=1)
        E, j = ctx.expr, ctx.jet_by_dirs
        d2 = VectorField({j("a2", []): E("a1")})
        image = d2.apply(E("a1 * a2"))
        assert image == E("a1^2")
        # a rise in the Jacobian rank puts the image outside the field
        assert jacobian_rank([E("a1 * a2")]) == 1
        assert jacobian_rank([E("a1 * a2"), image]) == 2


class TestCriterion10HamiltonJacobi:
    def test_four_form_coefficient(self):
        ctx = JetContext(["t", "x", "z", "p"], ["H"], max_order=3)
        rep, art = mechanics.hj_closure_chain(ctx, ctx.expr("H"))
        assert rep.ok
        assert (
            normalize(art["coefficient"])
            - 2 * ctx.expr("H[z]")
        ).is_zero()

    @pytest.mark.parametrize("name,check,golden", [
        ("hj_contact_groupoid.json", "contact_board",
         "board_contact_groupoid.txt"),
        ("hj_unimodular_groupoid.json", "unimodular_board",
         "board_unimodular_groupoid.txt"),
        ("hj_complete_integral.json", "complete_integral_board",
         "board_complete_integral.txt"),
        ("hj_nine_equation.json", "nine_equation_board",
         "board_nine_equation.txt"),
        ("hj_eleven_equation.json", "eleven_equation_board",
         "board_eleven_equation.txt"),
    ])
    def test_boards_byte_match(self, name, check, golden):
        from vessiot.cli import _build

        pf = corpus_problem(name)
        system_name = pf.checks[0].args["system"]
        S = _build(pf, system_name, "system")
        rendered = systems.janet_board(S).render()
        assert rendered == (CORPUS / "golden" / golden).read_text()

    def test_dimensions_and_characters(self):
        from vessiot.cli import _build

        expectations = {
            "hj_contact_groupoid.json": (9, [1, 2, 3]),
            "hj_unimodular_groupoid.json": (6, [0, 1, 2]),
            "hj_complete_integral.json": (9, [0, 1, 2, 3]),
            "hj_nine_equation.json": (6, [0, 0, 1, 2]),
            "hj_eleven_equation.json": (4, [0, 0, 0, 1]),
        }
        for name, (dim, alpha) in expectations.items():
            pf = corpus_problem(name)
            S = _build(pf, pf.checks[0].args["system"], "system")
            assert systems.fiber_dimension(S) == dim, name
            assert sorted(systems.characters(S)) == alpha, name


class TestCriterion11MechanicsIdentities:
    def test_integrating_factor(self):
        assert mechanics.lie_condition_equivalence().ok

    @pytest.mark.parametrize("n", [2, 3])
    def test_jacobian_multiplier(self, n):
        assert mechanics.jacobi_multiplier_identity(n).ok

    def test_hessian_multiplier(self):
        assert mechanics.hessian_multiplier_identity().ok

    def test_hamiltonian_divergence(self):
        ctx = JetContext(
            ["t", "x", "p"],
            [("H", ("t", "x", "p")), "g1", "g2", "g3"],
            max_order=3,
        )
        E = ctx.expr
        rep = mechanics.multiplier_transport(
            ctx, ONE,
            [ONE, E("H[p]"), -E("H[x]")],
            [E("g1"), E("g2"), E("g3")],
        )
        assert rep.ok

    def test_drach_fiber_dimension(self):
        ctx = JetContext(["x1", "x2", "x3"], ["y1", "y2"], max_order=2)
        E = ctx.expr
        eqs = [
            systems.solved_equation(
                ctx.jet_by_dirs(dep, ["x1"]),
                -E("x3") * ctx.expr(f"{dep}[x2]")
                - E("x1") * ctx.expr(f"{dep}[x3]"),
            )
            for dep in ("y1", "y2")
        ]
        S = systems.SolvedSystem(ctx, 1, eqs)
        assert systems.fiber_dimension(S) == 6


class TestCriterion12PropertySuites:
    """The six randomized families live in test_properties.py and run in
    this same session; here the advertised budget is pinned."""

    def test_total_budget(self):
        assert (
            props.CASES_CANONICAL + props.CASES_COMMUTE
            + props.CASES_D_SQUARED + props.CASES_JACOBI
            + props.CASES_SPENCER + props.CASES_INVARIANCE
        ) == 10000

    def test_all_families_present(self):
        for name in (
            "TestCanonicalForm", "TestFormalDerivativesCommute",
            "TestExteriorDerivative", "TestBracketJacobi",
            "TestSpencerOperator", "TestInvarianceClosedUnderDerivative",
        ):
            assert hasattr(props, name)


class TestCriterion13MutationGuards:
    def test_flipped_integrating_factor_fails_with_witness(self):
        pf = corpus_problem("mech_identities.json")
        rep = run(pf, Options(only="lie_flipped"))
        (r,) = rep.results
        assert r.status == "FAIL" and r.expect == "FAIL" and r.matched
        assert r.witness not in (None, "0")

    def test_flipped_syzygy_fails_with_witness(self):
        pf = corpus_problem("diffideal_pair.json")
        rep = run(pf, Options(only="pair_syzygy_flipped"))
        (r,) = rep.results
        assert r.status == "FAIL" and r.expect == "FAIL" and r.matched
        assert r.witness not in (None, "0")


class TestFullCorpus:
    def test_cli_green(self, capsys, monkeypatch):
        monkeypatch.setenv("VESSIOT_CORPUS", str(CORPUS))
        code = main(["check", "--format", "json"])
        doc = json.loads(capsys.readouterr().out)
        assert code == 0
        assert doc["summary"]["mismatched"] == 0
        assert doc["summary"]["total"] == 65


class TestOutOfCorpusProblems:
    @pytest.mark.parametrize(
        "path", sorted(PROBLEMS.glob("*/*.json")),
        ids=lambda p: f"{p.parent.name}/{p.stem}")
    def test_cli_green(self, path, capsys):
        code = main(["check", "--format", "json", str(path)])
        doc = json.loads(capsys.readouterr().out)
        assert code == 0
        assert doc["summary"]["mismatched"] == 0
        assert doc["summary"]["total"] == len(
            json.loads(path.read_text())["checks"])


class TestBelowDeclaredOrder:
    """A file's checks fit its max_order or are refused at load: at each
    ``--max-order`` from 0 to the file's own, every bundled and
    out-of-corpus file is refused with a location, or loads and runs
    with no check ending in ``ERROR: OrderOverflow``."""

    @pytest.mark.parametrize(
        "path", sorted(CORPUS.glob("*.json")) + sorted(
            PROBLEMS.glob("*/*.json")),
        ids=lambda p: f"{p.parent.name}/{p.stem}")
    def test_refused_or_no_order_overflow(self, path):
        data = path.read_bytes()
        for q in range(parse_problem(data, str(path)).ctx.max_order + 1):
            try:
                pf = parse_problem(data, str(path), max_order=q)
            except (ProblemSyntaxError, UnknownReference,
                    ContextMismatch) as exc:
                # what vessiot check exits 2 on, at a JSON path
                where = str(exc).removeprefix(f"{path}:")
                assert where != str(exc) and where[:1].isalpha(), exc
                continue
            overflows = [(r.id, r.detail) for r in run(pf).results
                         if r.status == "ERROR"
                         and r.detail.startswith("OrderOverflow")]
            assert overflows == [], f"--max-order {q}"
