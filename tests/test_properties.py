"""Randomized property suites over the symbolic core.

Six families of checks, 10 000 randomized cases in total, all with
deterministic seeds: canonical forms agree with evaluation at sample
points, formal derivatives commute, the exterior derivative squares to
zero, the Lie bracket satisfies the Jacobi identity, the Spencer
operator annihilates holonomic sections, and invariance is closed under
formal differentiation for the bundled generator sets.
"""
import random
from fractions import Fraction

import pytest

from vessiot.invariants import GeneratorSet, is_invariant
from vessiot.jets import (
    DiffForm,
    JetContext,
    VectorField,
    bracket,
    exterior_derivative,
    holonomic_section,
    spencer,
    wedge,
)
from vessiot.symcore import (
    RationalExpr,
    eval_point,
    normalize,
)

CASES_CANONICAL = 2400
CASES_COMMUTE = 2400
CASES_D_SQUARED = 1200
CASES_JACOBI = 1600
CASES_SPENCER = 1600
CASES_INVARIANCE = 800


def test_case_budget():
    total = (
        CASES_CANONICAL + CASES_COMMUTE + CASES_D_SQUARED + CASES_JACOBI
        + CASES_SPENCER + CASES_INVARIANCE
    )
    assert total == 10000


@pytest.fixture(scope="module")
def ctx():
    return JetContext(["x1", "x2"], ["u", "v"], max_order=4)


def random_poly(rng, variables, terms=3, degree=2, coeff=5):
    """Small random polynomial over the given variables."""
    e = RationalExpr.const(Fraction(rng.randint(-coeff, coeff)))
    for _ in range(rng.randint(1, terms)):
        t = RationalExpr.const(Fraction(rng.randint(-coeff, coeff) or 1))
        for _ in range(rng.randint(0, degree)):
            t = t * RationalExpr.var(rng.choice(variables))
        e = e + t
    return e


def random_point(rng, variables):
    return {v: Fraction(rng.randint(-6, 6), rng.randint(1, 4))
            for v in variables}


class TestCanonicalForm:
    def test_rearrangements_agree_with_evaluation(self, ctx):
        """Two different algebraic arrangements of the same expression
        normalize to the same canonical form, and that form evaluates
        like the unnormalized arrangements at five sample points."""
        rng = random.Random(20260824)
        pool = sorted(ctx.jets_up_to(2)) + [
            ctx.var("x1"), ctx.var("x2")
        ]
        for case in range(CASES_CANONICAL):
            a = random_poly(rng, pool)
            b = random_poly(rng, pool)
            lhs = (a + b) * (a - b)
            rhs = a * a - b * b
            diff = normalize(lhs - rhs)
            assert diff.is_zero(), f"case {case}: {diff}"
            used = sorted(set(lhs.variables()) | set(rhs.variables()))
            hits = 0
            while hits < 5:
                point = random_point(rng, used)
                try:
                    lv = eval_point(lhs, point)
                    rv = eval_point(rhs, point)
                except Exception:
                    continue  # denominator vanished; resample
                assert lv == rv, f"case {case} at {point}"
                hits += 1

    def test_zero_test_is_decisive(self, ctx):
        """Expressions declared nonzero by the canonical form are
        nonzero at some rational point."""
        rng = random.Random(99)
        pool = sorted(ctx.jets_up_to(1))
        for _ in range(50):
            e = random_poly(rng, pool)
            if e.is_zero():
                continue
            found = False
            for _ in range(200):
                point = random_point(rng, sorted(set(e.variables())))
                try:
                    if eval_point(e, point) != 0:
                        found = True
                        break
                except Exception:
                    continue
            assert found, f"claimed nonzero, vanishes everywhere: {e}"


class TestFormalDerivativesCommute:
    def test_d1_d2_commute(self, ctx):
        rng = random.Random(7)
        pool = sorted(ctx.jets_up_to(2)) + [ctx.var("x1"), ctx.var("x2")]
        d = ctx.total_derivative
        for case in range(CASES_COMMUTE):
            e = random_poly(rng, pool)
            diff = normalize(d(d(e, "x1"), "x2") - d(d(e, "x2"), "x1"))
            assert diff.is_zero(), f"case {case}: {diff}"

    @pytest.mark.parametrize("text", [
        "u[x1] / (1 + u)",
        "(x1*v - u[x2]) / (2 + x2^2)",
        "u / (1 + v^2)",
    ])
    def test_commute_through_quotients(self, ctx, text):
        d = ctx.total_derivative
        e = ctx.expr(text)
        diff = normalize(d(d(e, "x1"), "x2") - d(d(e, "x2"), "x1"))
        assert diff.is_zero()


class TestExteriorDerivative:
    def test_d_squared_zero(self, ctx):
        rng = random.Random(11)
        coords = [ctx.var("x1"), ctx.var("x2")] + sorted(
            ctx.jets_up_to(0)
        )
        pool = sorted(ctx.jets_up_to(1)) + [ctx.var("x1"), ctx.var("x2")]
        for case in range(CASES_D_SQUARED):
            phi = DiffForm.function(
                ctx, coords, random_poly(rng, pool)
            )
            dphi = exterior_derivative(phi)
            dd = exterior_derivative(dphi)
            assert dd.is_zero(), f"case {case}: {dd.terms}"

    def test_leibniz_on_wedges(self, ctx):
        """d(phi ∧ psi) = dphi ∧ psi - phi ∧ dpsi for 1-forms, spot
        checked on random function coefficients."""
        rng = random.Random(13)
        coords = [ctx.var("x1"), ctx.var("x2")] + sorted(
            ctx.jets_up_to(0)
        )
        pool = sorted(ctx.jets_up_to(1)) + [ctx.var("x1"), ctx.var("x2")]
        for _ in range(50):
            f = random_poly(rng, pool)
            g = random_poly(rng, pool)
            phi = exterior_derivative(DiffForm.function(ctx, coords, f))
            psi = exterior_derivative(DiffForm.function(ctx, coords, g))
            dwedge = exterior_derivative(wedge(phi, psi))
            assert dwedge.is_zero()


class TestBracketJacobi:
    def test_jacobi_identity(self, ctx):
        rng = random.Random(17)
        coords = [ctx.var("x1"), ctx.var("x2")] + sorted(
            ctx.jets_up_to(0)
        )
        for case in range(CASES_JACOBI):
            fields = []
            for _ in range(3):
                comp = {}
                for c in rng.sample(coords, rng.randint(1, 2)):
                    comp[c] = random_poly(
                        rng, coords, terms=2, degree=1, coeff=3
                    )
                fields.append(VectorField(comp))
            a, b, c = fields
            s = (
                bracket(a, bracket(b, c))
                + bracket(b, bracket(c, a))
                + bracket(c, bracket(a, b))
            )
            bad = {
                v: w for v, w in s.components.items()
                if not normalize(w).is_zero()
            }
            assert not bad, f"case {case}: {bad}"


class TestSpencerOperator:
    def test_annihilates_holonomic_sections(self, ctx):
        rng = random.Random(19)
        base = [ctx.var("x1"), ctx.var("x2")]
        for case in range(CASES_SPENCER):
            q = rng.randint(1, 2)
            comps = {
                dep: random_poly(rng, base, terms=3, degree=3)
                for dep in ("u", "v")
            }
            f = holonomic_section(ctx, comps, q + 1)
            residuals = spencer(ctx, f)
            bad = {
                k: e for k, e in residuals.items()
                if not normalize(e).is_zero()
            }
            assert not bad, f"case {case}: {bad}"


@pytest.fixture(scope="module")
def curve_setup():
    ctx = JetContext(["x"], ["y1", "y2"], max_order=4)
    E = ctx.expr
    j = ctx.jet_by_dirs
    point = GeneratorSet(ctx, [
        VectorField({j("y1", []): RationalExpr.const(1)}),
        VectorField({j("y1", []): E("y1"), j("y2", []): -E("y2")}),
        VectorField({j("y1", []): E("y1^2/2"),
                     j("y2", []): -E("y1*y2")}),
    ], order=0)
    phi = E("y2 * y1[x]")
    dphi = ctx.total_derivative(phi, "x")
    return ctx, point, [phi, dphi]


@pytest.fixture(scope="module")
def area_setup():
    ctx = JetContext(["x"], ["y1", "y2"], max_order=4)
    E = ctx.expr
    j = ctx.jet_by_dirs
    point = GeneratorSet(ctx, [
        VectorField({j("y1", []): RationalExpr.const(1)}),
        VectorField({j("y2", []): RationalExpr.const(1)}),
        VectorField({j("y1", []): E("y1"), j("y2", []): -E("y2")}),
        VectorField({j("y1", []): E("y2")}),
        VectorField({j("y2", []): E("y1")}),
    ], order=0)
    phi = E("y1[x]*y2[x,x] - y2[x]*y1[x,x]")
    return ctx, point, [phi]


class TestInvarianceClosedUnderDerivative:
    """Random polynomial combinations of a known invariant and its
    formal derivatives remain invariant for the bundled point-field
    generator sets; so do their formal derivatives."""

    def _run(self, rng, ctx, gens, invariants, cases):
        for case in range(cases):
            combo = RationalExpr.const(Fraction(rng.randint(-3, 3)))
            for _ in range(rng.randint(1, 2)):
                t = RationalExpr.const(
                    Fraction(rng.randint(-3, 3) or 1)
                )
                for _ in range(rng.randint(1, 2)):
                    t = t * rng.choice(invariants)
                combo = combo + t
            assert is_invariant(combo, gens).ok, f"case {case}"
            dcombo = ctx.total_derivative(combo, "x")
            assert is_invariant(dcombo, gens).ok, f"case {case} (d)"

    def test_curve_set(self, curve_setup):
        ctx, gens, invs = curve_setup
        self._run(random.Random(23), ctx, gens, invs, CASES_INVARIANCE // 2)

    def test_area_set(self, area_setup):
        ctx, gens, invs = area_setup
        self._run(random.Random(29), ctx, gens, invs, CASES_INVARIANCE // 2)
