"""Invariance checks, generic ranks, invariant counts, structure
constants, and the reciprocal-frame identities (commuting frames,
constant quotients, field images) over the primitives they rest on."""
import random
from fractions import Fraction

import pytest

from vessiot import invariants
from vessiot.errors import NotClosed
from vessiot.invariants import (
    GeneratorSet,
    generic_rank,
    invariant_count,
    is_invariant,
    jacobi_residuals,
    structure_constants,
)
from vessiot.jets import JetContext, VectorField, bracket
from vessiot.linalg import inverse, mat_mul
from vessiot.symcore import RationalExpr, gradient, substitute


@pytest.fixture
def curve2():
    return JetContext(["x"], ["y1", "y2"], max_order=4)


def jet(ctx, name, dirs=()):
    return ctx.jet_by_dirs(name, list(dirs))


@pytest.fixture
def listed_set(curve2):
    """First-order distribution of the source-preserving pseudogroup on
    planar curve jets."""
    E = curve2.expr
    th1 = VectorField({jet(curve2, "y1"): RationalExpr.const(1)})
    th2 = VectorField({
        jet(curve2, "y2"): E("y2"),
        jet(curve2, "y1", "x"): -E("y1[x]"),
        jet(curve2, "y2", "x"): E("y2[x]"),
    })
    th3 = VectorField({jet(curve2, "y2", "x"): E("y1[x]")})
    return GeneratorSet(curve2, [th1, th2, th3], order=1)


@pytest.fixture
def area_set():
    """Five generators at order 2 of the special-affine action on planar
    curve jets (unimodular A, arbitrary B)."""
    ctx = JetContext(["x"], ["y1", "y2"], max_order=4)
    E = ctx.expr
    one = RationalExpr.const(1)
    th1 = VectorField({jet(ctx, "y1"): one})
    th2 = VectorField({jet(ctx, "y2"): one})
    th3 = VectorField({
        jet(ctx, "y1", "x"): E("y1[x]"),
        jet(ctx, "y1", "xx"): E("y1[x,x]"),
        jet(ctx, "y2", "x"): -E("y2[x]"),
        jet(ctx, "y2", "xx"): -E("y2[x,x]"),
    })
    th4 = VectorField({
        jet(ctx, "y1", "x"): E("y2[x]"),
        jet(ctx, "y1", "xx"): E("y2[x,x]"),
    })
    th5 = VectorField({
        jet(ctx, "y2", "x"): E("y1[x]"),
        jet(ctx, "y2", "xx"): E("y1[x,x]"),
    })
    return ctx, GeneratorSet(ctx, [th1, th2, th3, th4, th5], order=2)


@pytest.fixture
def rigid3():
    """Rigid motions of 3-space over a two-dimensional source."""
    ctx = JetContext(["x1", "x2"], ["y1", "y2", "y3"], max_order=3)
    E = ctx.expr
    one = RationalExpr.const(1)
    fields = [
        VectorField({jet(ctx, "y1"): one}),
        VectorField({jet(ctx, "y2"): one}),
        VectorField({jet(ctx, "y3"): one}),
        VectorField({jet(ctx, "y3"): E("y2"), jet(ctx, "y2"): -E("y3")}),
        VectorField({jet(ctx, "y1"): E("y3"), jet(ctx, "y3"): -E("y1")}),
        VectorField({jet(ctx, "y2"): E("y1"), jet(ctx, "y1"): -E("y2")}),
    ]
    return ctx, GeneratorSet(ctx, fields, order=0)


class TestIsInvariant:
    def test_listed(self, curve2, listed_set):
        assert is_invariant(curve2.expr("y2 * y1[x]"), listed_set).ok

    def test_area(self, area_set):
        ctx, G = area_set
        assert is_invariant(
            ctx.expr("y1[x]*y2[x,x] - y2[x]*y1[x,x]"), G
        ).ok

    def test_trivial_fail(self, curve2):
        th1 = VectorField({jet(curve2, "y1"): RationalExpr.const(1)})
        rep = is_invariant(curve2.expr("y1"), GeneratorSet(curve2, [th1]))
        assert rep.status == "FAIL"
        assert rep.witness == RationalExpr.const(1)

    def test_products_and_sums(self, curve2, listed_set):
        phi = curve2.expr("y2 * y1[x]")
        assert is_invariant(phi * phi, listed_set).ok
        assert is_invariant(phi + phi * phi, listed_set).ok

    def test_closed_under_total_derivative(self, curve2, listed_set):
        """An invariant's formal derivative is invariant one order up;
        checked through the liftable point-field presentation."""
        E = curve2.expr
        point = GeneratorSet(curve2, [
            VectorField({jet(curve2, "y1"): RationalExpr.const(1)}),
            VectorField({jet(curve2, "y1"): E("y1"),
                         jet(curve2, "y2"): -E("y2")}),
            VectorField({jet(curve2, "y1"): E("y1^2/2"),
                         jet(curve2, "y2"): -E("y1*y2")}),
        ], order=0)
        phi = E("y2 * y1[x]")
        assert is_invariant(phi, point).ok
        dphi = curve2.total_derivative(phi, "x")
        assert is_invariant(dphi, point).ok
        assert is_invariant(curve2.total_derivative(dphi, "x"), point).ok

    def test_area_derivative(self, area_set):
        ctx, G = area_set
        phi = ctx.expr("y1[x]*y2[x,x] - y2[x]*y1[x,x]")
        point = GeneratorSet(ctx, [
            VectorField({jet(ctx, "y1"): RationalExpr.const(1)}),
            VectorField({jet(ctx, "y2"): RationalExpr.const(1)}),
            VectorField({jet(ctx, "y1"): ctx.expr("y1"),
                         jet(ctx, "y2"): -ctx.expr("y2")}),
            VectorField({jet(ctx, "y1"): ctx.expr("y2")}),
            VectorField({jet(ctx, "y2"): ctx.expr("y1")}),
        ], order=0)
        assert is_invariant(phi, point).ok
        assert is_invariant(ctx.total_derivative(phi, "x"), point).ok


class TestGenericRank:
    def test_listed(self, listed_set):
        assert generic_rank(listed_set.fields) == 3

    def test_duplicate(self, curve2):
        t = VectorField({jet(curve2, "y1"): curve2.expr("y2")})
        assert generic_rank([t, t]) == 1

    def test_scaling_and_permutation_invariance(self, listed_set):
        f = listed_set.fields
        scaled = [f[2], f[0].scale(listed_set.ctx.expr("y2^2")), f[1]]
        assert generic_rank(scaled) == 3

    def test_area_rank(self, area_set):
        _, G = area_set
        assert generic_rank(G.fields) == 5

    def test_more_variables_than_primes_is_exact(self):
        # 31 variables and a rank below min(rows, columns): exact
        # elimination gives the rank whatever the number of variables
        names = [f"x{i}" for i in range(31)]
        ctx = JetContext(names, ["u"], max_order=0)
        xs = [ctx.var(n) for n in names]
        t1 = VectorField({v: RationalExpr.var(w) for v, w in zip(xs, xs[1:])})
        t2 = t1.scale(RationalExpr.var(xs[0]))
        t3 = VectorField({xs[0]: RationalExpr.const(1)})
        assert generic_rank([t1, t2, t3]) == 2


class TestQLinearSolve:
    def test_returns_fractions(self, curve2):
        from vessiot.invariants import _q_linear_solve

        E = curve2.expr
        cols = [E("y1"), E("y2"), E("y1*y2")]
        sol = _q_linear_solve([(cols, E("y1/2 + 3*y1*y2"))], 3)
        assert sol == [Fraction(1, 2), 0, 3]
        assert all(type(c) is Fraction for c in sol)
        sol = _q_linear_solve([([E("2*y1")], E("y1"))], 1)
        assert sol == [Fraction(1, 2)] and type(sol[0]) is Fraction
        assert _q_linear_solve([([E("y1")], E("y2"))], 1) is None
        # each block alone has a solution (2, then 3); together none
        first, second = ([E("y1")], E("2*y1")), ([E("y2")], E("3*y2"))
        assert _q_linear_solve([first], 1) == [2]
        assert _q_linear_solve([second], 1) == [3]
        assert _q_linear_solve([first, second], 1) is None
        # a target without monomials, and no equations at all
        assert _q_linear_solve([(cols, E("0"))], 3) == [0, 0, 0]
        assert _q_linear_solve([], 3) == [0, 0, 0]

    def test_free_and_absent_coefficients_are_zero(self, curve2):
        from vessiot.invariants import _q_linear_solve

        E = curve2.expr
        # 2*y1 is a multiple of y1: its coefficient is free, set to 0
        sol = _q_linear_solve([([E("y1"), E("2*y1"), E("y2")],
                                E("3*y1 + y2"))], 3)
        assert sol == [3, 0, 1] and all(type(c) is Fraction for c in sol)
        # a pivot whose row carries no target entry solves to 0
        sol = _q_linear_solve([([E("y1"), E("y2")], E("y2"))], 2)
        assert sol == [0, 1] and all(type(c) is Fraction for c in sol)
        # a dependent column cannot absorb what its pivot cannot reach
        assert _q_linear_solve([([E("y1"), E("2*y1")], E("y1 + 1"))],
                               2) is None


    def test_non_constant_denominators(self, curve2):
        from vessiot.invariants import _q_linear_solve

        E = curve2.expr
        # one denominator shared by every expression of the block
        assert _q_linear_solve([([E("1/x"), E("y1/x")],
                                 E("(2 + 3*y1)/x"))], 2) == [2, 3]
        # two distinct denominators, one of them repeated
        cols = [E("1/x"), E("y1/x"), E("1/(x + 1)")]
        target = E("2/x - 3/(x + 1) + 5*y1/x")
        assert _q_linear_solve([(cols, target)], 3) == [2, 5, -3]
        # blocks over different denominators are solved together
        blocks = [([E("1/x"), E("1/(x + 1)")], E("2/x - 3/(x + 1)")),
                  ([E("y1/(x*y2)"), E("0")], E("2*y1/(x*y2)"))]
        assert _q_linear_solve(blocks, 2) == [2, -3]
        # no constant combination exists: 1/(x + 1) is not c/x, and the
        # two blocks ask for c = 1 and c = 2
        assert _q_linear_solve([([E("1/x")], E("1/(x + 1)"))], 1) is None
        assert _q_linear_solve([([E("y1/x")], E("y1/x")),
                                ([E("1/(x + y2)")], E("2/(x + y2)"))],
                               1) is None


class TestInvariantCount:
    def test_rigid_first_order(self, rigid3):
        ctx, G = rigid3
        assert invariant_count(ctx, G, 1) == 9 - 6

    def test_rigid_order_zero(self, rigid3):
        ctx, G = rigid3
        assert invariant_count(ctx, G, 0) == 0

    def test_area_second_order(self, area_set):
        ctx, G = area_set
        assert invariant_count(ctx, G, 2) == 6 - 5


class TestStructureConstants:
    def test_listed(self, listed_set):
        c = structure_constants(listed_set)
        assert c[(1, 2)] == [0, 0, Fraction(-2)]
        assert c[(0, 1)] == [0, 0, 0]
        assert c[(0, 2)] == [0, 0, 0]
        assert c[(2, 1)] == [0, 0, Fraction(2)]

    def test_abelian(self):
        ctx = JetContext(["x1", "x2"], ["u"], max_order=1)
        one = RationalExpr.const(1)
        G = GeneratorSet(ctx, [
            VectorField({ctx.var("x1"): one}),
            VectorField({ctx.var("x2"): one}),
        ])
        c = structure_constants(G)
        assert all(all(v == 0 for v in row) for row in c.values())

    def test_scaling_pair(self):
        ctx = JetContext(["x"], ["u"], max_order=1)
        G = GeneratorSet(ctx, [
            VectorField({ctx.var("x"): ctx.expr("x")}),
            VectorField({ctx.var("x"): RationalExpr.const(1)}),
        ])
        c = structure_constants(G)
        assert c[(0, 1)] == [0, Fraction(-1)]

    def test_not_closed(self, curve2, monkeypatch):
        """A set that is not closed keeps no table: a second call takes
        the bracket again and raises again."""
        G = GeneratorSet(curve2, [
            VectorField({jet(curve2, "y1"): curve2.expr("y1^2")}),
            VectorField({jet(curve2, "y1"): RationalExpr.const(1)}),
        ])
        brackets = []
        monkeypatch.setattr(invariants, "bracket",
                            lambda a, b: brackets.append(1) or bracket(a, b))
        for _ in range(2):
            with pytest.raises(NotClosed):
                structure_constants(G)
        assert len(brackets) == 2

    def test_table_is_kept_on_the_set(self, listed_set):
        c = structure_constants(listed_set)
        assert structure_constants(listed_set) is c

    def test_wrong_solution_is_refused(self, listed_set, monkeypatch):
        """A combination that does not reproduce a bracket is refused by
        the exact re-verification, which names the pair, even when the
        solver returns it."""
        def wrong(blocks, n):
            return [Fraction(1)] * n

        monkeypatch.setattr(invariants, "_q_linear_solve", wrong)
        with pytest.raises(NotClosed, match=r"\[theta1, theta2\]"):
            structure_constants(listed_set)

    def test_jacobi(self, listed_set, rigid3):
        for G in (listed_set, rigid3[1]):
            c = structure_constants(G)
            assert all(s == 0 for s in jacobi_residuals(c, len(G.fields)))


def dense_jacobi_residuals(table, n):
    """Reference: every product c^lam_{..} c^tau_{lam .}, zeros included."""
    out = []
    for rho in range(n):
        for sigma in range(n):
            for nu in range(n):
                for tau in range(n):
                    s = Fraction(0)
                    for lam in range(n):
                        s += table[(rho, sigma)][lam] * table[(lam, nu)][tau]
                        s += table[(sigma, nu)][lam] * table[(lam, rho)][tau]
                        s += table[(nu, rho)][lam] * table[(lam, sigma)][tau]
                    out.append(s)
    return out


def random_table(rng, n, antisymmetric):
    """Mostly zeros, with ints and Fractions among the nonzero entries."""
    def entry():
        pick = rng.random()
        if pick < 0.6:
            return rng.choice([0, Fraction(0)])
        if pick < 0.8:
            return rng.randint(-3, 3)
        return Fraction(rng.randint(-5, 5), rng.randint(1, 4))

    table = {}
    for a in range(n):
        for b in range(n):
            if antisymmetric and a == b:
                table[(a, b)] = [Fraction(0)] * n
            elif antisymmetric and b < a:
                table[(a, b)] = [-c for c in table[(b, a)]]
            else:
                table[(a, b)] = [entry() for _ in range(n)]
    return table


class TestJacobiResiduals:
    """The sparse kernel against the dense n^5 loop it replaced."""

    # 224 tables; the dense reference costs n^5, so the large n are fewer
    SIZES = [1, 2, 3, 4] * 48 + [5] * 16 + [6] * 8

    def test_matches_dense_reference(self):
        rng = random.Random(10)
        nonzero = 0
        for k, n in enumerate(self.SIZES):
            table = random_table(rng, n, antisymmetric=k % 2 == 0)
            got = jacobi_residuals(table, n)
            want = dense_jacobi_residuals(table, n)
            assert len(got) == n ** 4
            assert got == want
            assert [type(v) for v in got] == [type(v) for v in want]
            assert all(type(v) is Fraction for v in got)
            # the witness jacobi_table reports: the first nonzero residual
            first = next((v for v in got if v != 0), None)
            assert first == next((v for v in want if v != 0), None)
            nonzero += first is not None
        assert nonzero > 100

    def test_lie_algebra_so3(self):
        # c^k_{ij} = epsilon_{ijk}: the cross product on R^3
        eps = {(0, 1): 2, (1, 2): 0, (2, 0): 1}
        table = {(a, b): [Fraction(0)] * 3 for a in range(3) for b in range(3)}
        for (a, b), k in eps.items():
            table[(a, b)][k] = Fraction(1)
            table[(b, a)][k] = Fraction(-1)
        got = jacobi_residuals(table, 3)
        assert len(got) == 81 and all(v == 0 for v in got)
        assert got == dense_jacobi_residuals(table, 3)


@pytest.fixture
def matrix_group_ctx():
    """Wronskian-style frames: two unbarred and two barred dependents."""
    return JetContext(["x"], ["y1", "y2", "yb1", "yb2"], max_order=1)


def frame_fields(ctx):
    E = ctx.expr
    return [
        VectorField({jet(ctx, "y1"): E("y1"), jet(ctx, "y1", "x"): E("y1[x]")}),
        VectorField({jet(ctx, "y2"): E("y1"), jet(ctx, "y2", "x"): E("y1[x]")}),
        VectorField({jet(ctx, "y1"): E("y2"), jet(ctx, "y1", "x"): E("y2[x]")}),
        VectorField({jet(ctx, "y2"): E("y2"), jet(ctx, "y2", "x"): E("y2[x]")}),
    ]


def delta_fields(ctx):
    """The reciprocal frame: each field commutes with ``frame_fields``."""
    E = ctx.expr
    return [
        VectorField({jet(ctx, "y1"): E("y1"), jet(ctx, "y2"): E("y2")}),
        VectorField({jet(ctx, "y1", "x"): E("y1"),
                     jet(ctx, "y2", "x"): E("y2")}),
        VectorField({jet(ctx, "y1"): E("y1[x]"), jet(ctx, "y2"): E("y2[x]")}),
        VectorField({jet(ctx, "y1", "x"): E("y1[x]"),
                     jet(ctx, "y2", "x"): E("y2[x]")}),
    ]


def bracket_residuals(ctx, delta, theta):
    """Every stored component of [d, t], reduced by the context, for each
    d in ``delta`` and t in ``theta``: all zero iff the two sets
    commute."""
    return [ctx.reduce(c) for d in delta for t in theta
            for c in bracket(d, t).components.values()]


def constancy_residuals(ctx, targets, pairs, identifications):
    """(delta + delta_bar)(target), with the identifications substituted
    and reduced by the context, for each pair and target."""
    return [ctx.reduce(substitute((d + dbar).apply(t), identifications))
            for d, dbar in pairs for t in targets]


def jacobian_rank(exprs):
    """Rank of the gradient rows of ``exprs`` over the rational-function
    field."""
    return generic_rank([VectorField(gradient(e, e.variables()))
                         for e in exprs])


def barred(ctx, field):
    """The copy of a field on y1, y2 (and their x-jets) acting on the
    barred dependents yb1, yb2, with its coefficients renamed alike."""
    binds = {}
    for name in ("y1", "y2"):
        bar = "yb" + name[1]
        binds[jet(ctx, name)] = ctx.expr(bar)
        binds[jet(ctx, name, "x")] = ctx.expr(bar + "[x]")
    comp = {}
    for v, c in field.components.items():
        name, mu = ctx.jet_info(v)
        comp[jet(ctx, "yb" + name[1], "x" * sum(mu))] = substitute(c, binds)
    return VectorField(comp)


class TestCommutant:
    def test_matrix_frames(self, matrix_group_ctx):
        ctx = matrix_group_ctx
        residuals = bracket_residuals(
            ctx, delta_fields(ctx), frame_fields(ctx))
        assert all(r.is_zero() for r in residuals)

    def test_affine_pair(self):
        ctx = JetContext(["x"], ["a1", "a2"], max_order=1)
        E = ctx.expr
        theta = [
            VectorField({jet(ctx, "a1"): E("a1"), jet(ctx, "a2"): E("a2")}),
            VectorField({jet(ctx, "a2"): RationalExpr.const(1)}),
        ]
        delta = [
            VectorField({jet(ctx, "a1"): E("a1")}),
            VectorField({jet(ctx, "a2"): E("a1")}),
        ]
        residuals = bracket_residuals(ctx, delta, theta)
        assert all(r.is_zero() for r in residuals)

    def test_nonabelian_self(self):
        ctx = JetContext(["x"], ["u"], max_order=1)
        G = [
            VectorField({jet(ctx, "u"): ctx.expr("u")}),
            VectorField({jet(ctx, "u"): RationalExpr.const(1)}),
        ]
        # [u d/du, d/du] = -d/du
        assert any(not r.is_zero() for r in bracket_residuals(ctx, G, G))


class TestConstancy:
    def test_frame_quotients(self, matrix_group_ctx):
        ctx = matrix_group_ctx
        E = ctx.expr
        M = [[E("y1"), E("y1[x]")], [E("y2"), E("y2[x]")]]
        Mb = [[E("yb1"), E("yb1[x]")], [E("yb2"), E("yb2[x]")]]
        A = mat_mul(Mb, inverse(M))
        targets = [A[i][j] for i in range(2) for j in range(2)]
        pairs = [(d, barred(ctx, d)) for d in delta_fields(ctx)]
        residuals = constancy_residuals(ctx, targets, pairs, {})
        assert len(residuals) == 16
        assert all(r.is_zero() for r in residuals)

    def test_identified_quotients(self):
        ctx = JetContext(["x"], ["y1", "y2", "yb1", "yb2"], max_order=1)
        E = ctx.expr
        targets = [
            E("yb1[x] / y1[x]"),
            RationalExpr.const(0),
            E("(yb1[x]*yb2[x] - y1[x]*y2[x]) / (y1[x]*yb1[x])"),
            E("y1[x] / yb1[x]"),
        ]
        d1 = VectorField({
            jet(ctx, "y1", "x"): E("y1[x]"), jet(ctx, "y2", "x"): E("y2[x]"),
        })
        d2 = VectorField({jet(ctx, "y2", "x"): E("y2")})
        pairs = [(d1, barred(ctx, d1)), (d2, barred(ctx, d2))]
        ident = {jet(ctx, "yb1", "x"): E("y2 * y1[x] / yb2")}
        assert all(r.is_zero()
                   for r in constancy_residuals(ctx, targets, pairs, ident))

    def test_trivial_fail(self, curve2):
        d = VectorField({jet(curve2, "y1"): RationalExpr.const(1)})
        residuals = constancy_residuals(
            curve2, [curve2.expr("y1")], [(d, d)], {})
        assert residuals == [RationalExpr.const(2)]


class TestNoninvariance:
    """A field image that raises the Jacobian rank of the generators is
    algebraically independent of them, so outside the field they
    generate; a Q-combination of the generators and 1 lies inside."""

    def test_affine_product(self):
        ctx = JetContext(["x"], ["a1", "a2"], max_order=1)
        E = ctx.expr
        d2 = VectorField({jet(ctx, "a2"): E("a1")})
        image = d2.apply(E("a1 * a2"))
        assert image == E("a1^2")
        assert jacobian_rank([E("a1 * a2")]) == 1
        assert jacobian_rank([E("a1 * a2"), image]) == 2

    def test_zero_stable(self):
        ctx = JetContext(["x"], ["a1", "a2"], max_order=1)
        E = ctx.expr
        d1 = VectorField({jet(ctx, "a1"): E("a1")})
        assert d1.apply(E("a2")).is_zero()

    def test_image_in_the_field_but_not_the_monoid(self):
        """x lies in Q(x^2, x^3) as x^3 / x^2, though no product of x^2
        and x^3 is x: the image 2x of x^2 under d/dx raises no Jacobian
        rank and is no Q-combination of the generators and 1, so neither
        test decides it; the image 3x^2 of x^3 is such a combination."""
        ctx = JetContext(["x"], ["u"], max_order=1)
        E = ctx.expr
        gens = [E("x^2"), E("x^3")]
        d = VectorField({ctx.var("x"): E("1")})
        images = [d.apply(g) for g in gens]
        assert images == [E("2*x"), E("3*x^2")]
        columns = gens + [RationalExpr.const(1)]
        assert invariants._q_linear_solve([(columns, images[0])], 3) is None
        assert jacobian_rank(gens + images[:1]) == jacobian_rank(gens) == 1
        assert invariants._q_linear_solve([(columns, images[1])], 3) == [
            3, 0, 0]

    def test_curve_frame_rotation(self, curve2):
        """The rotation-like commutant field maps the second invariant
        onto the third, which lies outside the field it generates with
        the first two."""
        E = curve2.expr
        om = E("y1[x]^2 + y2[x]^2")
        ga = E("y1[x]*y1[x,x] + y2[x]*y2[x,x]")
        si = E("y1[x]*y2[x,x] - y2[x]*y1[x,x]")
        d1 = VectorField({
            jet(curve2, "y1", "x"): E("y1[x]"),
            jet(curve2, "y2", "x"): E("y2[x]"),
        })
        d2 = VectorField({
            jet(curve2, "y1", "x"): E("y1[x,x]"),
            jet(curve2, "y2", "x"): E("y2[x,x]"),
        })
        rot = d1.scale(-ga / si) + d2.scale(om / si)
        # the rotation field in closed form
        explicit = VectorField({
            jet(curve2, "y1", "x"): -E("y2[x]"),
            jet(curve2, "y2", "x"): E("y1[x]"),
        })
        assert (rot - explicit).is_zero()
        assert explicit.apply(om).is_zero()
        assert explicit.apply(ga) == si
        assert jacobian_rank([om, ga, si]) > jacobian_rank([om, ga])


class TestGenericallyFree:
    def test_matrix_frames(self, matrix_group_ctx):
        assert generic_rank(frame_fields(matrix_group_ctx)) == 4
