"""Solved systems: prolongation, symbols, characters, Cartan test,
Janet boards, fiber dimensions and the PHS/automorphic criteria."""
import math
import random
import re
from fractions import Fraction

import pytest

from vessiot import cli, symcore
from vessiot.errors import (
    ClasslessLeading,
    DegenerateLocus,
    DenominatorVanishes,
    LeadingsNotEliminated,
    OffVariety,
    OrderOverflow,
)
from vessiot.jets import JetContext, holonomic_section
from vessiot.linalg import det, rank, rref
from vessiot.symcore import (
    Polynomial,
    RationalExpr,
    coordinate_partial,
    eval_point,
    normalize,
    substitute,
)
from vessiot.systems import (
    MAX_PASSES,
    SolvedSystem,
    _prolonged_symbol,
    _substitute_leadings,
    automorphic_criterion,
    cartan_test,
    characters,
    compatibility_count,
    fiber_dimension,
    implicit_equation,
    janet_board,
    jet_above_order,
    leading_conflict,
    phs_check,
    prolong_system,
    solved_equation,
    symbol_of,
    witness_from_section,
)


# ---------------------------------------------------------------------------
# surface-embedding helpers (n = 2 source, m = 3 target)


def embed_targets(ctx, f):
    """First/second-contact quantities of an explicit embedding f."""
    d = ctx.total_derivative
    xs = ctx.independents
    fd = {r: [d(c, xs[r - 1]) for c in f] for r in (1, 2)}
    om, ga, si = {}, {}, {}
    for i in (1, 2):
        for j in (1, 2):
            if j < i:
                continue
            om[(i, j)] = sum(
                (a * b for a, b in zip(fd[i], fd[j])),
                start=RationalExpr.const(0),
            )
            fij = [d(c, xs[j - 1]) for c in fd[i]]
            si[(i, j)] = det(
                [[fd[1][k], fd[2][k], fij[k]] for k in range(3)]
            )
            for r in (1, 2):
                ga[(r, i, j)] = sum(
                    (a * b for a, b in zip(fd[r], fij)),
                    start=RationalExpr.const(0),
                )
    return om, ga, si


def metric_equations(ctx, om):
    E = ctx.expr
    out = []
    for i in (1, 2):
        for j in (1, 2):
            if j < i:
                continue
            lhs = sum(
                (E(f"y{k}[x{i}]") * E(f"y{k}[x{j}]") for k in (1, 2, 3)),
                start=RationalExpr.const(0),
            )
            out.append(implicit_equation(lhs, om[(i, j)]))
    return out


def tangency_equations(ctx, ga):
    E = ctx.expr
    out = []
    for r in (1, 2):
        for i in (1, 2):
            for j in (1, 2):
                if j < i:
                    continue
                lhs = sum(
                    (E(f"y{k}[x{r}]") * E(f"y{k}[x{i},x{j}]")
                     for k in (1, 2, 3)),
                    start=RationalExpr.const(0),
                )
                out.append(implicit_equation(lhs, ga[(r, i, j)]))
    return out


def normal_equations(ctx, si):
    E = ctx.expr
    out = []
    for i in (1, 2):
        for j in (1, 2):
            if j < i:
                continue
            lhs = det(
                [
                    [E(f"y{k}[x1]"), E(f"y{k}[x2]"), E(f"y{k}[x{i},x{j}]")]
                    for k in (1, 2, 3)
                ]
            )
            out.append(implicit_equation(lhs, si[(i, j)]))
    return out


@pytest.fixture(scope="module")
def shell():
    """Embedding systems seeded by the cubic saddle surface."""
    ctx = JetContext(["x1", "x2"], ["y1", "y2", "y3"], max_order=5)
    E = ctx.expr
    f = [E("x1"), E("x2"), E("(x1^3 + x2^3)/6")]
    om, ga, si = embed_targets(ctx, f)
    sec = holonomic_section(ctx, {"y1": f[0], "y2": f[1], "y3": f[2]}, 5)
    pt = {ctx.var("x1"): Fraction(1), ctx.var("x2"): Fraction(2)}
    return {
        "ctx": ctx, "f": f, "om": om, "ga": ga, "si": si,
        "witness": witness_from_section(sec, pt),
        "A1": SolvedSystem(ctx, 1, metric_equations(ctx, om)),
        "A2": SolvedSystem(
            ctx, 2, metric_equations(ctx, om) + tangency_equations(ctx, ga)
        ),
        "A2c": SolvedSystem(
            ctx, 2,
            metric_equations(ctx, om) + tangency_equations(ctx, ga)
            + normal_equations(ctx, si),
        ),
    }


@pytest.fixture(scope="module")
def shell_extra(shell):
    """The one extra second-order equation of the projected prolongation."""
    ctx, f = shell["ctx"], shell["f"]
    E, d = ctx.expr, ctx.total_derivative
    lhs = sum(
        (E(f"y{k}[x1,x1]") * E(f"y{k}[x2,x2]") - E(f"y{k}[x1,x2]") ** 2
         for k in (1, 2, 3)),
        start=RationalExpr.const(0),
    )
    rhs = sum(
        (d(d(c, "x1"), "x1") * d(d(c, "x2"), "x2") - d(d(c, "x1"), "x2") ** 2
         for c in f),
        start=RationalExpr.const(0),
    )
    return SolvedSystem(
        ctx, 2, shell["A2"].equations + [implicit_equation(lhs, rhs)]
    )


@pytest.fixture(scope="module")
def rigid():
    """Orthogonality groupoid on the target (rigid motions)."""
    ctx = JetContext(["y1", "y2", "y3"], ["w1", "w2", "w3"], max_order=4)
    E = ctx.expr
    eqs = []
    for i in (1, 2, 3):
        for j in range(i, 4):
            lhs = sum(
                (E(f"w{k}[y{i}]") * E(f"w{k}[y{j}]") for k in (1, 2, 3)),
                start=RationalExpr.const(0),
            )
            eqs.append(
                implicit_equation(
                    lhs, RationalExpr.const(1 if i == j else 0)
                )
            )
    sec = holonomic_section(
        ctx, {"w1": E("y1"), "w2": E("y2"), "w3": E("y3")}, 4
    )
    pt = {
        ctx.var("y1"): Fraction(1),
        ctx.var("y2"): Fraction(2),
        ctx.var("y3"): Fraction(3),
    }
    return {
        "ctx": ctx,
        "R1": SolvedSystem(ctx, 1, eqs),
        "witness": witness_from_section(sec, pt),
    }


# ---------------------------------------------------------------------------
# contact-transformation systems (action z, space x, momentum p, time t)


@pytest.fixture(scope="module")
def contact_groupoid():
    """First-order contact groupoid: two quotient relations plus the one
    crossed-derivative condition."""
    ctx = JetContext(["X", "P", "Z"], ["Zb", "Xb", "Pb"], max_order=2)
    E = ctx.expr
    j = lambda d, v: ctx.jet_by_dirs(d, [v])
    return SolvedSystem(
        ctx, 1,
        [
            implicit_equation(
                E("Zb[X] - Pb*Xb[X] + P*(Zb[Z] - Pb*Xb[Z])"),
                leading=j("Zb", "X"),
            ),
            solved_equation(j("Zb", "P"), E("Pb*Xb[P]")),
            implicit_equation(
                E("Xb[X]*Pb[P] - Xb[P]*Pb[X]"
                  " + P*(Xb[Z]*Pb[P] - Xb[P]*Pb[Z])"
                  " - (Zb[Z] - Pb*Xb[Z])"),
                leading=j("Xb", "X"),
            ),
        ],
        ordering=("X", "P", "Z"),
        genericity=[E("Pb[P]")],
    )


@pytest.fixture(scope="module")
def unimodular_groupoid():
    """Transformations preserving the contact form exactly (6 equations,
    strictly solved)."""
    ctx = JetContext(["Z", "X", "P"], ["Zb", "Xb", "Pb"], max_order=2)
    E = ctx.expr
    j = lambda d, v: ctx.jet_by_dirs(d, [v])
    xbx = E("(1 + Xb[P]*Pb[X]) / Pb[P]")
    return SolvedSystem(
        ctx, 1,
        [
            solved_equation(j("Zb", "Z"), RationalExpr.const(1)),
            solved_equation(j("Xb", "Z"), RationalExpr.const(0)),
            solved_equation(j("Pb", "Z"), RationalExpr.const(0)),
            solved_equation(j("Zb", "X"), E("Pb") * xbx - E("P")),
            solved_equation(j("Xb", "X"), xbx),
            solved_equation(j("Zb", "P"), E("Pb*Xb[P]")),
        ],
        ordering=("Z", "X", "P"),
        genericity=[E("Pb[P]")],
    )


@pytest.fixture(scope="module")
def complete_integral_system():
    """Six first-order equations for a complete integral of the
    evolution equation z_t + H(t,x,z_x) = 0 with H = p^2/2 + x."""
    ctx = JetContext(["x", "t", "p", "z"], ["Z", "X", "P"], max_order=2)
    E = ctx.expr
    j = lambda d, v: ctx.jet_by_dirs(d, [v])
    H = E("p^2/2 + x")
    W = E("Z[z] - P*X[z]")
    jac = lambda cols: det(
        [[E(f"{d}[{c}]") for c in cols] for d in ("Z", "X", "P")]
    )
    return SolvedSystem(
        ctx, 1,
        [
            implicit_equation(
                E("Z[x] - P*X[x] + p*(Z[z] - P*X[z])"), leading=j("Z", "x")
            ),
            implicit_equation(
                E("Z[t] - P*X[t]") - H * W, leading=j("Z", "t")
            ),
            solved_equation(j("Z", "p"), E("P*X[p]")),
            implicit_equation(
                E("X[x]*P[p] - X[p]*P[x] + p*(X[z]*P[p] - X[p]*P[z])") - W,
                leading=j("X", "x"),
            ),
            implicit_equation(
                jac(["z", "x", "p"]) - W**2, leading=j("P", "x")
            ),
            implicit_equation(
                jac(["z", "p", "t"]) - E("p") * W**2, leading=j("X", "t")
            ),
        ],
        ordering=("x", "t", "p", "z"),
        genericity=[W],
    )


@pytest.fixture(scope="module")
def unimodular_integral_system():
    """Nine solved equations for the complete integral with unimodular
    normalization (H = p^2/2 + x)."""
    ctx = JetContext(["z", "x", "p", "t"], ["Z", "X", "P"], max_order=2)
    E = ctx.expr
    j = lambda d, v: ctx.jet_by_dirs(d, [v])
    H, Hx, Hp = E("p^2/2 + x"), E("1"), E("p")
    Xp = (Hp + E("X[t]*P[p]")) / E("P[t]")
    Xx = (Xp * Hx - E("X[t]")) / Hp
    Px = (E("P[p]") * Hx - E("P[t]")) / Hp
    return SolvedSystem(
        ctx, 1,
        [
            solved_equation(j("Z", "z"), RationalExpr.const(1)),
            solved_equation(j("X", "z"), RationalExpr.const(0)),
            solved_equation(j("P", "z"), RationalExpr.const(0)),
            solved_equation(j("Z", "x"), E("P") * Xx - E("p")),
            solved_equation(j("X", "x"), Xx),
            solved_equation(j("P", "x"), Px),
            solved_equation(j("Z", "p"), E("P") * Xp),
            solved_equation(j("X", "p"), Xp),
            solved_equation(j("Z", "t"), E("P*X[t]") + H),
        ],
        ordering=("z", "x", "p", "t"),
        genericity=[Hp, E("P[t]")],
    )


@pytest.fixture(scope="module")
def additive_integral_system():
    """Eleven solved equations for the additively separated integral
    (H = p^2/2 + x)."""
    ctx = JetContext(["z", "x", "t", "p"], ["Z", "X", "P"], max_order=2)
    E = ctx.expr
    j = lambda d, v: ctx.jet_by_dirs(d, [v])
    H, Hx, Hp = E("p^2/2 + x"), E("1"), E("p")
    return SolvedSystem(
        ctx, 1,
        [
            solved_equation(j("Z", "z"), RationalExpr.const(1)),
            solved_equation(j("X", "z"), RationalExpr.const(0)),
            solved_equation(j("P", "z"), RationalExpr.const(0)),
            solved_equation(j("X", "t"), RationalExpr.const(0)),
            solved_equation(j("Z", "t"), H),
            solved_equation(j("P", "t"), RationalExpr.const(1)),
            solved_equation(j("X", "x"), Hx),
            solved_equation(j("X", "p"), Hp),
            solved_equation(j("Z", "x"), Hx * E("P") - E("p")),
            solved_equation(j("Z", "p"), Hp * E("P")),
            solved_equation(j("P", "x"), (Hx * E("P[p]") - 1) / Hp),
        ],
        ordering=("z", "x", "t", "p"),
        genericity=[Hp],
    )


@pytest.fixture
def hyperbolic_curve():
    return JetContext(
        ["x"], ["y1", "y2"], max_order=3,
        specials=[("ch", "x", "sh", "ch^2 -> 1 + sh^2"), ("sh", "x", "ch")],
    )


# ---------------------------------------------------------------------------


# the corpus PDE systems, as (problem file stem, object name)
PROLONG_SYSTEMS = [
    ("shell_monkey_saddle", "metric_system"),
    ("shell_monkey_saddle", "completed_system"),
    ("hj_contact_groupoid", "contact"),
    ("hj_unimodular_groupoid", "unimodular"),
    ("hj_eleven_equation", "eleven_equation"),
    ("hj_nine_equation", "nine_equation"),
    ("hj_complete_integral", "complete_integral"),
]


class TestProlong:
    def test_identity_at_zero(self, shell):
        assert prolong_system(shell["A2"], 0) is shell["A2"]

    def test_chain_midpoint_equation(self, hyperbolic_curve):
        ctx = hyperbolic_curve
        E = ctx.expr
        S = SolvedSystem(
            ctx, 1, [implicit_equation(E("y1[x]^2 + y2[x]^2"), E("ch^2"))]
        )
        P = prolong_system(S, 1)
        target = normalize(
            2 * (E("y1[x]*y1[x,x] + y2[x]*y2[x,x]") - E("sh*ch"))
        )
        assert any((e.residual - target).is_zero() for e in P.equations)

    def test_integrability_condition_reported(self):
        ctx = JetContext(["x1", "x2"], ["u", "v"], max_order=3)
        E = ctx.expr
        S = SolvedSystem(
            ctx, 1,
            [
                solved_equation(ctx.jet_by_dirs("u", ["x1"]), E("v")),
                solved_equation(
                    ctx.jet_by_dirs("u", ["x2"]), RationalExpr.const(0)
                ),
            ],
        )
        P = prolong_system(S, 1)
        assert any(
            (ic - E("v[x2]")).is_zero() or (ic + E("v[x2]")).is_zero()
            for ic in P.integrability
        )

    def test_order_overflow(self, hyperbolic_curve):
        ctx = hyperbolic_curve
        E = ctx.expr
        S = SolvedSystem(
            ctx, 1, [implicit_equation(E("y1[x]^2 + y2[x]^2"), E("ch^2"))]
        )
        with pytest.raises(OrderOverflow):
            prolong_system(S, 3)

    @pytest.mark.parametrize("stem, name", [
        ("shell", "A1"),
        ("hj_contact_groupoid", "contact"),
        ("hj_unimodular_groupoid", "unimodular"),
        ("hj_nine_equation", "nine_equation"),
        ("hj_complete_integral", "complete_integral"),
    ])
    def test_composition(self, shell, stem, name):
        S = shell[name] if stem == "shell" else corpus_system(stem, name)
        # each side on a copy of its own: on one S, the second call would
        # return the tower the first one kept
        copy = lambda: SolvedSystem(S.ctx, S.order, S.equations, S.ordering,
                                    S.genericity, S.integrability)
        a = prolong_system(prolong_system(copy(), 1), 1)
        b = prolong_system(copy(), 2)
        assert a is not b
        keys = lambda exprs: sorted(str(e) for e in exprs)
        assert keys(a.residuals()) == keys(b.residuals())
        assert keys(a.integrability) == keys(b.integrability)

    @pytest.mark.parametrize("stem, name", PROLONG_SYSTEMS)
    def test_tower_equals_a_fresh_prolongation(self, stem, name):
        # prolonged to 1, then 2, then 3 on one S, each call extending the
        # rounds the last one kept, against each height on a fresh system
        S = corpus_system(stem, name, max_order=5)
        for r in range(1, 4):
            if S.order + r > S.ctx.max_order:
                break
            got = prolong_system(S, r)
            assert prolong_system(S, r) is got
            fresh = prolong_system(corpus_system(stem, name, max_order=5), r)
            assert got is not fresh and got.order == fresh.order
            assert [(e.residual, e.leading) for e in got.equations] \
                == [(e.residual, e.leading) for e in fresh.equations]
            assert got.integrability == fresh.integrability

    @pytest.mark.parametrize("stem, name", PROLONG_SYSTEMS)
    @pytest.mark.parametrize("r", [1, 2])
    def test_no_repeated_equations(self, stem, name, r):
        P = prolong_system(corpus_system(stem, name, max_order=5), r)
        seen = set()
        for k, res in enumerate(P.residuals()):
            assert not res.is_zero(), k
            assert res not in seen and -res not in seen, (k, res)
            seen.add(res)

    def test_contact_compatibility_count_at_r2(self):
        # 30 distinct equations times 3 independents, minus rank 24
        S = corpus_system("hj_contact_groupoid", "contact", max_order=4)
        P = prolong_system(S, 2)
        assert len(P.equations) == 30
        assert compatibility_count(P) == 66

    def test_restricted_bases(self):
        # u depends on x only, so D_y of u[x] - y is the contradiction -1,
        # whether the equation is stated solved or implicit
        ctx = JetContext(["x", "y"], [("u", ["x"])], max_order=2)
        E = ctx.expr
        solved = SolvedSystem(ctx, 1, [solved_equation(
            ctx.jet_by_dirs("u", ["x"]), E("y"))])
        implicit = SolvedSystem(ctx, 1, [implicit_equation(E("u[x] - y"))])
        a, b = prolong_system(solved, 1), prolong_system(implicit, 1)
        keys = lambda S: sorted(str(r) for r in S.residuals())
        assert keys(a) == keys(b)
        assert E("-1") in a.residuals()
        # D_y of u[x] - x is zero, so it is left out
        free = SolvedSystem(ctx, 1, [implicit_equation(E("u[x] - x"))])
        assert prolong_system(free, 1).residuals() == [E("u[x] - x"),
                                                       E("u[x,x] - 1")]

    @pytest.mark.parametrize("r, solved", [
        (1, {"u": "x^2", "v[x]": "2*x", "u[x]": "2*x", "v[x,x]": "u[x,x]"}),
        (2, {"u": "x^2", "v[x]": "2*x", "u[x]": "2*x", "v[x,x]": "2",
             "u[x,x]": "2", "v[x,x,x]": "u[x,x,x]"}),
    ])
    def test_kept_rhs_cleared_of_a_new_leading_jet(self, r, solved):
        # round 1 solves u = x^2 for u[x], which v[x] = u[x] carries: the
        # kept rhs is cleared of it, and round 2 clears v[x,x]'s of u[x,x]
        S = kept_rhs_system("x^2")
        E = S.ctx.expr
        P = prolong_system(S, r)
        assert P.order == 1 + r and P.integrability == []
        assert all(e.strict for e in P.equations)
        assert [(e.leading.name, e.rhs) for e in P.equations] \
            == [(lead, E(rhs)) for lead, rhs in solved.items()]
        # S keeps its own equations
        assert S.equations[1].rhs == E("u[x]")


def cyclic_system(u_x):
    """u[x] = u_x and w[y] = u[y] over x, y: prolonged once, the fresh
    rhs's of u[x,y] and w[x,y] each clear to the other's leading jet."""
    ctx = JetContext(["x", "y"], ["u", "w"], max_order=3)
    E, j = ctx.expr, ctx.jet_by_dirs
    return SolvedSystem(ctx, 1, [solved_equation(j("u", ["x"]), E(u_x)),
                                 solved_equation(j("w", ["y"]), E("u[y]"))])


def kept_rhs_system(u):
    """u = <u> and v[x] = u[x] over x: D_x of the first solves for u[x],
    which the kept rhs of v[x] carries."""
    ctx = JetContext(["x"], ["u", "v"], max_order=4)
    E, j = ctx.expr, ctx.jet_by_dirs
    return SolvedSystem(ctx, 1, [solved_equation(j("u", []), E(u)),
                                 solved_equation(j("v", ["x"]), E("u[x]"))])


def own_lead_systems():
    """Systems whose first prolongation clears a fresh rhs back to its
    own leading jet (the cyclic ones, and u = 2*v, where S's rhs of v[x]
    brings u[x] back to D_x u's rhs), or clears a kept rhs of S."""
    return ([cyclic_system(u_x) for u_x in ("w[x]", "2*w[x]", "x*w[x]")]
            + [kept_rhs_system(u) for u in ("2*v", "x^2")])


class TestClearingCycles:
    """A fresh rhs that its clearing brings back to its own leading jet,
    as a*lead + b: solved for lead when a is a constant other than 1, and
    kept unsolved otherwise."""

    def test_coefficient_one_keeps_the_equation(self):
        # u[x,y] = w[x,y] and w[x,y] = u[x,y] are one equation, which
        # must stay: 12 jets of order <= 2 less u[x], w[y], u[x,x],
        # u[x,y] - w[x,y] and w[y,y]
        S = cyclic_system("w[x]")
        P = prolong_system(S, 1)
        E = S.ctx.expr
        assert P.integrability == []
        assert E("u[x,y] - w[x,y]") in P.residuals()
        assert fiber_dimension(P) == 12 - 5 == 7
        assert symbol_of(P).rank() == 3
        assert _prolonged_symbol(symbol_of(S)).rank() == 3

    def test_constant_coefficient_is_solved(self):
        # u[x,y] = 2*w[x,y] and w[x,y] = u[x,y] give u[x,y] = w[x,y] = 0
        S = cyclic_system("2*w[x]")
        P = prolong_system(S, 1)
        E = S.ctx.expr
        assert [(e.leading.name, e.rhs) for e in P.equations
                if e.strict and e.leading.name in ("u[x,y]", "w[x,y]")] \
            == [("u[x,y]", E("0")), ("w[x,y]", E("0"))]
        assert fiber_dimension(P) == 12 - 6 == 6
        assert symbol_of(P).rank() == 4
        assert _prolonged_symbol(symbol_of(S)).rank() == 4

    def test_condition_cleared_by_a_later_solution(self):
        # at r = 2 two derivations reach a jet, and their difference
        # -2*w[x,x,y] is found before the same round solves w[x,x,y] = 0:
        # cleared with the round's final table, it is 0 and not kept
        S = cyclic_system("2*w[x]")
        P = prolong_system(S, 2)
        E = S.ctx.expr
        assert P.integrability == []
        assert [e.rhs for e in P.equations
                if e.strict and e.leading.name == "w[x,x,y]"] == [E("0")]

    def test_kept_rhs_of_s_brings_the_lead_back(self):
        # D_x of u = 2*v is u[x] = 2*v[x], and S's v[x] = u[x] makes it
        # u[x] = 2*u[x]: u[x] = 0, and the kept v[x] = u[x] clears to 0
        S = kept_rhs_system("2*v")
        P = prolong_system(S, 1)
        E = S.ctx.expr
        assert [(e.leading.name, e.rhs) for e in P.equations] == [
            ("u", E("2*v")), ("v[x]", E("0")), ("u[x]", E("0")),
            ("v[x,x]", E("u[x,x]"))]
        assert fiber_dimension(P) == 6 - 4 == 2

    def test_non_constant_coefficient_is_not_divided_by(self):
        # u[x] = x*w[x] and w[y] = u[y]: w[x,y] = u[x,y] clears to
        # x*w[x,y], so (1 - x)*w[x,y] = 0 is kept unsolved, declaring
        # w[x,y], and 1 - x is never divided by
        S = cyclic_system("x*w[x]")
        P = prolong_system(S, 1)
        E, j = S.ctx.expr, S.ctx.jet_by_dirs
        kept = [e for e in P.equations if e.leading == j("w", ["x", "y"])]
        assert len(kept) == 1 and not kept[0].strict
        assert kept[0].residual == E("(1 - x)*w[x,y]")


class TestSubstituteLeadings:
    @staticmethod
    def chain():
        """Two links of leading jets: u[x] -> v[x] + 1 -> w + 1."""
        ctx = JetContext(["x"], ["u", "v", "w"], max_order=2)
        E = ctx.expr
        table = {
            ctx.jet_by_dirs("u", ["x"]): E("v[x] + 1"),
            ctx.jet_by_dirs("v", ["x"]): E("w"),
        }
        return E, table

    @staticmethod
    def long_chain(links):
        """u0[x] -> u1[x] -> ... -> w: one pass per link."""
        deps = [f"u{k}" for k in range(links)]
        ctx = JetContext(["x"], deps + ["w"], max_order=1)
        jets = [ctx.jet_by_dirs(d, ["x"]) for d in deps]
        targets = [RationalExpr.var(v) for v in jets[1:]] + [ctx.expr("w")]
        return ctx.expr, dict(zip(jets, targets))

    def test_chain_within_cap(self):
        E, table = self.chain()
        assert _substitute_leadings(E("x*u[x]"), table) == E("x*(w + 1)")
        E, table = self.long_chain(MAX_PASSES)
        assert _substitute_leadings(E("u0[x]"), table) == E("w")

    def test_one_substitution_per_pass(self, monkeypatch):
        ctx = JetContext(["x"], ["u", "v", "w"], max_order=2)
        E = ctx.expr
        table = {
            ctx.jet_by_dirs("u", ["x"]): E("w + 1"),
            ctx.jet_by_dirs("v", ["x"]): E("w^2"),
        }
        calls = []

        def counted(e, bindings):
            calls.append(sorted(v.name for v in bindings))
            return substitute(e, bindings)

        monkeypatch.setattr(symcore, "substitute", counted)
        out = _substitute_leadings(E("u[x]*v[x] + x"), table)
        assert out == E("(w + 1)*w^2 + x")
        assert calls == [["u[x]", "v[x]"]]

    def test_pass_cap_is_loud(self):
        E, table = self.long_chain(MAX_PASSES + 1)
        last = f"u{MAX_PASSES}"
        with pytest.raises(LeadingsNotEliminated,
                           match=rf"{last}\[x\] remain after {MAX_PASSES} "
                                 r"substitution passes"):
            _substitute_leadings(E("u0[x]"), table)


class TestSymbol:
    def test_shell_rows(self, shell):
        sym = symbol_of(shell["A2"])
        # only the six second-contact equations linearize at order 2
        assert len(sym.rows) == 6
        ctx = shell["ctx"]
        E = ctx.expr
        col = sym.columns.index(ctx.jet_by_dirs("y2", ["x1", "x2"]))
        # the row of the (r=1, ij=12) equation carries y2_{x1}, times the
        # row's one nonzero factor, here a constant
        hits = [RationalExpr(row[col]) for row in sym.rows if col in row]
        assert any((c / E("y2[x1]")).is_constant() for c in hits)

    def test_extra_row(self, shell, shell_extra):
        assert len(symbol_of(shell_extra).rows) == 7

    def test_chain_zero_symbol(self, hyperbolic_curve):
        ctx = hyperbolic_curve
        E = ctx.expr
        S = SolvedSystem(
            ctx, 2,
            [
                implicit_equation(E("y1[x]^2 + y2[x]^2"), E("ch^2")),
                implicit_equation(
                    E("y1[x]*y1[x,x] + y2[x]*y2[x,x]"), E("sh*ch")
                ),
                implicit_equation(
                    E("y1[x]*y2[x,x] - y2[x]*y1[x,x]"), E("ch")
                ),
            ],
        )
        assert symbol_of(S).dimension() == 0


class TestCharacters:
    def test_shell(self, shell):
        assert characters(shell["A2"]) == (2, 1)

    def test_shell_projected(self, shell_extra):
        assert characters(shell_extra) == (2, 0)

    def test_unimodular_groupoid(self, unimodular_groupoid):
        assert sorted(characters(unimodular_groupoid)) == [0, 1, 2]

    def test_nine_equation_system(self, unimodular_integral_system):
        assert sorted(characters(unimodular_integral_system)) == [0, 0, 1, 2]

    def test_eleven_equation_system(self, additive_integral_system):
        assert sorted(characters(additive_integral_system)) == [0, 0, 0, 1]

    def test_order_zero_system(self):
        ctx = JetContext(["x1", "x2"], ["u"], max_order=2)
        E = ctx.expr
        implicit = SolvedSystem(
            ctx, 0, [implicit_equation(E("u^2"), E("x1"))]
        )
        solved = SolvedSystem(
            ctx, 0, [solved_equation(ctx.jet_by_dirs("u", []), E("x1"))]
        )
        for S in (implicit, solved):
            with pytest.raises(ValueError, match="order >= 1"):
                characters(S)
            with pytest.raises(ValueError, match="order >= 1"):
                cartan_test(S)


class TestCartan:
    def test_shell(self, shell):
        r = cartan_test(shell["A2"])
        assert r.ok
        assert r.numbers["dim_symbol_next"] == 4
        assert r.numbers["bound"] == 4

    def test_zero_symbol(self, shell):
        r = cartan_test(shell["A2c"])
        assert r.ok and r.numbers["dim_symbol_next"] == 0

    def test_full_jet_space(self):
        ctx = JetContext(["x1", "x2"], ["u"], max_order=3)
        S = SolvedSystem(ctx, 1, [])
        r = cartan_test(S)
        assert r.ok
        assert r.numbers["characters"] == (1, 1)
        assert r.numbers["bound"] == 3

    def test_bound_is_upper_bound(
        self, unimodular_groupoid, unimodular_integral_system,
        additive_integral_system,
    ):
        for S in (
            unimodular_groupoid,
            unimodular_integral_system,
            additive_integral_system,
        ):
            r = cartan_test(S)
            assert r.numbers["dim_symbol_next"] <= r.numbers["bound"]


class TestJanetBoard:
    def test_contact_groupoid(self, contact_groupoid):
        assert janet_board(contact_groupoid).render() == (
            "Z P X\n"
            "Z P X\n"
            "Z P •\n"
        )

    def test_complete_integral(self, complete_integral_system):
        assert janet_board(complete_integral_system).render() == (
            "z p t x\n"
            "z p t x\n"
            "z p t x\n"
            "z p t •\n"
            "z p t •\n"
            "z p • •\n"
        )

    def test_unimodular_groupoid(self, unimodular_groupoid):
        assert janet_board(unimodular_groupoid).render() == (
            "P X Z\n"
            "P X Z\n"
            "P X Z\n"
            "P X •\n"
            "P X •\n"
            "P • •\n"
        )

    def test_nine_rows(self, unimodular_integral_system):
        assert janet_board(unimodular_integral_system).render() == (
            "t p x z\n"
            "t p x z\n"
            "t p x z\n"
            "t p x •\n"
            "t p x •\n"
            "t p x •\n"
            "t p • •\n"
            "t p • •\n"
            "t • • •\n"
        )

    def test_eleven_rows(self, additive_integral_system):
        assert janet_board(additive_integral_system).render() == (
            "p t x z\n"
            "p t x z\n"
            "p t x z\n"
            "p t x •\n"
            "p t x •\n"
            "p t x •\n"
            "p t • •\n"
            "p t • •\n"
            "p t • •\n"
            "p • • •\n"
            "p • • •\n"
        )

    def test_single_equation(self):
        ctx = JetContext(["x1"], ["u"], max_order=2)
        S = SolvedSystem(
            ctx, 1,
            [solved_equation(ctx.jet_by_dirs("u", ["x1"]),
                             RationalExpr.const(0))],
        )
        assert janet_board(S).render() == "x1\n"

    def test_order_0_leading_is_a_typed_error(self):
        # y[x] = 0 and u = x: a system of order 1 whose second equation
        # is solved for an order-0 jet, which has no class
        ctx = JetContext(["x"], ["y", "u"], max_order=2)
        S = SolvedSystem(ctx, 1, [
            solved_equation(ctx.jet_by_dirs("y", ["x"]), symcore.ZERO),
            solved_equation(ctx.jet_by_dirs("u", []), ctx.expr("x")),
        ])
        with pytest.raises(ClasslessLeading, match="u has no class"):
            janet_board(S)

    def test_permutation_stable(self, unimodular_integral_system):
        S = unimodular_integral_system
        perm = SolvedSystem(
            S.ctx, S.order, list(reversed(S.equations)), S.ordering,
            S.genericity,
        )
        assert janet_board(perm).render() == janet_board(S).render()


class TestFiberDimension:
    def test_shell_dims(self, shell, shell_extra):
        w = shell["witness"]
        assert fiber_dimension(shell["A1"], w) == 6
        assert fiber_dimension(shell["A2"], w) == 9
        assert fiber_dimension(shell_extra, w) == 8
        assert fiber_dimension(shell["A2c"], w) == 6

    def test_shell_tower(self, shell):
        w = shell["witness"]
        cur = shell["A2"]
        for r in (1, 2, 3):
            cur = prolong_system(cur, 1)
            assert fiber_dimension(cur, w) == 3 * (r - 1) + 12

    def test_projected_tower(self, shell, shell_extra):
        w = shell["witness"]
        cur = shell_extra
        for r in (1, 2, 3):
            cur = prolong_system(cur, 1)
            assert fiber_dimension(cur, w) == 2 * r + 8

    def test_characters_sum_rule(self, shell):
        alpha = characters(shell["A2"])
        assert sum(alpha) == symbol_of(shell["A2"]).dimension()

    def test_contact_dims(
        self, contact_groupoid, unimodular_groupoid,
        complete_integral_system, unimodular_integral_system,
        additive_integral_system,
    ):
        assert fiber_dimension(contact_groupoid) == 9
        assert fiber_dimension(unimodular_groupoid) == 6
        assert fiber_dimension(complete_integral_system) == 9
        assert fiber_dimension(unimodular_integral_system) == 6
        assert fiber_dimension(additive_integral_system) == 4

    def test_solved_values_satisfy_area_relations(
        self, unimodular_integral_system
    ):
        """The nine solved right-hand sides reproduce the three 2x2
        Jacobian relations they were eliminated from."""
        S = unimodular_integral_system
        ctx = S.ctx
        E = ctx.expr
        b = {
            e.leading: e.rhs for e in S.equations
            if ctx.jet_info(e.leading)[0] in ("X", "P")
        }
        Hx, Hp = E("1"), E("p")
        checks = [
            substitute(E("X[x]*P[p] - X[p]*P[x]"), b) - 1,
            substitute(E("X[x]*P[t] - X[t]*P[x]"), b) - Hx,
            substitute(E("X[p]*P[t] - X[t]*P[p]"), b) - Hp,
        ]
        assert all(c.is_zero() for c in checks)

    def test_off_variety_witness_rejected(self, shell):
        w = dict(shell["witness"])
        ctx = shell["ctx"]
        w[ctx.jet_by_dirs("y3", ["x1"])] += 1
        with pytest.raises(OffVariety):
            fiber_dimension(shell["A1"], w)

    def test_witness_killing_genericity_rejected(self):
        # on the variety u[x] = 0, but at u = 0, where the declared
        # genericity u vanishes
        ctx = JetContext(["x"], ["u"], max_order=1)
        E = ctx.expr
        S = SolvedSystem(ctx, 1, [implicit_equation(E("u[x]"))],
                         genericity=[E("u")])
        w = {ctx.var("x"): Fraction(1),
             ctx.jet_by_dirs("u", []): Fraction(0),
             ctx.jet_by_dirs("u", ["x"]): Fraction(0)}
        with pytest.raises(DegenerateLocus, match="witness kills genericity"):
            fiber_dimension(S, w)


class TestCriteria:
    def test_phs_first_order(self, shell, rigid):
        r = phs_check(
            shell["A1"], rigid["R1"], shell["witness"], rigid["witness"]
        )
        assert r.ok and r.numbers == {"dim_system": 6, "dim_groupoid": 6}

    def test_phs_fails_after_prolongation(self, shell, rigid):
        r = phs_check(
            prolong_system(shell["A1"], 1),
            prolong_system(rigid["R1"], 1),
            shell["witness"], rigid["witness"],
        )
        assert r.status == "FAIL"
        assert r.numbers == {"dim_system": 9, "dim_groupoid": 6}

    def test_phs_area_curves(self):
        """Second-order curve condition against the area-preserving
        point groupoid: 5 = 5."""
        ctx = JetContext(["x"], ["y1", "y2"], max_order=3)
        E = ctx.expr
        A = SolvedSystem(
            ctx, 2,
            [implicit_equation(
                E("y1[x]*y2[x,x] - y2[x]*y1[x,x]"), RationalExpr.const(1)
            )],
        )
        sec = holonomic_section(ctx, {"y1": E("x"), "y2": E("x^2/2")}, 3)
        wa = witness_from_section(sec, {ctx.var("x"): Fraction(2)})
        gctx = JetContext(["y1", "y2"], ["w1", "w2"], max_order=2)
        GE = gctx.expr
        R = SolvedSystem(
            gctx, 1,
            [implicit_equation(
                GE("w1[y1]*w2[y2] - w1[y2]*w2[y1]"), RationalExpr.const(1)
            )],
        )
        gsec = holonomic_section(gctx, {"w1": GE("y1"), "w2": GE("y2")}, 2)
        wr = witness_from_section(
            gsec, {gctx.var("y1"): Fraction(1), gctx.var("y2"): Fraction(3)}
        )
        r = phs_check(A, R, wa, wr)
        assert r.ok and r.numbers == {"dim_system": 5, "dim_groupoid": 5}

    def test_automorphic_completed_shell(self, shell, rigid):
        R2 = prolong_system(rigid["R1"], 1)
        r = automorphic_criterion(
            shell["A2c"], R2, shell["witness"], rigid["witness"]
        )
        assert r.ok
        assert r.numbers["dim_system_q"] == 6
        assert r.numbers["dim_groupoid_q"] == 6
        assert r.numbers["dim_system_q1"] == 6
        assert r.numbers["dim_groupoid_q1"] == 6

    def test_automorphic_fails_for_metric_alone(self, shell, rigid):
        r = automorphic_criterion(
            shell["A1"], rigid["R1"], shell["witness"], rigid["witness"]
        )
        assert r.status == "FAIL"

    def test_compatibility_count(self, shell):
        assert compatibility_count(shell["A2c"]) == 12


# ---------------------------------------------------------------------------
# compatibility counts against the total-derivative construction


def reference_compatibility_count(S):
    """Rows D_x res for every equation and independent x, linearized in
    the order-(q+1) jets by coordinate partials, then ranked."""
    ctx = S.ctx
    cols = [v for v in ctx.jets_up_to(S.order + 1) if v.key[2] == S.order + 1]
    rows = []
    for res in S.residuals():
        for x in ctx.independents:
            d = ctx.total_derivative(res, x)
            rows.append({j: coordinate_partial(d, v)
                         for j, v in enumerate(cols)})
    return len(rows) - rank(rows, len(cols))


def corpus_system(stem, name, max_order=3):
    path = cli.default_corpus_dir() / f"{stem}.json"
    pf = cli.parse_problem(path.read_bytes(), str(path), max_order=max_order)
    return cli._build(pf, name, "system")


class TestCompatibilityCount:
    def test_saddle_matches_total_derivatives(self, shell):
        S = shell["A2c"]
        assert compatibility_count(S) == reference_compatibility_count(S)

    @pytest.mark.parametrize("stem, name", [
        ("hj_contact_groupoid", "contact"),
        ("hj_unimodular_groupoid", "unimodular"),
        ("hj_eleven_equation", "eleven_equation"),
    ])
    @pytest.mark.parametrize("r", [0, 1])
    def test_corpus_matches_total_derivatives(self, stem, name, r):
        S = prolong_system(corpus_system(stem, name), r)
        assert compatibility_count(S) == reference_compatibility_count(S)

    def test_lower_order_equations_still_count(self):
        # u_x = 0 and u = 0: D_x u = u_x carries no order-2 jet, so its
        # row is zero in the prolonged symbol but counts as a condition
        ctx = JetContext(["x"], ["u"], max_order=2)
        E = ctx.expr
        S = SolvedSystem(ctx, 1, [implicit_equation(E("u[x]")),
                                  implicit_equation(E("u"))])
        assert compatibility_count(S) == reference_compatibility_count(S) == 1


class TestOrderInvariant:
    def test_jet_above_order_raises(self):
        ctx = JetContext(["x"], ["u"], max_order=2)
        E = ctx.expr
        above = jet_above_order([implicit_equation(E("u[x] + u[x,x]"))], 1)
        assert above[0] == 0
        assert re.search(r"u\[x,x\] of order 2.*order 1", above[1])
        assert jet_above_order([solved_equation(
            ctx.jet_by_dirs("u", ["x"]), E("u[x,x]"))], 1) is not None

    def test_cancelling_high_jet_is_allowed(self):
        ctx = JetContext(["x"], ["u"], max_order=2)
        E = ctx.expr
        S = SolvedSystem(ctx, 1, [implicit_equation(E("u[x] + u[x,x]"),
                                                    E("u[x,x] + u"))])
        assert jet_above_order(S.equations, 1) is None
        assert S.residuals() == [E("u[x] - u")]


class TestLeadingJetConflict:
    def test_conflicts_are_typed(self):
        ctx = JetContext(["x", "z"], ["u"], max_order=2)
        E, jet = ctx.expr, ctx.jet_by_dirs
        ux, uz = jet("u", ["x"]), jet("u", ["z"])
        conflict = leading_conflict([solved_equation(ux, E("0")),
                                     solved_equation(ux, E("x"))])
        assert conflict[0] == 1
        assert re.search(r"duplicate leading jet u\[x\] \(also "
                         r"equations\[0\]\)", conflict[1])
        conflict = leading_conflict([solved_equation(ux, E("u[z]")),
                                     solved_equation(uz, E("0"))])
        assert conflict[0] == 0
        assert re.search(r"rhs of u\[x\] contains leading jet u\[z\]",
                         conflict[1])


class TestEquationResidual:
    def test_formed_once(self):
        ctx = JetContext(["x"], ["u"], max_order=2)
        E = ctx.expr
        eq = implicit_equation(E("u[x] + u[x,x]"), E("u[x,x] + u"))
        r = eq.residual
        assert r is eq.residual
        assert r == eq.lhs - eq.rhs == E("u[x] - u")


# ---------------------------------------------------------------------------
# sparse row updates in rref against dense elimination


def dense_rref(rows, ncols):
    """Elimination that updates every entry of every row, over dense
    rows (lists)."""
    def weight(x):
        x = RationalExpr._coerce(x)
        return len(x.num.terms) + len(x.den.terms)

    rows = [[RationalExpr._coerce(x) for x in r] for r in rows]
    pivots, used = [], set()
    for col in range(ncols):
        cands = [r for r in range(len(rows))
                 if r not in used and not rows[r][col].is_zero()]
        if not cands:
            continue
        best = min(cands, key=lambda r: weight(rows[r][col]))
        used.add(best)
        pivots.append((best, col))
        pv = rows[best][col]
        rows[best] = [x / pv for x in rows[best]]
        for r in range(len(rows)):
            f = rows[r][col]
            if r != best and not f.is_zero():
                rows[r] = [a - f * b for a, b in zip(rows[r], rows[best])]
    return rows, pivots


def fraction_free_pivots(rows, ncols):
    """The pivots of linalg's documented rule, on dense rows: a column
    carried by one free row takes that entry; when several carry it,
    each is multiplied by the product of its distinct denominators
    (once), the entry of fewest numerator terms is the pivot, the
    earliest row winning a tie, and every other such row becomes
    pv*row - a*prow.  Term counts ignore integer factors, so the rows'
    integer contents are left in."""
    rows = [[RationalExpr._coerce(x) for x in r] for r in rows]
    pivots, used, cleared = [], set(), set()
    for col in range(ncols):
        cands = [r for r in range(len(rows))
                 if r not in used and not rows[r][col].is_zero()]
        if not cands:
            continue
        best = cands[0]
        if len(cands) > 1:
            for r in set(cands) - cleared:
                dens = []
                for x in rows[r]:
                    if not x.is_zero() and x.den not in dens:
                        dens.append(x.den)
                d = RationalExpr(math.prod(dens, start=Polynomial.const(1)))
                rows[r] = [x * d for x in rows[r]]
                cleared.add(r)
            best = min(cands, key=lambda r: len(rows[r][col].num.terms))
            pv = rows[best][col]
            for r in cands:
                if r != best:
                    a = rows[r][col]
                    rows[r] = [pv * x - a * y
                               for x, y in zip(rows[r], rows[best])]
        used.add(best)
        pivots.append((best, col))
    return pivots


def span_rank(vectors):
    return len(dense_rref(vectors, len(vectors[0]))[1]) if vectors else 0


class TestSparseRref:
    @staticmethod
    def entry(rng, ctx):
        """Zero half the time, else a Fraction or a small rational
        function."""
        if rng.random() < 0.5:
            return rng.choice([Fraction(0), RationalExpr.const(0)])
        if rng.random() < 0.5:
            return Fraction(rng.randint(-4, 4) or 1, rng.randint(1, 3))
        E = ctx.expr
        num = E(f"{rng.randint(-3, 3) or 1}*x + {rng.randint(-2, 2)}*y")
        den = E(f"x + {rng.randint(1, 3)}") if rng.random() < 0.3 else E("1")
        return num / den

    def test_matches_dense_elimination(self):
        """Pivot rows follow the fraction-free rule exactly; values match
        field elimination, whose pivot rule (lowest RationalExpr weight)
        may name other pivot rows for the same pivot columns.  Then the
        reduced rows agree in the first ncols columns, and their
        augmented parts differ only by the span of the augmented parts
        left in the rows that are not pivot rows."""
        ctx = JetContext(["x", "y"], ["u"], max_order=1)
        rng = random.Random(31)
        moved = 0
        for case in range(40):
            nrows, ncols = rng.randint(1, 5), rng.randint(1, 5)
            width = ncols + rng.randint(0, 2)  # augmented columns
            dense = [[self.entry(rng, ctx) for _ in range(width)]
                     for _ in range(nrows)]
            # the sparse input may still hold zeros; rref drops them
            rows = [dict(enumerate(r)) for r in dense]
            copies = [dict(r) for r in rows]
            got, got_pivots = rref(rows, ncols)
            want, want_pivots = dense_rref(dense, ncols)
            assert got_pivots == fraction_free_pivots(dense, ncols)
            assert [c for _, c in got_pivots] == [c for _, c in want_pivots]
            moved += got_pivots != want_pivots
            assert rank(rows, ncols) == len(want_pivots)
            assert rows == copies  # neither call mutates its input
            assert len(got) == len(want)
            for g in got:
                assert all(0 <= j < width and not RationalExpr._coerce(
                    x).is_zero() for j, x in g.items())
            got = [[RationalExpr._coerce(g.get(j, 0)) for j in range(width)]
                   for g in got]
            rest = [r for r in range(nrows) if r not in dict(got_pivots)]
            assert all(not any(got[r][:ncols]) for r in rest)
            left = [got[r][ncols:] for r in rest]
            want_left = [want[r][ncols:] for r in range(nrows)
                         if r not in dict(want_pivots)]
            assert (span_rank(left) == span_rank(want_left)
                    == span_rank(left + want_left))
            for (p, _), (q, _) in zip(got_pivots, want_pivots):
                assert got[p][:ncols] == want[q][:ncols]
                diff = [a - b for a, b in zip(got[p][ncols:], want[q][ncols:])]
                assert span_rank(want_left + [diff]) == span_rank(want_left)
        # the two rules name other pivot rows in 5 cases, so the span
        # comparison of augmented parts is exercised
        assert moved == 5

    def test_rank_fixed_cases(self):
        assert rank([], 0) == rank([], 3) == 0
        assert rank([{0: 0, 1: Fraction(0)},
                     {0: RationalExpr.const(0), 1: 0}], 2) == 0
        # int entries: 1/49 * 49 is not 1 in floats, so this is exact
        assert rank([{0: 49, 1: 49}, {0: 1, 1: 1}], 2) == 1
        assert rank([{0: 2, 1: 1}, {0: 4, 1: 3}], 2) == 2
        # nonzero entries past ncols are not counted
        assert rank([{0: 1, 1: 2, 2: 5}, {0: 2, 1: 4, 2: 7}], 2) == 1
        assert rank([{2: 1}], 2) == 0
        assert rank([{}, {1: 3}], 2) == 1

    def test_skipped_entries_keep_their_type(self):
        ctx = JetContext(["x"], ["u"], max_order=1)
        x = ctx.expr("x")
        got, pivots = rref([{0: x, 2: Fraction(3)},
                            {0: x, 1: Fraction(2)}], 2)
        assert pivots == [(0, 0), (1, 1)]
        assert got[1] == {1: 1, 2: Fraction(-3, 2)}
        # row 0 has no column 1, so that entry of row 1 is only divided
        assert type(got[1][1]) is Fraction
        # and column 1 of row 0 is never computed, so never stored
        assert got[0] == {0: 1, 2: 3 / x}

    def test_int_entries_never_give_floats(self):
        got, pivots = rref([{0: 2, 1: 1}, {0: 4, 1: 3}], 2)
        assert pivots == [(0, 0), (1, 1)]
        flat = [x for row in got for x in row.values()]
        assert all(isinstance(x, (Fraction, RationalExpr)) for x in flat)
        assert got == [{0: 1}, {1: 1}]
        got, _ = rref([{0: 2, 1: 1, 2: 1}, {0: 4, 1: 3}], 2)
        assert got[0][2] == Fraction(3, 2) and type(got[0][2]) is Fraction

    def test_rows_that_vanish_are_empty(self):
        got, pivots = rref(
            [{0: 1, 1: 2}, {0: 2, 1: 4}, {0: 1, 1: 2, 2: 5}], 2)
        assert pivots == [(0, 0)]
        # a row that is not a pivot row keeps only its augmented part, up
        # to a nonzero factor: here its integer content 5 is taken out
        assert got == [{0: 1, 1: 2}, {}, {2: 1}]


# ---------------------------------------------------------------------------
# symbol ranks against plain Fraction elimination at rational points


def fraction_rank(rows):
    """Textbook Gaussian elimination over Fractions."""
    rows = [list(r) for r in rows]
    done = 0
    for c in range(len(rows[0]) if rows else 0):
        pivot = next((i for i in range(done, len(rows)) if rows[i][c]), None)
        if pivot is None:
            continue
        rows[done], rows[pivot] = rows[pivot], rows[done]
        for i in range(done + 1, len(rows)):
            f = rows[i][c] / rows[done][c]
            rows[i] = [a - f * b for a, b in zip(rows[i], rows[done])]
        done += 1
    return done


class TestSymbolRankOracle:
    """A symbol rank over the function field is at least its rank at any
    rational point where the entries and the genericity are defined and
    nonzero, and reaches it at almost every such point."""

    @pytest.mark.parametrize("stem, name", [
        ("shell_monkey_saddle", "metric_system"),
        ("shell_monkey_saddle", "completed_system"),
        ("hj_contact_groupoid", "contact"),
        ("hj_unimodular_groupoid", "unimodular"),
        ("hj_eleven_equation", "eleven_equation"),
        ("hj_nine_equation", "nine_equation"),
    ])
    @pytest.mark.parametrize("r", [0, 1, 2])
    def test_point_ranks_bound_and_reach_the_rank(self, stem, name, r):
        P = prolong_system(corpus_system(stem, name, max_order=5), r)
        sym = symbol_of(P)
        gens = P.assumptions()
        exprs = gens + [e for row in sym.rows for e in row.values()]
        variables = sorted({v for e in exprs for v in e.variables()})
        rng = random.Random(f"{name}:{r}")
        point_ranks = []
        while len(point_ranks) < 3:
            point = {v: Fraction(rng.randint(-9, 9), rng.randint(1, 4))
                     for v in variables}
            try:
                if any(eval_point(g, point) == 0 for g in gens):
                    continue
                matrix = [[eval_point(row[j], point) if j in row else 0
                           for j in range(len(sym.columns))]
                          for row in sym.rows]
            except DenominatorVanishes:
                continue
            point_ranks.append(fraction_rank(matrix))
        exact = sym.rank()
        assert all(pr <= exact for pr in point_ranks), (point_ranks, exact)
        assert exact in point_ranks, (point_ranks, exact)


# ---------------------------------------------------------------------------
# flat Killing and conformal Killing equations: closed-form group dimensions


def killing_system(n, conformal=False):
    """The Killing equations of the flat metric on R^n in solved form,
    u_j,i = -u_i,j (i < j) and u_i,i = 0; the conformal Killing
    equations replace the last by u_i,i = u_0,0 (i >= 1)."""
    xs, us = [f"x{i}" for i in range(n)], [f"u{i}" for i in range(n)]
    ctx = JetContext(xs, us, max_order=4)

    def d(j, i):  # the jet u_j,x_i
        return ctx.jet(us[j], tuple(int(k == i) for k in range(n)))

    eqs = [solved_equation(d(j, i), -RationalExpr.var(d(i, j)))
           for i in range(n) for j in range(i + 1, n)]
    trace = RationalExpr.var(d(0, 0)) if conformal else symcore.ZERO
    eqs += [solved_equation(d(i, i), trace)
            for i in range(1 if conformal else 0, n)]
    return SolvedSystem(ctx, 1, eqs)


def zero_jet_witness(S):
    """Every jet 0 at x = (2, 3, ...): the equations are linear and
    homogeneous, so the point is on the variety."""
    ctx = S.ctx
    point = {ctx.var(x): 2 + i for i, x in enumerate(ctx.independents)}
    point.update((v, 0) for v in ctx.jets_up_to(S.order))
    return point


# (n, conformal) with the group dimension, n(n+1)/2 for the Euclidean
# group and (n+1)(n+2)/2 for the conformal group (n >= 3), and the
# dimension of g_2, the symbol of the first prolongation: 0 for Killing
# (finite type at order 1) and n for conformal Killing
KILLING_FAMILIES = [
    (2, False, 3, 0),
    (3, False, 6, 0),
    (4, False, 10, 0),
    (3, True, 10, 3),
    (4, True, 15, 4),
]


# an order-(q+1) difference of two strict derivations is lost from the
# equations; these start to pass when ROADMAP item 3 lands
ITEM_3 = pytest.mark.xfail(strict=True, raises=AssertionError,
                           reason="ROADMAP item 3: strict collisions of "
                           "order q+1 go on integrability")


def killing_id(case):
    n, conformal = case[:2]
    return f"{'conformal' if conformal else 'killing'}-{n}"


class TestKillingOracle:
    """Fiber dimensions and symbols of the flat Killing and conformal
    Killing equations against their closed forms (ROADMAP item 3).  The
    prolonged cases are wrong today: two derivations of strict equations
    that reach one leading jet leave their order-(q+1) difference on
    ``integrability``, not on ``equations``."""

    @pytest.mark.parametrize("case", KILLING_FAMILIES, ids=killing_id)
    def test_fiber_dimension_at_order_one(self, case):
        n, conformal = case[:2]
        S = killing_system(n, conformal)
        # n(n+1)/2, one more for conformal: the first-order jets of the
        # group, translations, rotations and the dilation
        assert fiber_dimension(S, zero_jet_witness(S)) == (
            n * (n + 1) // 2 + conformal)

    @pytest.mark.parametrize("case", KILLING_FAMILIES, ids=killing_id)
    def test_prolonged_symbol_has_the_closed_form_dimension(self, case):
        n, conformal, _, g2 = case
        sym = symbol_of(killing_system(n, conformal))
        assert _prolonged_symbol(sym).dimension() == g2

    # HEAD gives Killing n = 2: 4, 5; n = 3: 10, 15; n = 4: 20, 35;
    # conformal n = 3: 14, 25, 41; n = 4: 25, 50, 91
    @ITEM_3
    @pytest.mark.parametrize("case, r", [
        (case, r) for case in KILLING_FAMILIES
        for r in range(1, 4 if case[1] else 3)
    ], ids=lambda x: killing_id(x) if isinstance(x, tuple) else f"r{x}")
    def test_prolonged_fiber_dimension_is_the_group_dimension(self, case,
                                                              r):
        n, conformal, dim, _ = case
        P = prolong_system(killing_system(n, conformal), r)
        assert fiber_dimension(P, zero_jet_witness(P)) == dim

    # HEAD gives 1, 4, 10, 7, 14
    @ITEM_3
    @pytest.mark.parametrize("case", KILLING_FAMILIES, ids=killing_id)
    def test_symbol_of_the_prolongation_is_the_prolonged_symbol(self,
                                                                case):
        n, conformal, _, g2 = case
        P = prolong_system(killing_system(n, conformal), 1)
        assert symbol_of(P).dimension() == g2
