"""Differential tests of the derivation kernel ``symcore.derive``, of
``substitute`` over one common denominator, of the sparse symbol rows
and witness Jacobians of ``systems`` and of the fraction-free
``linalg.rank`` and ``linalg.rref``, against the term-by-term operator
loops, the dense row builders, the field elimination and the field
back-substitution they replaced; those are kept here as references.
The symbol dimensions along the prolongation tower are held to Cartan's
formula.
"""
import contextlib
import itertools
import json
import math
import random
import signal
from fractions import Fraction
from pathlib import Path

import pytest

from vessiot import cli, linalg, symcore, systems
from vessiot.errors import (
    CyclicBinding,
    DenominatorVanishes,
    DivisionByZero,
)
from vessiot.jets import JetContext, VectorField, holonomic_section, jet_order
from vessiot.symcore import (
    ONE,
    ZERO,
    Polynomial,
    RationalExpr,
    coordinate_partial,
    derive,
    mono_make,
    substitute,
    sum_of_products,
)
from test_symcore import complexity, ref_poly_partial
from test_systems import fraction_rank, reference_compatibility_count

CORPUS = Path(__file__).resolve().parents[1] / "src" / "vessiot" / "corpus"
PROLONG_SYSTEMS = (
    ("shell_monkey_saddle", "metric_system"),
    ("shell_monkey_saddle", "completed_system"),
    ("hj_contact_groupoid", "contact"),
    ("hj_unimodular_groupoid", "unimodular"),
    ("hj_eleven_equation", "eleven_equation"),
    ("hj_nine_equation", "nine_equation"),
)


# -- the reference loops ------------------------------------------------
def ref_coordinate_partial(e, v):
    """(n'd - nd') / d^2 through the full-gcd constructor."""
    n, d = e.num, e.den
    return RationalExpr(ref_poly_partial(n, v) * d
                        - n * ref_poly_partial(d, v), d * d)


def ref_derive(e, coeffs):
    out = ZERO
    for v, c in coeffs:
        out = out + c * ref_coordinate_partial(e, v)
    return out


def ref_partial(e, v, chain=()):
    out = ref_coordinate_partial(e, v)
    for s, ds in chain:
        g = ref_coordinate_partial(e, s)
        if not g.is_zero():
            out = out + g * ds
    return out


def ref_total_derivative(ctx, e, i):
    xi = ctx.independents[i]
    ctx._ensure_special_tables()
    out = ref_partial(e, ctx.var(xi), ctx._chains.get(xi, ()))
    for w in sorted(e.variables()):
        if w.kind != "jet":
            continue
        dep, mu = ctx.jet_info(w)
        nu = ctx.bump(dep, mu, i)
        if nu is None:
            continue
        g = ref_coordinate_partial(e, w)
        if not g.is_zero():
            out = out + g * RationalExpr.var(ctx.jet(dep, nu))
    return out


def ref_apply(field, e):
    out = ZERO
    for v, c in field.components.items():
        g = ref_coordinate_partial(e, v)
        if not g.is_zero():
            out = out + c * g
    return out


def ref_poly_substitute(p, bindings):
    out = ZERO
    for m, c in p.terms.items():
        term = RationalExpr.const(c)
        for v, e in m:
            repl = bindings.get(v)
            if repl is None:
                term = term * RationalExpr(Polynomial.var(v, e))
            else:
                term = term * repl**e
        out = out + term
    return out


def ref_substitute(e, bindings):
    bindings = {v: r for v, r in bindings.items() if r != RationalExpr.var(v)}
    if not bindings:
        return e
    n = ref_poly_substitute(e.num, bindings)
    d = ref_poly_substitute(e.den, bindings)
    if d.is_zero():
        raise DivisionByZero("denominator vanished under substitution")
    return n / d


# -- seeded inputs ------------------------------------------------------
@pytest.fixture
def ctx():
    """x carries ch, sh (the catenary's specials) and z carries lg, whose
    derivative 1/z is not a polynomial."""
    return JetContext(
        ["x", "z"], ["u"], max_order=3,
        specials=[("ch", "x", "sh", "ch^2 -> 1 + sh^2"), ("sh", "x", "ch"),
                  ("lg", "z", "1/z")],
    )


def variables(ctx):
    """The variables a case draws four of; more make the reference loops'
    gcds slow."""
    return [ctx.var(n) for n in ("x", "z", "ch", "sh", "lg")] + [
        ctx.jet_by_dirs("u", dirs) for dirs in ([], ["x"], ["z"], ["x", "z"])
    ]


def rand_poly(rng, vs, nonconstant=False, terms=3, deg=2):
    while True:
        t = {}
        for _ in range(rng.randint(1, terms)):
            m = mono_make((v, rng.randint(1, deg))
                          for v in rng.sample(vs, rng.randint(0, 2)))
            t[m] = rng.choice([-3, -2, -1, 1, 2, 3, Fraction(1, 2)])
        p = Polynomial(t)
        if not p.is_zero() and not (nonconstant and p.is_constant()):
            return p


def rand_expr(rng, vs):
    """A quotient whose denominator is 1, a constant, f, f^2 or f*g."""
    f, g = rand_poly(rng, vs, True, 2, 1), rand_poly(rng, vs, True, 2, 1)
    den = rng.choice([Polynomial.const(1), Polynomial.const(rng.randint(2, 6)),
                      f, f * f, f * g])
    return RationalExpr(rand_poly(rng, vs), den)


def rand_coeffs(rng, vs):
    """Coefficients that share a denominator, carry a repeated factor, have
    distinct denominators, are constants or are zero."""
    f, g = rand_poly(rng, vs, True, 2, 1), rand_poly(rng, vs, True, 2, 1)
    a = [rand_poly(rng, vs, terms=2) for _ in range(5)]
    pool = [ZERO, ONE, RationalExpr.const(Fraction(-3, 2)), RationalExpr(a[0]),
            RationalExpr(a[1], f), RationalExpr(a[2], f),
            RationalExpr(a[3], f * f), RationalExpr(a[4], g)]
    return [(v, rng.choice(pool)) for v in rng.sample(vs, rng.randint(1, 3))]


# -- derive -------------------------------------------------------------
class TestDerive:
    def test_matches_the_operator_sum(self, ctx):
        rng = random.Random(1501)
        for k in range(150):
            vs = rng.sample(variables(ctx), 4)
            e, coeffs = rand_expr(rng, vs), rand_coeffs(rng, vs)
            assert derive(e, coeffs) == ref_derive(e, coeffs), k

    def test_coordinate_partials(self, ctx):
        rng = random.Random(1502)
        for k in range(100):
            vs = rng.sample(variables(ctx), 4)
            e = rand_expr(rng, vs)
            for v in rng.sample(vs, 3):
                assert coordinate_partial(e, v) == ref_coordinate_partial(
                    e, v), (k, v)

    def test_constant_denominator_and_no_derivative_of_it(self, ctx):
        x, z, u = ctx.var("x"), ctx.var("z"), ctx.var("u")
        cases = [
            (ctx.expr("x^2*u/6"), [(x, ONE)]),  # constant d
            (ctx.expr("x^2*u/6"), [(x, ctx.expr("1/(z+1)"))]),
            # D d = 0 but gcd(D n, d) = u: (x*u + 1)/u = x + 1/u
            (ctx.expr("(x*u + 1)/u"), [(x, ONE)]),
            (ctx.expr("(x*u + 1)/u"), [(x, ctx.expr("u/(z+1)"))]),
            (ctx.expr("(x^3 + z)/(u^2 + 1)"),
             [(x, ctx.expr("1/z")), (z, ctx.expr("x/z"))]),
        ]
        for e, coeffs in cases:
            assert derive(e, coeffs) == ref_derive(e, coeffs), e

    def test_results_that_cancel_to_zero(self, ctx):
        x, z = ctx.var("x"), ctx.var("z")
        cases = [
            # a rotation annihilates x^2 + z^2 (D d = 0)
            (ctx.expr("(x^2 + z^2)/(x^2 + z^2 + 1)"), [(x, ctx.expr("z")),
                                                       (z, ctx.expr("-x"))]),
            # the Euler field annihilates x/z (D d = z)
            (ctx.expr("x/z"), [(x, ctx.expr("x")), (z, ctx.expr("z"))]),
            (ctx.expr("x/z"), [(x, ctx.expr("x/(u+1)")),
                               (z, ctx.expr("z/(u+1)"))]),
            (ctx.expr("x/z"), [(x, ZERO), (ctx.var("u"), ONE)]),
            (ctx.expr("x/z"), []),
        ]
        for e, coeffs in cases:
            assert derive(e, coeffs) == ZERO == ref_derive(e, coeffs), e

    def test_one_sweep_over_the_terms(self, ctx):
        # the sweep takes each term once for all of its variables
        x, z, u = ctx.var("x"), ctx.var("z"), ctx.var("u")
        ux = ctx.jet_by_dirs("u", ["x"])
        f = ctx.expr("1/(z + 1)")
        cases = [
            # a coefficient whose variable the expression does not carry,
            # with a denominator that must not enter B
            (ctx.expr("x^2/(z + 1)"), [(x, ONE), (u, ctx.expr("1/(x - 3)"))]),
            (ctx.expr("x^2*z"), [(ux, ctx.expr("x/(z - 2)"))]),
            # contributions that cancel across variables
            (ctx.expr("x^2 + z^2"), [(x, ctx.expr("z")), (z, ctx.expr("-x"))]),
            (ctx.expr("(x^2 + z^2)*u/(x + u)"),
             [(x, ctx.expr("z")), (z, ctx.expr("-x"))]),
            # exponents of 2 and more, on the numerator and the denominator
            (ctx.expr("x^3*z^2*u^4/(x^2*u^3 + z^5)"),
             [(x, ctx.expr("u")), (z, ctx.expr("x^2")), (u, ctx.expr("z"))]),
            # the same variable given twice: its terms add, also to zero
            (ctx.expr("x^2*u/(z + u)"), [(x, ONE), (x, ctx.expr("z"))]),
            (ctx.expr("x^2*u/(z + u)"), [(x, f), (x, f), (z, ONE)]),
            (ctx.expr("x^2*u/(z + u)"), [(x, ctx.expr("z")),
                                         (x, ctx.expr("-z"))]),
            # shared and distinct non-constant denominators
            (ctx.expr("x*z*u/(x + z)"),
             [(x, ctx.expr("u/(z + 1)")), (z, ctx.expr("x/(z + 1)")),
              (u, ctx.expr("1/(x - u)"))]),
            (ctx.expr("(x^2 + u)/(z^2 + 1)"),
             [(x, ctx.expr("1/(z + 1)^2")), (z, ctx.expr("x/(z + 1)")),
              (u, ctx.expr("z/(x*u + 1)"))]),
        ]
        for e, coeffs in cases:
            assert derive(e, coeffs) == ref_derive(e, coeffs), (e, coeffs)

    @pytest.mark.parametrize("k", [1, 2, 3])
    def test_factor_dividing_its_own_derivative(self, ctx, k):
        # D_x (ch + sh) = ch + sh, so D_x (ch + sh)^(-k) = -k (ch + sh)^(-k):
        # the derivative of the denominator carries its whole power
        e = ctx.expr(f"1/(ch + sh)^{k}")
        got = ctx.total_derivative(e, "x")
        chain = ctx._chains["x"]
        assert got == ref_partial(e, ctx.var("x"), chain) == e * -k
        assert got.den == e.den

    def test_chain_rule_for_specials(self, ctx):
        # jet-free draws (x, z, ch, sh, lg): the total derivative is the
        # partial with the specials' chain rule
        rng = random.Random(1503)
        ctx._ensure_special_tables()
        for k in range(100):
            e = rand_expr(rng, rng.sample(variables(ctx)[:5], 4))
            for name in ("x", "z"):
                assert ctx.total_derivative(e, name) == ref_partial(
                    e, ctx.var(name), ctx._chains.get(name, ())), (k, name)

    def test_total_derivatives(self, ctx):
        rng = random.Random(1504)
        for k in range(100):
            e = rand_expr(rng, rng.sample(variables(ctx), 4))
            for i in (0, 1):
                assert ctx.total_derivative(e, i) == ref_total_derivative(
                    ctx, e, i), (k, i)

    def test_vector_field_apply(self, ctx):
        rng = random.Random(1505)
        for k in range(100):
            vs = rng.sample(variables(ctx), 4)
            field = VectorField(dict(rand_coeffs(rng, vs)))
            e = rand_expr(rng, vs)
            assert field.apply(e) == ref_apply(field, e), k


# -- substitute ---------------------------------------------------------
class TestSubstitute:
    def test_matches_the_operator_loop(self, ctx):
        rng = random.Random(1506)
        vs = variables(ctx)
        bound, targets = vs[5:8], vs[:5] + vs[8:]
        for k in range(150):
            # u, u_x and u_z carry exponents up to 3, and a bound variable
            # is absent from some monomials; two bindings share f
            e = RationalExpr(rand_poly(rng, vs, deg=3), rand_poly(rng, vs))
            f = rand_poly(rng, targets, True, 2, 1)
            pool = [
                ZERO, RationalExpr.const(rng.choice([2, Fraction(-1, 3)])),
                RationalExpr(rand_poly(rng, targets)),
                RationalExpr(rand_poly(rng, targets), f),
                RationalExpr(rand_poly(rng, targets), f),
                RationalExpr(rand_poly(rng, targets), f * f),
            ]
            bindings = {v: rng.choice(pool)
                        for v in rng.sample(bound, rng.randint(1, 3))}
            try:
                want = ref_substitute(e, bindings)
            except DivisionByZero:
                with pytest.raises(DivisionByZero):
                    substitute(e, bindings)
                continue
            assert substitute(e, bindings) == want, k

    def test_zero_and_constant_bindings(self, ctx):
        u, ux = ctx.var("u"), ctx.jet_by_dirs("u", ["x"])
        e = ctx.expr("(u^3*x + u*u[x]^2 + z)/(u[x]^3 + 2)")
        for bindings in ({u: ZERO}, {ux: ZERO}, {u: ZERO, ux: ZERO},
                         {u: RationalExpr.const(Fraction(2, 3))},
                         {u: RationalExpr.const(-1), ux: ctx.expr("1/z")}):
            assert substitute(e, bindings) == ref_substitute(e, bindings)

    def test_denominator_vanishing_over_the_common_denominator(self, ctx):
        u, ux = ctx.var("u"), ctx.jet_by_dirs("u", ["x"])
        for e, bindings in [
            (ctx.expr("1/(u - x^2)"), {u: ctx.expr("x^2")}),
            # u*u_x - 1 vanishes only once both terms share a denominator
            (ctx.expr("x/(u*u[x] - 1)"),
             {u: ctx.expr("1/(z+1)"), ux: ctx.expr("z+1")}),
        ]:
            vanished = "denominator vanished under substitution"
            with pytest.raises(DivisionByZero, match=vanished):
                substitute(e, bindings)
            with pytest.raises(DivisionByZero):
                ref_substitute(e, bindings)

    def test_cyclic_binding_text(self, ctx):
        x, u = ctx.var("x"), ctx.var("u")
        with pytest.raises(CyclicBinding, match="^x -> u -> x$"):
            substitute(ctx.expr("x + u"),
                       {x: ctx.expr("u/(z+1)"), u: ctx.expr("x^2")})


# -- the kernels on prolongation traffic --------------------------------
def test_prolongation_traffic_equals_the_reference_loops(monkeypatch):
    derived, substituted = [], []
    derive0, substitute0 = symcore.derive, symcore.substitute

    def traced_derive(e, coeffs):
        coeffs = list(coeffs)
        out = derive0(e, coeffs)
        derived.append((e, coeffs, out))
        return out

    def traced_substitute(e, bindings):
        out = substitute0(e, bindings)
        substituted.append((e, bindings, out))
        return out

    monkeypatch.setattr(symcore, "derive", traced_derive)
    monkeypatch.setattr(symcore, "substitute", traced_substitute)
    for stem, name in PROLONG_SYSTEMS:
        path = CORPUS / f"{stem}.json"
        pf = cli.parse_problem(path.read_bytes(), str(path), max_order=5)
        systems.prolong_system(cli._build(pf, name, "system"), 3)
    monkeypatch.undo()
    assert len(derived) > 500 and len(substituted) > 50
    for e, coeffs, out in derived:
        assert out == ref_derive(e, coeffs), (e, coeffs)
    for e, bindings, out in substituted:
        assert out == ref_substitute(e, bindings), (e, bindings)


# -- frontier prolongation against re-deriving every equation ------------
def ref_prolong_once(S):
    """One round that differentiates every equation of S, the older
    ones again, and leaves out what repeats."""
    ctx = S.ctx
    table = {e.leading: e.rhs for e in S.equations if e.strict}
    derived, solved, ics = [], [], list(S.integrability)
    for eq in S.equations:
        if eq.leading is not None:
            dep, mu = ctx.jet_info(eq.leading)
        for i, x in enumerate(ctx.independents):
            nu = None if eq.leading is None else ctx.bump(dep, mu, i)
            lead = None if nu is None else ctx.jet(dep, nu)
            if not (eq.strict and lead is not None):
                derived.append(systems.implicit_equation(
                    ctx.total_derivative(eq.residual, x), None, lead,
                    eq.genericity))
                continue
            rhs = ctx.total_derivative(eq.rhs, x)
            if lead in table:
                diff = systems._substitute_leadings(rhs - table[lead], table)
                if not diff.is_zero():
                    ics.append(diff)
            else:
                table[lead] = rhs
                solved.append((lead, eq.genericity))
    for lead, gen in solved:
        rest = {v: r for v, r in table.items() if v != lead}
        derived.append(systems.solved_equation(
            lead, systems._substitute_leadings(table[lead], rest), gen))
    equations = list(S.equations)
    seen = {e.residual: k for k, e in enumerate(equations)}
    declared = {e.leading for e in equations}
    for e in derived:
        res = e.residual
        if res.is_zero() or systems.same_equation(seen, res) is not None:
            continue
        seen[res] = len(equations)
        if e.leading is not None and e.leading in declared:
            e = systems.implicit_equation(e.lhs, e.rhs, None, e.genericity)
        declared.add(e.leading)
        equations.append(e)
    return systems.SolvedSystem(ctx, S.order + 1, equations, S.ordering,
                                S.genericity, ics)


PDE_SYSTEMS = PROLONG_SYSTEMS + (("hj_complete_integral",
                                  "complete_integral"),)


def count_total_derivatives(monkeypatch, ctx):
    """The list that each later ctx.total_derivative call appends to."""
    calls = []
    total0 = ctx.total_derivative

    def counted(e, i):
        calls.append(i)
        return total0(e, i)

    monkeypatch.setattr(ctx, "total_derivative", counted)
    return calls


@pytest.mark.parametrize("stem, name", PDE_SYSTEMS)
def test_frontier_prolongation_equals_rederiving_everything(
        stem, name, monkeypatch):
    S = prolonged(stem, name, 0)
    calls = count_total_derivatives(monkeypatch, S.ctx)
    n = len(S.ctx.independents)
    ref, prev, parents, total = S, S, S.equations, 0
    for r in range(1, 4):
        if S.order + r > S.ctx.max_order:
            break
        ref = ref_prolong_once(ref)
        del calls[:]
        got = systems.prolong_system(S, r)
        assert [(e.residual, e.leading, e.strict) for e in got.equations] \
            == [(e.residual, e.leading, e.strict) for e in ref.equations]
        assert got.integrability == ref.integrability
        # the call extends the tower by round r alone, which differentiates
        # the equations round r - 1 admitted (all of S in round 1), each
        # once in each independent
        assert len(calls) == n * len(parents)
        total += len(calls)
        # so the whole tower costs what one fresh prolong_system(S, r) does:
        # every equation below round r is differentiated once
        assert total == n * len(prev.equations)
        parents = got.equations[len(prev.equations):]
        prev = got


def test_contact_derivations_at_r2(monkeypatch):
    S = prolonged("hj_contact_groupoid", "contact", 0)
    calls = count_total_derivatives(monkeypatch, S.ctx)
    systems.prolong_system(S, 2)
    assert len(calls) == 36  # 3 independents x 12 equations at r = 1
    del calls[:]
    ref_prolong_once(ref_prolong_once(S))
    assert len(calls) == 45  # 3 x (3 + 12): the 3 again in round 2


# -- sparse symbol rows against the dense builders -----------------------
def ref_sparse(row, width):
    """The nonzero entries among the first ``width`` of a dense row, as
    ``{col: entry}``, an entry that is not a RationalExpr as a
    Fraction."""
    return {
        j: x if isinstance(x, RationalExpr) else Fraction(x)
        for j, x in enumerate(row[:width]) if x
    }


def ref_symbol(S):
    """Columns and dense rows of the symbol: one row per residual over
    every order-q jet, padded with ZERO; an all-zero row is dropped."""
    ctx = S.ctx
    cols = [v for v in ctx.jets_up_to(S.order) if jet_order(v) == S.order]
    rows = []
    for res in S.residuals():
        carried = res.variables()
        row = [coordinate_partial(res, v) if v in carried else ZERO
               for v in cols]
        if any(not c.is_zero() for c in row):
            rows.append(row)
    return cols, rows


def ref_prolonged_symbol(ctx, order, cols, rows):
    """Dense rows of the first prolongation's symbol, as above."""
    next_cols = [v for v in ctx.jets_up_to(order + 1)
                 if jet_order(v) == order + 1]
    index = {v: j for j, v in enumerate(next_cols)}
    out_rows = []
    for row in rows:
        for i in range(len(ctx.independents)):
            out = [ZERO] * len(next_cols)
            nonzero = False
            for v, c in zip(cols, row):
                if c.is_zero():
                    continue
                dep, mu = ctx.jet_info(v)
                nu = ctx.bump(dep, mu, i)
                if nu is None:
                    continue
                out[index[ctx.jet(dep, nu)]] = c
                nonzero = True
            if nonzero:
                out_rows.append(out)
    return next_cols, out_rows


CORPUS_SYSTEMS = (
    ("hj_complete_integral", "complete_integral"),
    ("shell_monkey_saddle", "tangency_system"),
    ("shell_monkey_saddle", "projected_system"),
) + PROLONG_SYSTEMS
SYMBOL_CASES = [
    (stem, name, r) for stem, name in CORPUS_SYSTEMS for r in (0, 1)
] + [(stem, name, 2) for stem, name in PROLONG_SYSTEMS]


def prolonged(stem, name, r):
    path = CORPUS / f"{stem}.json"
    pf = cli.parse_problem(path.read_bytes(), str(path), max_order=5)
    return systems.prolong_system(cli._build(pf, name, "system"), r)


def one_factor(row, ref):
    """Whether row has the support of ref and is ref times one nonzero
    factor."""
    if row.keys() != ref.keys():
        return False
    ratios = {RationalExpr(row[j]) / ref[j] for j in row}
    return len(ratios) == 1 and not ratios.pop().is_zero()


def assert_one_factor_per_row(rows, ref_rows):
    """Each row has the support of its reference row and is that row
    times one nonzero factor."""
    assert len(rows) == len(ref_rows)
    for row, ref in zip(rows, ref_rows):
        assert one_factor(row, ref), (row, ref)


def assert_kept_rows_scale(rows, ref_rows):
    """rows are ref_rows less some, in order: each row is the next
    reference row it keeps times one nonzero factor, and each reference
    row left out is a nonzero multiple of a row kept before it."""
    k = 0
    for ref in ref_rows:
        if k < len(rows) and one_factor(rows[k], ref):
            k += 1
        else:
            assert any(one_factor(row, ref) for row in rows[:k]), ref
    assert k == len(rows)


def cofactor_calls(monkeypatch):
    """The list that each later poly_cofactors call appends to (every
    gcd, poly_gcd's too, runs through it)."""
    calls = []
    cofactors0 = symcore.poly_cofactors

    def counted(a, b):
        calls.append((a, b))
        return cofactors0(a, b)

    monkeypatch.setattr(symcore, "poly_cofactors", counted)
    return calls


@pytest.mark.parametrize("stem, name, r", SYMBOL_CASES)
def test_sparse_symbol_rows_scale_the_dense_builders(stem, name, r):
    P = prolonged(stem, name, r)
    sym = systems.symbol_of(P)
    cols, dense = ref_symbol(P)
    assert sym.columns == cols
    want = [ref_sparse(row, len(cols)) for row in dense]
    assert_one_factor_per_row(sym.rows, want)
    nxt = systems._prolonged_symbol(sym)
    next_cols, next_dense = ref_prolonged_symbol(P.ctx, P.order, cols, dense)
    assert nxt.columns == next_cols
    next_want = [ref_sparse(row, len(next_cols)) for row in next_dense]
    assert_kept_rows_scale(nxt.rows, next_want)
    for s in (sym, nxt):
        # no stored row is empty, and its entries are nonzero Polynomials
        # with int coefficients
        assert all(row and all(
            isinstance(p, Polynomial) and p.terms
            and all(type(c) is int for c in p.terms.values())
            for p in row.values()) for row in s.rows)
    # rows scaled by nonzero factors keep their rank; complete_integral's
    # prolonged symbol at r = 1 gets no rank in minutes (ROADMAP item 4)
    assert sym.rank() == linalg.rank(want, len(cols))
    if (name, r) != ("complete_integral", 1):
        assert nxt.rank() == linalg.rank(next_want, len(next_cols))


def ref_shifted_rows(sym):
    """sym's own rows through the dense reference shift, back as sparse
    rows: the prolonged symbol's rows, repeats kept."""
    dense = [[row.get(j, ZERO) for j in range(len(sym.columns))]
             for row in sym.rows]
    _, shifted = ref_prolonged_symbol(sym.ctx, sym.order, sym.columns, dense)
    return [{j: p for j, p in enumerate(row) if not p.is_zero()}
            for row in shifted]


@pytest.mark.parametrize("stem, name, r", SYMBOL_CASES)
def test_prolonged_symbol_keeps_each_shifted_row_once(stem, name, r):
    P = prolonged(stem, name, r)
    sym = systems.symbol_of(P)
    kept = systems._prolonged_symbol(sym).rows
    assert all(a != b for a, b in itertools.combinations(kept, 2))
    full = ref_shifted_rows(sym)
    assert all(row in kept for row in full)
    assert all(row in full for row in kept)
    # the count is n rows per equation, repeats and empty rows included;
    # complete_integral's prolonged symbol at r = 1 gets no rank in
    # minutes (ROADMAP item 4)
    if (name, r) != ("complete_integral", 1):
        assert systems.compatibility_count(P) \
            == reference_compatibility_count(P)


@pytest.mark.parametrize("stem, name, r", SYMBOL_CASES)
def test_symbol_rows_take_no_gcd_and_are_cleared(stem, name, r,
                                                  monkeypatch):
    """symbol_of linearizes each residual with no gcd, into a row that
    linalg.clear returns as it is, and the rank that compatibility_count
    takes puts no row over one denominator."""
    P = prolonged(stem, name, r)
    P.residuals()  # each residual is formed once, with its gcd
    with monkeypatch.context() as m:
        calls = cofactor_calls(m)
        sym = systems.symbol_of(P)
    assert calls == []
    assert all(linalg.clear(row) is row for row in sym.rows)
    # complete_integral's prolonged symbol at r = 1 gets no rank in
    # minutes (ROADMAP item 4)
    if (name, r) == ("complete_integral", 1):
        return
    sym.rank()
    calls = []
    over0 = symcore.over_one_denominator

    def counted(values):
        calls.append(values)
        return over0(values)

    monkeypatch.setattr(symcore, "over_one_denominator", counted)
    monkeypatch.setattr(linalg, "over_one_denominator", counted)
    systems.compatibility_count(P)
    assert calls == []


def test_ranks_over_cleared_rows_equal_the_ranks_over_the_rows(ctx):
    """rank takes a cleared row as it is, and clear divides a row of
    Polynomials by its integer content (as a shifted symbol row may
    keep one): seeded matrices, and the same with every cleared row
    times an int, have the same rank."""
    rng = random.Random(3501)
    for _ in range(60):
        rows, ncols = rand_matrix(rng, rng.sample(variables(ctx), 3))
        cleared = [linalg.clear(row) for row in rows]
        assert all(linalg.clear(row) is row for row in cleared)
        scaled = []
        for row in cleared:
            k = rng.choice([2, 3, -6])
            scaled.append({j: Polynomial.const(k) * p
                           for j, p in row.items()})
            sign = Polynomial.const(k // abs(k))
            assert linalg.clear(scaled[-1]) == {
                j: sign * p for j, p in row.items()}
        want = linalg.rank(rows, ncols)
        assert linalg.rank(cleared, ncols) == want, rows
        assert linalg.rank(scaled, ncols) == want, rows


@pytest.mark.parametrize("stem, name, r", [
    ("shell_monkey_saddle", "projected_system", 0),
    ("hj_eleven_equation", "eleven_equation", 0),
    ("hj_contact_groupoid", "contact", 1),
])
def test_one_symbol_per_system_shared_and_unchanged(stem, name, r,
                                                    monkeypatch):
    P = prolonged(stem, name, r)
    cols, dense = ref_symbol(P)
    want = [ref_sparse(row, len(cols)) for row in dense]
    # one build: one linearization per residual, with an entry for each
    # order-q jet it carries
    one_build = [len(res.variables() & set(cols)) for res in P.residuals()]
    calls = []
    linearize0 = systems.linearize

    def counted(e, vs):
        out = linearize0(e, vs)
        calls.append(len(out))
        return out

    monkeypatch.setattr(systems, "linearize", counted)
    sym = systems.symbol_of(P)
    built = [dict(row) for row in sym.rows]
    assert systems.symbol_of(P) is sym
    for consumer in (
        lambda: systems.symbol_of(P).rank(),
        lambda: systems.characters(P),
        lambda: systems.cartan_test(P),
        lambda: systems.compatibility_count(P),
    ):
        consumer()
        assert systems.symbol_of(P) is sym
        assert sym.columns == cols and sym.rows == built
    assert_one_factor_per_row(sym.rows, want)
    assert calls == one_build


# -- witness Jacobians against the dense Fraction reference -------------
PROBLEMS = Path(__file__).resolve().parent / "problems"
# a check's witness argument -> the argument naming its system
WITNESS_KEYS = {"witness": "system", "witness_system": "system",
                "witness_groupoid": "groupoid"}


def ref_witness_rank(S, witness):
    """Rank of the dense Jacobian of S's residuals in its jets up to its
    order, each entry a coordinate_partial evaluated at the witness."""
    cols = S.ctx.jets_up_to(S.order)
    rows = []
    for res in S.residuals():
        carried = res.variables()
        rows.append([
            symcore.eval_point(coordinate_partial(res, v), witness)
            if v in carried else Fraction(0) for v in cols])
    return fraction_rank(rows)


def witness_cases():
    """(label, system, witness): each witness that a check of the corpus
    or of tests/problems gives a system (prolonged once more for
    automorphic, which also counts there), the saddle file's systems at
    r = 0 and 1 at its section ``graph``, read up to order 3, and a
    system whose residual has a jet in its denominator, at r = 0 and 1,
    at the section y = x."""
    out = []
    for path in sorted(CORPUS.glob("*.json")) + sorted(
            PROBLEMS.glob("*/*.json")):
        pf = cli.parse_problem(path.read_bytes(), str(path))
        for check in pf.checks:
            for key, system in WITNESS_KEYS.items():
                if key not in check.args:
                    continue
                S = cli._build(pf, check.args[system], "system")
                w = cli._witness(pf, check.args, key)
                for r in (0, 1) if check.op == "automorphic" else (0,):
                    out.append((f"{check.id}.{key}.r{r}",
                                systems.prolong_system(S, r), w))
    path = CORPUS / "shell_monkey_saddle.json"
    data = json.loads(path.read_text())
    data["objects"]["graph"]["order"] = 3
    pf = cli.parse_problem(json.dumps(data), str(path), max_order=4)
    w = systems.witness_from_section(
        cli._build(pf, "graph", "section"),
        {pf.ctx.var("x1"): Fraction(1), pf.ctx.var("x2"): Fraction(2)})
    for name, (kind, _) in pf.objects.items():
        if kind == "system":
            S = cli._build(pf, name, "system")
            out += [(f"saddle.{name}.r{r}", systems.prolong_system(S, r), w)
                    for r in (0, 1)]
    ctx = JetContext(["x"], ["y"], max_order=2)
    E = ctx.expr
    S = systems.SolvedSystem(ctx, 1, [systems.implicit_equation(
        E("y[x]/(1 + y^2)"), E("1/(1 + x^2)"))])
    w = systems.witness_from_section(
        holonomic_section(ctx, {"y": E("x")}, 2), {ctx.var("x"): 2})
    out += [(f"jet-denominator.r{r}", systems.prolong_system(S, r), w)
            for r in (0, 1)]
    return out


def test_witness_ranks_equal_the_dense_fraction_reference(monkeypatch):
    """fiber_dimension's rows, each a residual's linearization at the
    witness, have the rank of the dense Jacobian there, and no gcd is
    taken to form them."""
    cases = witness_cases()
    # the corpus check, 4 saddle systems x 2 and the jet denominator x 2
    assert len(cases) == 11
    for label, S, w in cases:
        want = ref_witness_rank(S, w)
        S.residuals()  # each residual is formed once, with its gcd
        with monkeypatch.context() as m:
            calls = cofactor_calls(m)
            got = systems.fiber_dimension(S, w)
        assert calls == [], label
        assert got == S.ctx.fiber_jet_count(S.order) - want, label


# -- fraction-free rank against the field elimination -------------------
def ref_subtract(row, f, prow, skip):
    """row -= f * prow over prow's entries but column ``skip``, in
    place, with the field operators; a cancelled entry leaves the row."""
    for j, x in prow.items():
        if j == skip:
            continue
        new = -(f * x) if j not in row else row[j] - f * x
        if new == 0:
            del row[j]
        else:
            row[j] = new


def ref_rank(rows, ncols):
    """Field elimination over sparse rows: in each column the pivot is
    the entry of lowest weight (terms of numerator and denominator, 2
    for a number), the earliest row winning a tie, and every other free
    row carrying the column loses it by row -= (a / pv) * prow."""
    def weight(x):
        return complexity(x) if isinstance(x, RationalExpr) else 2

    rows = [{j: x if isinstance(x, RationalExpr) else
             RationalExpr(x) if isinstance(x, Polynomial) else Fraction(x)
             for j, x in row.items() if x} for row in rows]
    free = list(range(len(rows)))
    rank = 0
    for col in range(ncols):
        cands = [r for r in free if col in rows[r]]
        if not cands:
            continue
        best = min(cands, key=lambda r: weight(rows[r][col]))
        free.remove(best)
        rank += 1
        prow = rows[best]
        for r in cands:
            if r != best:
                ref_subtract(rows[r], rows[r].pop(col) / prow[col], prow, col)
    return rank


def rand_matrix(rng, vs):
    """Sparse rows of ints, Fractions, quotients over one shared
    denominator, over distinct or constant denominators, and sums of
    multiples of earlier rows, which cancel to empty; up to two
    augmented columns past ``ncols``."""
    f = rand_poly(rng, vs, True, 2, 1)
    nrows, ncols = rng.randint(1, 6), rng.randint(1, 5)
    width = ncols + rng.randint(0, 2)
    kinds = [
        lambda: rng.randint(-4, 4),
        lambda: Fraction(rng.randint(-4, 4), rng.randint(1, 3)),
        lambda: RationalExpr(rand_poly(rng, vs, terms=2), f),
        lambda: rand_expr(rng, vs),
        lambda: RationalExpr(rand_poly(rng, vs, terms=2),
                             Polynomial.const(rng.randint(2, 5))),
    ]
    rows = []
    for _ in range(nrows):
        if rows and rng.random() < 0.3:
            a, b = rng.choice(rows), rng.choice(rows)
            ca, cb = (rng.choice([2, Fraction(-1, 3), RationalExpr(f),
                                  rand_expr(rng, vs)]) for _ in range(2))
            row = {j: ca * a.get(j, 0) + cb * b.get(j, 0)
                   for j in a.keys() | b.keys()}
        else:
            row = {j: rng.choice(kinds)() for j in range(width)
                   if rng.random() < 0.6}
        rows.append(row)
    return rows, ncols


def rank_without_gcd(monkeypatch, rows, ncols):
    """linalg.rank of the rows, asserting that it takes no gcd (every
    gcd, poly_gcd's too, runs through poly_cofactors)."""
    with monkeypatch.context() as m:
        calls = cofactor_calls(m)
        got = linalg.rank(rows, ncols)
    assert calls == []
    return got


def left_to_right_rank(rows, ncols):
    """The number of pivots rref takes, lowest column first: those of
    its forward pass, each column in a block of its own.  Its
    back-substitution does not change them, and over RationalExprs it
    can cost a thousand times the forward pass (projected_system's
    prolonged symbol at r = 1)."""
    return len(linalg._forward(rows, ncols, range(ncols))[1])


def test_fraction_free_rank_on_seeded_matrices(ctx, monkeypatch):
    rng = random.Random(1801)
    for _ in range(60):
        # from four variables the reference's gcds can take minutes
        rows, ncols = rand_matrix(rng, rng.sample(variables(ctx), 3))
        got = rank_without_gcd(monkeypatch, rows, ncols)
        assert got == ref_rank(rows, ncols), rows
        assert got == left_to_right_rank(rows, ncols), rows


# complete_integral's 24 x 30 prolonged symbol, which is also the symbol
# of its first prolongation, gets no rank in minutes when the columns
# are taken left to right (ref_rank, rref); rank's sparsest-column rule
# is checked on it against point ranks below.  Its 60 x 60 symbol at
# r = 2 gets no rank from either column rule within 20 s, nor from rank
# within 120 s (ROADMAP item 4)
@pytest.mark.parametrize("stem, name, r", [
    case for case in SYMBOL_CASES if case[1:] != ("complete_integral", 1)
] + [("shell_monkey_saddle", name, 2)
     for name in ("tangency_system", "projected_system")])
def test_fraction_free_rank_on_symbol_traffic(stem, name, r, monkeypatch):
    sym = systems.symbol_of(prolonged(stem, name, r))
    mats = [sym]
    if name != "complete_integral":
        mats.append(systems._prolonged_symbol(sym))
    for m in mats:
        got = rank_without_gcd(monkeypatch, m.rows, len(m.columns))
        assert got == ref_rank(m.rows, len(m.columns))
        assert got == left_to_right_rank(m.rows, len(m.columns))


def test_rank_takes_the_sparsest_column_first():
    rows = [{0: 1, 1: 1}, {0: 1, 1: 2}, {0: 1, 2: 1}]
    # in one block column 2 has one row, then columns 0 and 1 have two
    # each, and the lower wins; rref's blocks take them in order
    assert linalg._forward(rows, 3, [0] * 3)[1] == [(2, 2), (0, 0), (1, 1)]
    assert linalg._forward(rows, 3, range(3))[1] == [(0, 0), (1, 1), (2, 2)]
    # column 2, the sparsest, waits for block 0; within block 0 column 1
    # (two rows) goes before column 0 (three)
    assert linalg._forward(rows, 3, [0, 0, 1])[1] == [
        (0, 1), (1, 0), (2, 2)]
    assert linalg.pivot_columns(rows, 3, [0, 0, 1]) == [1, 0, 2]


def ref_pivots(rows, ncols, block):
    """_forward's pivots with the free rows of each column counted afresh
    at every step, not kept in an index: of the columns a free row
    carries, the least by (block[j], number of free rows carrying j, j).
    The clearing, the pivot row and the updates are the kernel's."""
    rows = [linalg.clear(r) for r in rows]
    free, pivots = set(range(len(rows))), []
    while True:
        counts = {}
        for r in free:
            for j in rows[r]:
                if j < ncols:
                    counts[j] = counts.get(j, 0) + 1
        if not counts:
            return pivots
        col = min(counts, key=lambda j: (block[j], counts[j], j))
        cands = sorted(r for r in free if col in rows[r])
        best = min(cands, key=lambda r: len(rows[r][col].terms))
        prow = rows[best]
        for r in cands:
            if r != best:
                rows[r] = linalg._eliminate(rows[r], prow[col], prow, col)
        free.remove(best)
        pivots.append((best, col))


def column_blocks(kind, classes, n):
    """_forward's blocks for columns of the classes ``classes`` (1 to
    n): all in one (rank's), each in its own (rref's) or n - class
    (characters')."""
    if kind == "one":
        return [0] * len(classes)
    if kind == "column":
        return range(len(classes))
    return [n - c for c in classes]


def seeded_class_matrices(ctx, seed, count=60):
    """``count`` seeded rand_matrix matrices over three variables, each
    with random classes 1 to 3 for its columns, as (rows, ncols,
    classes, 3); the classes come from a generator of their own, so the
    matrices are those of ``random.Random(seed)``."""
    rng, crng = random.Random(seed), random.Random(seed + 1)
    mats = [rand_matrix(rng, rng.sample(variables(ctx), 3))
            for _ in range(count)]
    return [(rows, ncols, [crng.randint(1, 3) for _ in range(ncols)], 3)
            for rows, ncols in mats]


@pytest.mark.parametrize("kind", ["one", "column", "class"])
def test_column_index_equals_recounting(ctx, kind):
    mats = seeded_class_matrices(ctx, 2301)
    for stem, name, r in SYMBOL_CASES:
        P = prolonged(stem, name, r)
        sym = systems.symbol_of(P)
        syms = [sym]
        if name != "complete_integral":
            syms.append(systems._prolonged_symbol(sym))
        elif r == 1 and kind == "column":
            syms = []  # its 24 x 30 symbol takes minutes left to right
        mats += [(m.rows, len(m.columns),
                  systems._column_classes(P, m.columns), len(P.ordering))
                 for m in syms]
    for rows, ncols, classes, n in mats:
        block = column_blocks(kind, classes, n)
        got = linalg._forward(rows, ncols, block)[1]
        assert got == ref_pivots(rows, ncols, block), rows


# -- characters in one pass against one rank per class ------------------
def ref_characters(rows, classes, n):
    """[beta^1, ..., beta^n] as characters took them before its one
    block-ordered pass: for i from n down to 1, the rank of the columns
    of class >= i, renumbered in their order, less that of class > i."""
    beta, prev = [0] * n, 0
    for i in range(n, 0, -1):
        keep = {j: k for k, j in enumerate(
            j for j, c in enumerate(classes) if c >= i)}
        sub = [{keep[j]: x for j, x in row.items() if j in keep}
               for row in rows]
        r = linalg.rank(sub, len(keep))
        beta[i - 1] = r - prev
        prev = r
    return beta


def one_pass_betas(rows, ncols, classes, n):
    """[beta^1, ..., beta^n] from linalg.pivot_columns, class n first."""
    beta = [0] * n
    for j in linalg.pivot_columns(rows, ncols, [n - c for c in classes]):
        beta[classes[j] - 1] += 1
    return beta


def test_one_pass_betas_on_seeded_matrices(ctx):
    for rows, ncols, classes, n in seeded_class_matrices(ctx, 2501):
        got = one_pass_betas(rows, ncols, classes, n)
        assert got == ref_characters(rows, classes, n), rows
        assert sum(got) == linalg.rank(rows, ncols), rows


# complete_integral's 60 x 60 symbol at r = 2 gets no rank (see above)
@pytest.mark.parametrize("stem, name, r", [
    (stem, name, r) for stem, name in CORPUS_SYSTEMS for r in (0, 1, 2)
    if (name, r) != ("complete_integral", 2)])
def test_one_pass_characters_equal_one_rank_per_class(stem, name, r,
                                                      monkeypatch):
    P = prolonged(stem, name, r)
    sym = systems.symbol_of(P)
    ncols, n = len(sym.columns), len(P.ordering)
    classes = systems._column_classes(P, sym.columns)
    calls = []
    forward0 = linalg._forward

    def counted(*args):
        calls.append(args)
        return forward0(*args)

    with deadline(60):
        want = ref_characters(sym.rows, classes, n)
        got = one_pass_betas(sym.rows, ncols, classes, n)
        assert got == want
        assert sum(got) == sym.rank()
        with monkeypatch.context() as m:
            m.setattr(linalg, "_forward", counted)
            alpha = systems.characters(P)
    # a system whose equations are all solved for top-order jets has its
    # characters read from their classes, with no elimination; in the
    # corpus only systems at r = 0 are
    assert calls or r == 0
    if calls:
        assert len(calls) == 1
        assert alpha == tuple(
            classes.count(i + 1) - b for i, b in enumerate(want))


# -- the symbol tower against Cartan's formula (ROADMAP item 16) ---------
def elimination_characters(S):
    """(alpha^1, ..., alpha^n) of S's symbol by one elimination in the
    declared ordering, for solved systems too."""
    sym = systems.symbol_of(S)
    n = len(S.ordering)
    classes = systems._column_classes(S, sym.columns)
    betas = one_pass_betas(sym.rows, len(sym.columns), classes, n)
    return tuple(classes.count(i + 1) - b for i, b in enumerate(betas))


# their declared orderings are delta-singular: with the elimination alpha
# the tower reads the first list, Cartan's formula the second
DELTA_SINGULAR = {
    "unimodular": ([3, 4, 5], [3, 7, 12]),
    "eleven_equation": ([1, 1, 1], [1, 2, 3]),
    "nine_equation": ([3, 4, 5], [3, 7, 12]),
}


@pytest.mark.parametrize("stem, name", [
    pytest.param(stem, name, marks=pytest.mark.xfail(
        strict=True, raises=AssertionError,
        reason=f"ROADMAP item 5: {name}'s symbol dimensions at r = 0, 1, 2"
        f" are {DELTA_SINGULAR[name][0]}, the formula "
        f"{DELTA_SINGULAR[name][1]}")) if name in DELTA_SINGULAR
    else (stem, name)
    for stem, name in CORPUS_SYSTEMS
    if name not in ("complete_integral", "metric_system")])
def test_involutive_symbol_tower_follows_cartans_formula(stem, name):
    """When g_q is involutive with characters alpha, dim g_{q+r} =
    sum_i C(r+i-1, r) alpha^i for every r (the Hilbert polynomial of an
    involutive symbol).  metric_system is not involutive (below), and
    complete_integral's tower gets no rank in minutes (ROADMAP item 4)."""
    S = prolonged(stem, name, 0)
    with deadline(60):
        alpha = elimination_characters(S)
        dims = [systems.symbol_of(systems.prolong_system(S, r)).dimension()
                for r in range(3)]
        want = [sum(math.comb(r + i - 1, r) * a
                    for i, a in enumerate(alpha, 1)) for r in range(3)]
        # the Cartan test with this alpha: g_{q+1} meets the bound
        # sum_i i alpha^i, which is the formula at r = 1
        assert systems._prolonged_symbol(
            systems.symbol_of(S)).dimension() == want[1]
        assert dims == want


def test_metric_system_is_not_involutive():
    S = prolonged("shell_monkey_saddle", "metric_system", 0)
    alpha = elimination_characters(S)
    bound = sum(i * a for i, a in enumerate(alpha, 1))
    assert systems._prolonged_symbol(systems.symbol_of(S)).dimension() \
        == 3 < bound == 4


# -- rref against lazy clearing and the field back-substitution ---------
def ref_rref(rows, ncols):
    """rref as it was before the kernel cleared every row on entry: a
    row, its ints made Fractions, is cleared only when it meets another
    in a pivot column (a row alone in it pivots as it stands), the
    columns are taken lowest first, each row is divided by its pivot
    (an uncleared row is left as it is) and the pivot rows are then
    reduced with the field update ``ref_subtract``, last pivot
    first."""
    rows = [{j: x if isinstance(x, RationalExpr) else Fraction(x)
             for j, x in row.items() if x} for row in rows]
    free, cleared, pivots = set(range(len(rows))), set(), []
    while True:
        col = min((j for r in free for j in rows[r] if j < ncols),
                  default=None)
        if col is None:
            break
        cands = sorted(r for r in free if col in rows[r])
        best = cands[0]
        if len(cands) > 1:
            for r in cands:
                if r not in cleared:
                    rows[r] = linalg.clear(rows[r])
                    cleared.add(r)
            best = min(cands, key=lambda r: len(rows[r][col].terms))
            prow = rows[best]
            for r in cands:
                if r != best:
                    rows[r] = linalg._eliminate(rows[r], prow[col], prow, col)
        free.remove(best)
        pivots.append((best, col))

    def quotient(x, pv):
        if not isinstance(pv, Polynomial):
            return x / pv
        q = RationalExpr(x, pv)
        return q.constant_value() if q.is_constant() else q

    pivot_col = dict(pivots)
    for r in cleared:
        pv = rows[r][pivot_col[r]] if r in pivot_col else ONE.num
        rows[r] = {j: quotient(x, pv) for j, x in rows[r].items()}
    for r, col in pivots:
        if r not in cleared:
            pv = rows[r][col]
            rows[r] = {j: x / pv for j, x in rows[r].items()}
    for k in range(len(pivots) - 1, -1, -1):
        p, col = pivots[k]
        for q, _ in pivots[:k]:
            a = rows[q].pop(col, None)
            if a is not None:
                ref_subtract(rows[q], a, rows[p], col)
    return rows, pivots


def corpus_rref_calls(monkeypatch, capsys):
    """The (rows, ncols) of every rref call of ``vessiot check`` over
    the bundled corpus."""
    calls = []
    rref0 = linalg.rref

    def recorded(rows, ncols):
        calls.append(([dict(r) for r in rows], ncols))
        return rref0(rows, ncols)

    with monkeypatch.context() as m:
        m.setenv("VESSIOT_CORPUS", str(CORPUS))
        m.setattr(linalg, "rref", recorded)
        assert cli.main(["check", "--format", "json"]) == 0
    capsys.readouterr()
    return calls


def test_rref_equals_lazy_clearing_and_field_back_substitution(
        ctx, monkeypatch, capsys):
    rng = random.Random(2401)
    # from three variables one matrix can take the reference over 15 s
    mats = [rand_matrix(rng, rng.sample(variables(ctx), 2))
            for _ in range(100)]
    corpus = corpus_rref_calls(monkeypatch, capsys)
    assert corpus
    for rows, ncols in mats + corpus:
        before = [dict(r) for r in rows]
        got, pivots = linalg.rref(rows, ncols)
        assert rows == before  # the input rows are not mutated
        want, want_pivots = ref_rref(rows, ncols)
        assert pivots == want_pivots, rows
        pivot_rows = {r for r, _ in pivots}
        for r, (g, w) in enumerate(zip(got, want)):
            assert g.keys() == w.keys(), rows
            if r in pivot_rows:
                assert all(g[j] == w[j] for j in g), rows
            assert all(isinstance(x, (Fraction, RationalExpr))
                       for x in g.values())


@contextlib.contextmanager
def deadline(seconds):
    """Fail, rather than hang, when the block runs past ``seconds``."""
    def expire(signum, frame):
        raise TimeoutError(f"no answer within {seconds} s")

    old = signal.signal(signal.SIGALRM, expire)
    signal.alarm(seconds)
    try:
        yield
    finally:
        signal.alarm(0)
        signal.signal(signal.SIGALRM, old)


def point_ranks(sym, gens, seed, count=3):
    """The ranks of the symbol at ``count`` seeded rational points where
    every entry and genericity expression is defined, and the latter
    nonzero: lower bounds on its rank that almost every point meets."""
    exprs = gens + [x for row in sym.rows for x in row.values()]
    names = sorted({v for e in exprs for v in e.variables()})
    rng = random.Random(seed)
    out = []
    while len(out) < count:
        point = {v: Fraction(rng.randint(-9, 9), rng.randint(1, 4))
                 for v in names}
        try:
            if any(symcore.eval_point(g, point) == 0 for g in gens):
                continue
            rows = [{j: symcore.eval_point(x, point) for j, x in row.items()}
                    for row in sym.rows]
        except DenominatorVanishes:
            continue
        out.append(ref_rank(rows, len(sym.columns)))
    return out


def test_complete_integral_ranks_within_a_minute():
    S = prolonged("hj_complete_integral", "complete_integral", 0)
    P = prolonged("hj_complete_integral", "complete_integral", 1)
    sym = systems.symbol_of(P)
    shared = [dict(row) for row in sym.rows]
    with deadline(60):
        # 6 equations x 4 independents, less the prolonged symbol's 21
        assert systems.compatibility_count(S) == 3
        exact = sym.rank()
    assert sym.rows == shared
    assert (len(sym.rows), len(sym.columns)) == (24, 30)
    ranks = point_ranks(sym, P.assumptions(), "complete_integral:1")
    assert exact == max(ranks) == 21


# -- poly_gcd against the ungated trial divisions ------------------------
def ref_primitive_in(p, v):
    """(content, primitive part) of p in v, the coefficients folded in the
    order of _as_univariate and the content divided out even when 1."""
    coeffs = list(symcore._as_univariate(p, v).values())
    g = coeffs[0]
    for c in coeffs[1:]:
        g = ref_poly_gcd(g, c)
        if g.is_constant():
            break
    return g, symcore.poly_divexact(p, g)


def ref_poly_gcd(a, b):
    """poly_gcd with both trial divisions always tried."""
    norm = symcore._norm_primitive
    if a.is_zero():
        return norm(b)
    if b.is_zero():
        return norm(a)
    if a.is_constant() or b.is_constant():
        return Polynomial.const(1)
    ma, mb = symcore._mono_content(a), symcore._mono_content(b)
    base = Polynomial({symcore.mono_gcd(ma, mb): 1})
    a, b = symcore._mono_quotient(a, ma), symcore._mono_quotient(b, mb)
    if a.is_constant() or b.is_constant():
        return base
    if symcore.poly_divexact(a, b) is not None:
        return norm(base * norm(b))
    if symcore.poly_divexact(b, a) is not None:
        return norm(base * norm(a))
    common = a.variables() & b.variables()
    if not common:
        return norm(base)
    v = max(common)
    ca, pa = ref_primitive_in(a, v)
    cb, pb = ref_primitive_in(b, v)
    cg = ref_poly_gcd(ca, cb)
    if pa.degree_in(v) < pb.degree_in(v):
        pa, pb = pb, pa
    gc = h = Polynomial.const(1)
    while True:
        delta = pa.degree_in(v) - pb.degree_in(v)
        r = symcore._pseudo_rem(pa, pb, v)
        if r.is_zero():
            g = pb
            break
        if r.degree_in(v) == 0:
            g = Polynomial.const(1)
            break
        pa, pb = pb, symcore.poly_divexact(r, gc * h ** delta)
        gc = symcore._as_univariate(pa, v)[pa.degree_in(v)]
        if delta == 1:
            h = gc
        elif delta > 1:
            h = symcore.poly_divexact(gc ** delta, h ** (delta - 1))
    if not g.is_constant():
        g = ref_primitive_in(g, v)[1]
    return norm(base * cg * g)


def gcd_pairs(rng, vs):
    """Seeded pairs: b | a, a | b, likely coprime, a shared factor (also
    squared), a shared monomial, one variable of higher degree in the
    smaller operand, and Fraction coefficients throughout (rand_poly
    draws 1/2)."""
    def poly(terms=3, deg=2):
        return rand_poly(rng, vs, True, terms, deg)

    f = poly(2, 1)
    m = Polynomial({mono_make([(rng.choice(vs), rng.randint(1, 2))]): 1})
    b = poly()
    c = poly()
    return [
        (b * c, b), (b, b * c), (poly(), poly()),
        (f * poly(), f * poly()), (f * f * poly(2), f * poly(2)),
        (m * poly(), m * f * poly(2)), (b * Fraction(3, 4), b * c * 6),
        (b * c + 1, b), (b, b * b * c + b * f + 1),
    ]


def coefficient_types(p):
    return {m: type(c) for m, c in p.terms.items()}


def split_pairs(rng, vs):
    """Seeded pairs for the split of an operand linear in w = vs[0]:
    p = c*x with c = c1*c2 free of w, against q sharing c1, x, both or
    neither of them; a larger operand linear in w against a smaller one
    whose variables all have degree 2 or more; Fraction coefficients
    throughout (rand_poly draws 1/2, and some operands are scaled)."""
    w, rest = vs[0], vs[1:]

    def poly(terms=2, deg=2):
        return rand_poly(rng, rest, True, terms, deg)

    x = poly(2, 1) * Polynomial.var(w) + poly()
    c1, c2 = poly(), poly(2, 1)
    p, r = c1 * c2 * x, rand_poly(rng, vs, True, 3, 2)
    f = poly()
    return [
        (p, r), (p, r * c1), (p, r * x), (p, r * c1 * x),
        (p * Fraction(2, 3), r * c2 * x * 6),
        (x * f * poly(3), f * f), (x * poly(3), f * f),
    ]


def test_gated_poly_gcd_equals_the_ungated_reference(ctx):
    """poly_gcd and poly_cofactors' gcd equal the reference in both
    argument orders, and the cofactors multiply back to the operands;
    also with a zero and with a constant operand."""
    rng, split_rng = random.Random(1901), random.Random(2101)
    zero, three = Polynomial(), Polynomial.const(Fraction(3, 2))
    for k in range(120):
        vs = rng.sample(variables(ctx), 4)
        pairs = gcd_pairs(rng, vs) + split_pairs(split_rng, vs)
        a0 = pairs[0][0]
        for a, b in pairs + [(a0, zero), (a0, three)]:
            want = ref_poly_gcd(a, b)
            for p, q in ((a, b), (b, a)):
                g, pg, qg = symcore.poly_cofactors(p, q)
                for got in (symcore.poly_gcd(p, q), g):
                    assert got == want, (k, p, q)
                    assert coefficient_types(got) == coefficient_types(want)
                assert g * pg == p and g * qg == q, (k, p, q)
            assert all(type(c) is int for c in want.terms.values())


def ref_normal_form(a, b):
    """a/b cancelled by ref_poly_gcd through poly_divexact, then scaled to
    int coefficients with no common factor and a positive leading
    denominator coefficient."""
    g = ref_poly_gcd(a, b)
    num, den = symcore.poly_divexact(a, g), symcore.poly_divexact(b, g)
    coeffs = [Fraction(c) for c in [*num.terms.values(), *den.terms.values()]]
    lcm = math.lcm(*(c.denominator for c in coeffs))
    content = math.gcd(*(int(c * lcm) for c in coeffs))
    if den.leading_coefficient() < 0:
        content = -content
    scale = Fraction(lcm, content)
    return num * scale, den * scale


def test_normal_form_equals_the_reference_cancellation(ctx):
    rng, split_rng = random.Random(2601), random.Random(2602)
    for k in range(40):
        vs = rng.sample(variables(ctx), 4)
        for a, b in gcd_pairs(rng, vs) + split_pairs(split_rng, vs):
            for p, q in ((a, b), (b, a)):
                e = RationalExpr(p, q)
                assert (e.num, e.den) == ref_normal_form(p, q), (k, p, q)
                assert all(type(c) is int for c in e.num.terms.values())
                assert all(type(c) is int for c in e.den.terms.values())


def traced_kernels(monkeypatch):
    """Record each poly_divexact and each recursive gcd call as
    ("div", a, b) or ("gcd", a, b); returns the list and an untraced
    gcd to start from.  Every gcd, poly_gcd's too, runs through
    poly_cofactors, so tracing it records each gcd call once."""
    calls = []
    cofactors0, divexact0 = symcore.poly_cofactors, symcore.poly_divexact

    def cofactors(a, b):
        calls.append(("gcd", a, b))
        return cofactors0(a, b)

    def divexact(a, b):
        calls.append(("div", a, b))
        return divexact0(a, b)

    monkeypatch.setattr(symcore, "poly_cofactors", cofactors)
    monkeypatch.setattr(symcore, "poly_divexact", divexact)
    return calls, lambda a, b: cofactors0(a, b)[0]


def test_gcd_of_a_large_operand_and_a_small_linear_one_is_cheap(
        monkeypatch):
    """x1^2 + x0 - 4 has degree 1 in x0 and coefficients 1 and x1^2 - 4,
    so it is irreducible: against a seeded 80-term a the gcd is 1 after
    one trial division and one gcd of its coefficients.  Calls are
    counted, not timed: the content of a and a remainder sequence take
    14 gcds and 9 divisions on pieces of a instead."""
    ctx = JetContext(["x0", "x1", "x2", "x3"], ["u"], max_order=1)
    xs = [ctx.var(f"x{i}") for i in range(4)]
    rng = random.Random(2102)
    t = {}
    while len(t) < 80:
        m = mono_make((v, rng.randint(0, 3)) for v in xs)
        t[m] = rng.randint(-9, 9) or 1
    a = Polynomial(t)
    X0, X1 = Polynomial.var(xs[0]), Polynomial.var(xs[1])
    b = X1 * X1 + X0 - 4
    calls, gcd0 = traced_kernels(monkeypatch)
    for p, q in ((a, b), (b, a)):
        calls.clear()
        assert gcd0(p, q) == Polynomial.const(1)
        assert [k for k, *_ in calls] == ["div", "gcd"]


def test_degree_gate_skips_only_impossible_divisions(ctx, monkeypatch):
    """poly_gcd tries a division only where each variable's degree in the
    divisor is at most its degree in the dividend.  A coprime pair of
    multilinear operands tries only those divisions and then splits the
    operand with fewer terms in its lowest variable; with the term dicts
    built in reversed order the sub-calls are the same, so w does not
    follow the iteration order of terms or variables."""
    calls, gcd0 = traced_kernels(monkeypatch)

    def tried():
        return [(a, b) for kind, a, b in calls if kind == "div"]

    def reversed_terms(p):
        return Polynomial(dict(reversed(list(p.terms.items()))))

    X, Z, U, CH = (Polynomial.var(ctx.var(n)) for n in ("x", "z", "u", "ch"))
    # x^2 + z does not fit into x + z^2 either way: no trial division
    a, b = X * X + Z, X + Z * Z
    calls.clear()
    gcd0(a, b)
    assert (a, b) not in tried() and (b, a) not in tried()
    # x + z fits into (x + z)*(x - u), not the other way round: one
    # trial division, whichever operand comes first
    big = (X + Z) * (X - U)
    for a, b in ((big, X + Z), (X + Z, big)):
        calls.clear()
        assert gcd0(a, b) == X + Z
        assert tried() == [(big, X + Z)]
    # each operand's degrees fit into the other's; both are linear in x,
    # z and u, b has fewer terms and x is the lowest: u1 = 1, u0 = z*u
    a, b = X * Z + Z * U + U, X + Z * U
    for p, q in ((a, b), (b, a)):
        calls.clear()
        assert gcd0(p, q) == Polynomial.const(1)
        assert calls == [("div", p, q), ("div", q, p),
                         ("gcd", Polynomial.const(1), Z * U)]
    # the same sub-calls with every term dict reversed, also where the
    # split has a nonconstant c: (x + z)*(u + ch) = (u + ch)*(x + z)
    pairs = [(a, b), ((X + Z) * (U + CH), (X + Z) * (U - CH) * CH),
             ((X * Z + U) * (CH + Z), (X * Z + U) * (X + CH) + Z)]
    for a, b in pairs:
        seqs = []
        for p, q in ((a, b), (reversed_terms(a), reversed_terms(b))):
            calls.clear()
            g = gcd0(p, q)
            seqs.append(list(calls))
        assert seqs[0] == seqs[1]
        assert g == symcore.poly_gcd(b, a)


def test_a_group_cancels_one_factor_at_a_time(monkeypatch):
    """sum_of_products cancels a group's numerator sum against each
    factor denominator of the group's first multiset in turn, never
    against their product.  The two terms of the first sum share the
    multiset {L, L^2} in two orders; their numerators add up to L*x,
    which cancels against L alone.  The three terms of the second sum
    have the multisets L^2*L^2, L^4 and L*L^3, whose products are equal,
    so they share one group and no operator sum meets L^4 either; their
    numerators add up to a sum coprime to L, so the group's second L^2,
    the same factor as the first, takes no gcd.  Where the first L^2
    cancels, the second takes its gcd."""
    ctx = JetContext(["x", "y"], ["u"], max_order=1)
    X, Y = (Polynomial.var(ctx.var(n)) for n in ("x", "y"))
    L = X * X + Y * Y + 1
    R = RationalExpr
    shared = [(R(X, L), R(Y, L ** 2)), (R(L * X - X * Y, L ** 2), R(1, L))]
    merged = [(R(X + 1, L ** 2), R(Y, L ** 2)), (R(X * Y + 2, L ** 4),),
              (R(Y - 3, L), R(X, L ** 3))]
    want = [R(X, L ** 2), R(3 * X * Y + Y - 3 * X + 2, L ** 4)]
    calls, _ = traced_kernels(monkeypatch)

    def factor_gcds(dens):
        return [b for kind, a, b in calls if kind == "gcd" and b in dens]

    assert sum_of_products(shared) == want[0]
    assert calls[0] == ("gcd", L * X, L)
    assert factor_gcds([L, L ** 2]) == [L, L ** 2]
    assert all(L ** 3 not in (a, b) for _, a, b in calls)
    calls.clear()
    assert sum_of_products(merged) == want[1]
    assert factor_gcds([L ** 2]) == [L ** 2]
    assert all(L ** 4 not in (a, b) for _, a, b in calls)
    # numerators that add up to X*L^3: the first L^2 cancels, so the
    # second still takes its gcd
    one = Polynomial.const(1)
    cubed = [(R(X, L ** 2), R(one, L ** 2)),
             (R(one, L ** 2), R(X * L ** 3 - X, L ** 2))]
    assert sum_of_products(cubed) == R(X, L)
