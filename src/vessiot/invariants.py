"""Differential-invariant verification layer.

Checks that candidate functions are killed by prolonged generator
distributions, measures generic ranks and invariant counts, computes
structure constants of closed distributions, verifies commuting
(reciprocal) distributions, and runs two-sided constancy checks.
"""
from __future__ import annotations

import itertools
from dataclasses import dataclass
from fractions import Fraction

from . import linalg, symcore
from .errors import NotClosed
from .jets import JetContext, VectorField, bracket, prolong_field
from .report import CheckReport
from .symcore import Polynomial, RationalExpr, substitute
# not called here; kept as a module attribute because perfbench's tests
# check that the tracer wraps this imported copy of symcore.eval_point
from .symcore import eval_point  # noqa: F401


def _is_point_field(f):
    """True when the field has order-0 data only and can be prolonged."""
    for v, c in f.components.items():
        if v.kind == "jet" and v.key[2] > 0:
            return False
        for w in c.variables():
            if w.kind == "jet" and w.key[2] > 0:
                return False
    return True


@dataclass
class GeneratorSet:
    """A distribution given by a finite list of vector fields sharing one
    context; ``order`` is the jet order the components live at."""

    ctx: JetContext
    fields: list
    order: int = 0
    labels: tuple = ()

    def __post_init__(self):
        if not self.fields:
            raise ValueError("empty generator set")
        if not self.labels:
            self.labels = tuple(f"theta{i + 1}" for i in range(len(self.fields)))

    def prolonged(self, q):
        """The same distribution lifted (or truncated) to jet order q."""
        if q == self.order:
            return self
        if all(_is_point_field(f) for f in self.fields):
            lifted = [prolong_field(self.ctx, f, q) for f in self.fields]
            return GeneratorSet(self.ctx, lifted, q, self.labels)
        if q < self.order:
            cut = [
                VectorField({
                    v: c for v, c in f.components.items()
                    if v.kind != "jet" or v.key[2] <= q
                })
                for f in self.fields
            ]
            return GeneratorSet(self.ctx, cut, q, self.labels)
        raise ValueError(
            "cannot raise the order of a set given by jet-level components"
        )


@dataclass
class InvariantCandidate:
    expr: RationalExpr
    name: str = "Phi"


def _candidate(phi):
    if isinstance(phi, InvariantCandidate):
        return phi
    return InvariantCandidate(symcore.normalize(phi))


def _needed_order(e):
    return max(
        (v.key[2] for v in e.variables() if v.kind == "jet"), default=0
    )


def is_invariant(phi, G):
    """OK iff every (suitably prolonged) generator kills the candidate."""
    phi = _candidate(phi)
    q = max(_needed_order(phi.expr), G.order)
    Gq = G.prolonged(q) if q > G.order else G
    for label, theta in zip(Gq.labels, Gq.fields):
        r = Gq.ctx.reduce(theta.apply(phi.expr))
        if not r.is_zero():
            return CheckReport(
                name=f"is_invariant({phi.name})", status="FAIL", witness=r,
                detail=f"{label} does not kill {phi.name}",
            )
    return CheckReport(name=f"is_invariant({phi.name})", status="OK")


def _component_matrix(fields):
    coords = sorted({v for f in fields for v in f.components})
    rows = [[f.component(v) for v in coords] for f in fields]
    return rows, coords


def generic_rank(fields):
    """Rank of the component matrix over the rational-function field,
    by exact elimination."""
    rows, coords = _component_matrix(fields)
    return linalg.rank(rows, len(coords))


def invariant_count(ctx, G, q):
    """Fiber dimension of jets of order <= q minus the generic rank of
    the prolonged distribution: the number of independent invariants."""
    Gq = G.prolonged(q) if q != G.order else G
    return ctx.fiber_jet_count(q) - generic_rank(Gq.fields)


def _q_linear_solve(blocks, n):
    """Constants c_1..c_n in Q with target = sum_i c_i * columns_i in
    every block (columns, target) at once.

    Returns the coefficient list (free coefficients set to 0) or None
    when no constant solution exists."""
    rows = []
    for columns, target in blocks:
        den = Polynomial.const(1)
        for e in itertools.chain(columns, [target]):
            den = den * e.den
        D = RationalExpr(den)
        polys = [(e * D).num for e in columns]
        tpoly = (target * D).num
        monos = set(tpoly.terms)
        for p in polys:
            monos |= set(p.terms)
        for mono in sorted(monos, key=symcore.mono_key):
            rows.append(
                [p.terms.get(mono, 0) for p in polys]
                + [tpoly.terms.get(mono, 0)]
            )
    red, pivots = linalg.rref(rows, n)
    sol = [Fraction(0)] * n
    for r, c in pivots:
        sol[c] = red[r][n]
    for row in red:
        if all(x == 0 for x in row[:n]) and row[n] != 0:
            return None
    return sol


def structure_constants(G):
    """Constants c^tau_{rho sigma} with [theta_rho, theta_sigma] =
    sum_tau c^tau theta_tau; raises NotClosed naming the first pair for
    which no constant combination reproduces the bracket."""
    n = len(G.fields)
    cols, coords = _component_matrix(G.fields)
    table = {}
    for rho in range(n):
        for sigma in range(rho + 1, n):
            b = bracket(G.fields[rho], G.fields[sigma])
            coeffs = None
            if all(v in coords for v in b.components):
                coeffs = _q_linear_solve(
                    [
                        ([G.fields[t].component(v) for t in range(n)],
                         b.component(v))
                        for v in coords
                    ],
                    n,
                )
            if coeffs is None:
                raise NotClosed(
                    f"[{G.labels[rho]}, {G.labels[sigma]}] is not a constant "
                    "combination of the generators"
                )
            # exact verification of the solved combination
            recon = VectorField({})
            for t in range(n):
                if coeffs[t]:
                    recon = recon + G.fields[t].scale(
                        RationalExpr.const(coeffs[t])
                    )
            if not (b - recon).is_zero():
                raise NotClosed(
                    f"[{G.labels[rho]}, {G.labels[sigma]}] is not a constant "
                    "combination of the generators"
                )
            table[(rho, sigma)] = [Fraction(c) for c in coeffs]
            table[(sigma, rho)] = [-Fraction(c) for c in coeffs]
    for rho in range(n):
        table[(rho, rho)] = [Fraction(0)] * n
    return table


def jacobi_residuals(table, n):
    """All sums c^lam_{rho sigma} c^tau_{lam nu} + cyclic; zero for any
    genuine Lie algebra of constants."""
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


def commutant_check(delta_set, theta_set):
    """OK iff every field of the first set commutes with every field of
    the second (reciprocal distributions)."""
    ctx = delta_set.ctx
    for dl, d in zip(delta_set.labels, delta_set.fields):
        for tl, t in zip(theta_set.labels, theta_set.fields):
            b = bracket(d, t)
            nonzero = None
            for v, c in b.components.items():
                r = ctx.reduce(c)
                if not r.is_zero():
                    nonzero = (v, r)
                    break
            if nonzero is not None:
                return CheckReport(
                    name="commutant_check", status="FAIL",
                    witness=nonzero[1],
                    detail=f"[{dl}, {tl}] has component on {nonzero[0].name}",
                )
    return CheckReport(name="commutant_check", status="OK")


def constancy_check(targets, pairs, identifications=None, ctx=None):
    """OK iff (delta + delta_bar) annihilates every target after the
    given invariant identifications are substituted in."""
    identifications = identifications or {}
    for i, (d, dbar) in enumerate(pairs):
        for j, t in enumerate(targets):
            r = d.apply(t) + dbar.apply(t)
            r = substitute(r, identifications)
            if ctx is not None:
                r = ctx.reduce(r)
            if not r.is_zero():
                return CheckReport(
                    name="constancy_check", status="FAIL", witness=r,
                    detail=f"pair {i + 1} does not kill target {j + 1}",
                )
    return CheckReport(name="constancy_check", status="OK")


@dataclass
class FieldImage:
    """One derivation applied to one field generator, with a membership
    verdict for the generated differential field: "stable", "unstable"
    or "undecided"."""

    generator: RationalExpr
    image: RationalExpr
    verdict: str


def _mono_vec(mono, var_index):
    v = [0] * len(var_index)
    for w, e in mono:
        v[var_index[w]] = e
    return tuple(v)


def _reachable(target, gen_vecs, memo):
    """Is target a nonnegative-integer combination of the given exponent
    vectors (monomial of the ring generated by the field generators)?"""
    if all(x == 0 for x in target):
        return True
    if target in memo:
        return memo[target]
    ok = False
    for g in gen_vecs:
        if all(t >= x for t, x in zip(target, g)) and any(g):
            rest = tuple(t - x for t, x in zip(target, g))
            if _reachable(rest, gen_vecs, memo):
                ok = True
                break
    memo[target] = ok
    return ok


def noninvariance_witness(field_gens, delta):
    """Apply the derivation to each generator of a differential field
    and classify each image: zero or a Q-combination of the generators
    is "stable"; a polynomial with a monomial outside the monoid spanned
    by the generators' monomials is "unstable"; anything else is
    "undecided"."""
    gens = [symcore.normalize(g) for g in field_gens]
    out = []
    poly_gens = [g for g in gens if g.is_polynomial()]
    varset = sorted({v for g in poly_gens for v in g.variables()})
    var_index = {v: i for i, v in enumerate(varset)}
    gen_vecs = {
        _mono_vec(m, var_index)
        for g in poly_gens
        for m in g.num.terms
        if m  # ignore constant terms
    }
    for g in gens:
        img = symcore.normalize(delta.apply(g))
        if img.is_zero():
            out.append(FieldImage(g, img, "stable"))
            continue
        combo = _q_linear_solve([(gens + [symcore.ONE], img)], len(gens) + 1)
        if combo is not None:
            out.append(FieldImage(g, img, "stable"))
            continue
        verdict = "undecided"
        if img.is_polynomial():
            if any(v not in var_index for v in img.variables()):
                verdict = "unstable"
            else:
                memo = {}
                for m in img.num.terms:
                    if m and not _reachable(
                        _mono_vec(m, var_index), gen_vecs, memo
                    ):
                        verdict = "unstable"
                        break
        out.append(FieldImage(g, img, verdict))
    return out


def generically_free(G, q):
    """True iff the prolonged distribution has rank equal to the number
    of generators at a generic point."""
    Gq = G.prolonged(q) if q != G.order else G
    return generic_rank(Gq.fields) == len(Gq.fields)
