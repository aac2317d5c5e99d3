"""Differential-invariant verification layer.

Checks that candidate functions are killed by prolonged generator
distributions, measures generic ranks and invariant counts, computes
structure constants of closed distributions, verifies commuting
(reciprocal) distributions, and runs two-sided constancy checks.
"""
from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from . import linalg, symcore
from .errors import NotClosed
from .jets import JetContext, VectorField, bracket, jet_order, prolong_field
from .report import CheckReport
from .symcore import RationalExpr, substitute
# not called here; kept as a module attribute because perfbench's tests
# check that the tracer wraps this imported copy of symcore.eval_point
from .symcore import eval_point  # noqa: F401


def is_point_field(f):
    """True when the field has order-0 data only and can be prolonged."""
    return all(
        jet_order(w) == 0
        for v, c in f.components.items() for w in (v, *c.variables())
    )


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
        if all(map(is_point_field, self.fields)):
            lifted = [prolong_field(self.ctx, f, q) for f in self.fields]
            return GeneratorSet(self.ctx, lifted, q, self.labels)
        if q < self.order:
            cut = [
                VectorField({
                    v: c for v, c in f.components.items()
                    if jet_order(v) <= q
                })
                for f in self.fields
            ]
            return GeneratorSet(self.ctx, cut, q, self.labels)
        raise ValueError(
            "cannot raise the order of a set given by jet-level components"
        )


def _needed_order(e):
    return max(map(jet_order, e.variables()), default=0)


def is_invariant(phi, G):
    """OK iff every (suitably prolonged) generator kills the candidate
    Phi."""
    q = max(_needed_order(phi), G.order)
    Gq = G.prolonged(q) if q > G.order else G
    for label, theta in zip(Gq.labels, Gq.fields):
        r = Gq.ctx.reduce(theta.apply(phi))
        if not r.is_zero():
            return CheckReport("FAIL", witness=r,
                               detail=f"{label} does not kill Phi")
    return CheckReport("OK")


def generic_rank(fields):
    """Rank of the component matrix over the rational-function field,
    by exact elimination."""
    coords = sorted({v for f in fields for v in f.components})
    col = {v: j for j, v in enumerate(coords)}
    rows = [{col[v]: c for v, c in f.components.items()} for f in fields]
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
    when no constant solution exists.

    A returned list reproduces every target exactly.  Over one
    denominator B (symcore.over_one_denominator), each expression e of a
    block is the polynomial e*B, and the block's rows are the coefficient
    equations of sum_i c_i * (columns_i * B) = target * B, one per
    monomial.  rref keeps the row space, so a solution of the reduced
    rows solves every row; with the free coefficients 0, each pivot row
    reads c_pivot = its target entry, and a row with no other entry left
    has been refused.  Both sides then agree at every monomial, hence as
    polynomials, and dividing by B gives target = sum_i c_i * columns_i
    in every block.  Conversely any solution solves the rows, since B is
    a nonzero polynomial, so no solution is lost."""
    rows = []
    for columns, target in blocks:
        # the target is column n
        polys, _ = symcore.over_one_denominator([*columns, target])
        monos = set().union(*(p.terms for p in polys))
        for mono in sorted(monos, key=symcore.mono_key):
            rows.append({j: p.terms[mono] for j, p in enumerate(polys)
                         if mono in p.terms})
    red, pivots = linalg.rref(rows, n)
    # a row reduced to its target entry alone reads 0 = target
    if any(row.keys() == {n} for row in red):
        return None
    sol = [Fraction(0)] * n
    for r, c in pivots:
        sol[c] = red[r].get(n, Fraction(0))
    return sol


def structure_constants(G):
    """Constants c^tau_{rho sigma} with [theta_rho, theta_sigma] =
    sum_tau c^tau theta_tau; raises NotClosed naming the first pair for
    which no constant combination reproduces the bracket."""
    n = len(G.fields)
    coords = sorted({v for f in G.fields for v in f.components})
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
            # a solved combination is verified exactly before it is kept
            if coeffs is None or not (b - sum(
                    (f.scale(RationalExpr.const(c))
                     for f, c in zip(G.fields, coeffs) if c),
                    start=VectorField({}))).is_zero():
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
    """The n^4 Jacobi residuals of a structure table ``{(a, b): [c^0_{ab},
    ..., c^{n-1}_{ab}]}`` (every pair of generators 0..n-1), each a
    ``Fraction``, in (rho, sigma, nu, tau) order: c^lam_{rho sigma}
    c^tau_{lam nu} summed over lam, plus its two cyclic shifts in
    (rho, sigma, nu).  All are zero exactly when the constants satisfy
    the Jacobi identity; the length of the list is what ``jacobi_table``
    reports as ``residuals``.  Only nonzero constants enter the sums."""
    nonzero = {key: [(lam, c) for lam, c in enumerate(row) if c]
               for key, row in table.items()}
    out = []
    for rho in range(n):
        for sigma in range(n):
            for nu in range(n):
                acc = [Fraction(0)] * n
                for a, b, d in ((rho, sigma, nu), (sigma, nu, rho),
                                (nu, rho, sigma)):
                    for lam, c in nonzero[(a, b)]:
                        for tau, e in nonzero[(lam, d)]:
                            acc[tau] += c * e
                out.extend(acc)
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
                    "FAIL", witness=nonzero[1],
                    detail=f"[{dl}, {tl}] has component on {nonzero[0].name}",
                )
    return CheckReport("OK")


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
                    "FAIL", witness=r,
                    detail=f"pair {i + 1} does not kill target {j + 1}",
                )
    return CheckReport("OK")


@dataclass
class FieldImage:
    """One derivation applied to one field generator, with a membership
    verdict for the generated differential field: "stable", "unstable"
    or "undecided"."""

    generator: RationalExpr
    image: RationalExpr
    verdict: str


def _jacobian_rank(exprs):
    """Rank of the Jacobian of ``exprs`` (``gradient`` over every
    variable they carry) over the rational-function field."""
    return generic_rank([VectorField(symcore.gradient(e, e.variables()))
                         for e in exprs])


def noninvariance_witness(field_gens, delta):
    """Apply the derivation to each generator of a differential field
    and classify each image: zero or a Q-combination of the generators
    is "stable"; an image that raises the Jacobian rank of the
    generators is "unstable", since a rise proves it algebraically
    independent of them, so outside the field they generate; anything
    else is "undecided".  Specials count as independent coordinates,
    since no context is given."""
    gens = list(field_gens)
    base = _jacobian_rank(gens)
    out = []
    for g in gens:
        img = delta.apply(g)
        if img.is_zero() or _q_linear_solve(
                [(gens + [symcore.ONE], img)], len(gens) + 1) is not None:
            verdict = "stable"
        elif _jacobian_rank(gens + [img]) > base:
            verdict = "unstable"
        else:
            verdict = "undecided"
        out.append(FieldImage(g, img, verdict))
    return out
