"""Differential-invariant verification layer.

Checks that candidate functions are killed by prolonged generator
distributions, measures generic ranks and invariant counts, and computes
structure constants of closed distributions.
"""
from __future__ import annotations

from fractions import Fraction

from . import linalg, symcore
from .errors import NotClosed
from .jets import VectorField, bracket, jet_order, prolong_field
from .report import CheckReport
from .symcore import RationalExpr
# not called here; kept as a module attribute because perfbench's tests
# check that the tracer wraps this imported copy of symcore.eval_point
from .symcore import eval_point  # noqa: F401


def is_point_field(f):
    """True when the field has order-0 data only and can be prolonged."""
    return all(
        jet_order(w) == 0
        for v, c in f.components.items() for w in (v, *c.variables())
    )


class GeneratorSet:
    """A distribution given by a finite list of vector fields sharing one
    context; ``order`` is the jet order the components live at.

    The structure table is kept on the set once it is formed
    (``structure_constants``), so the fields must not change once it
    has been."""

    def __init__(self, ctx, fields, order=0, labels=()):
        if not fields:
            raise ValueError("empty generator set")
        self.ctx = ctx
        self.fields = fields
        self.order = order
        self.labels = labels or tuple(
            f"theta{i + 1}" for i in range(len(fields)))
        # the structure table, built on the first structure_constants call
        self._structure = None

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
    Gq = G.prolonged(max(_needed_order(phi), G.order))
    for label, theta in zip(Gq.labels, Gq.fields):
        r = Gq.ctx.reduce(theta.apply(phi))
        if not r.is_zero():
            return CheckReport(witness=r, detail=f"{label} does not kill Phi")
    return CheckReport()


def generic_rank(fields):
    """Rank of the component matrix over the rational-function field,
    by exact elimination."""
    coords = sorted({v for f in fields for v in f.components})
    col = {v: j for j, v in enumerate(coords)}
    rows = [{col[v]: c for v, c in f.components.items()} for f in fields]
    return linalg.rank(rows, len(coords))


def invariant_count(ctx, G, q):
    """The number of functionally independent invariants of the jets of
    order <= q and the independents some field moves: those coordinates
    less the generic rank of the prolonged distribution.  An independent
    that no field moves is an invariant by itself and is not counted."""
    Gq = G.prolonged(q)
    moved = {v for f in Gq.fields for v in f.components
             if v.kind == "independent"}
    return ctx.fiber_jet_count(q) + len(moved) - generic_rank(Gq.fields)


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
    which no constant combination reproduces the bracket.

    The table is built on the first call, kept on G and returned as the
    same object on every later call, so ``structure_table`` and
    ``jacobi_table`` checks of one set share one build; no caller may
    change it.  A set that is not closed keeps nothing, and every call
    raises anew."""
    if G._structure is not None:
        return G._structure
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
    G._structure = table
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
