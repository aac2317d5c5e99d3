"""Solved-form PDE systems on jet spaces.

Prolongation, symbol extraction, classes and characters, Cartan's
involutivity test, Janet boards, fiber dimensions, and the principal
homogeneous / automorphic dimension criteria.
"""
from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property

from . import symcore
from .errors import (
    DegenerateLocus,
    JetAboveOrder,
    LeadingsNotEliminated,
    OrderOverflow,
)
from .jets import JetContext
from .linalg import rank
from .report import CheckReport
from .symcore import RationalExpr, coordinate_partial, eval_point


# ---------------------------------------------------------------------------
# classes of multi-indices


def class_of(ctx, ordering, mu):
    """Smallest position (1-based) in ``ordering`` carried by mu.

    Returns None for the empty multi-index."""
    pos = {name: i + 1 for i, name in enumerate(ordering)}
    best = None
    for name, e in zip(ctx.independents, mu):
        if e > 0:
            p = pos[name]
            if best is None or p < best:
                best = p
    return best


# ---------------------------------------------------------------------------
# equations and systems


@dataclass(frozen=True)
class Equation:
    """lhs = rhs.  ``leading`` names the jet the equation is (or can be)
    solved for; it is None for fully implicit equations.  A strictly
    solved equation has lhs equal to its leading jet."""

    lhs: RationalExpr
    rhs: RationalExpr
    leading: object = None
    genericity: tuple = ()

    @cached_property
    def residual(self):
        # formed once per equation: the instance __dict__ (the dataclass
        # has no slots) keeps it, outside the fields that eq and hash use
        return symcore.normalize(self.lhs - self.rhs)

    @property
    def strict(self):
        if self.leading is None:
            return False
        return self.lhs == RationalExpr.var(self.leading)


def solved_equation(leading, rhs, genericity=()):
    return Equation(RationalExpr.var(leading), symcore.normalize(rhs),
                    leading, tuple(genericity))


def implicit_equation(lhs, rhs=None, leading=None, genericity=()):
    if rhs is None:
        rhs = symcore.ZERO
    return Equation(symcore.normalize(lhs), symcore.normalize(rhs),
                    leading, tuple(genericity))


@dataclass
class SolvedSystem:
    """A finite system of jet equations of order <= order (a residual
    carrying a higher jet raises JetAboveOrder).

    ``ordering`` ranks the independents x^1 < ... < x^n for class and
    board purposes; ``genericity`` lists expressions assumed nonzero;
    ``integrability`` collects lower-order conditions discovered during
    prolongation.
    """

    ctx: JetContext
    order: int
    equations: list
    ordering: tuple = None
    genericity: tuple = ()
    integrability: list = field(default_factory=list)

    def __post_init__(self):
        if self.ordering is None:
            self.ordering = tuple(self.ctx.independents)
        else:
            self.ordering = tuple(self.ordering)
            if sorted(self.ordering) != sorted(self.ctx.independents):
                raise ValueError("ordering must permute the independents")
        self.genericity = tuple(self.genericity)
        leads = [e.leading for e in self.equations if e.leading is not None]
        if len(set(leads)) != len(leads):
            raise ValueError("duplicate leading jets")
        strict_leads = {e.leading for e in self.equations if e.strict}
        for e in self.equations:
            if e.strict:
                for v in e.rhs.variables():
                    if v in strict_leads:
                        raise ValueError(
                            f"rhs of {e.leading.name} contains leading "
                            f"jet {v.name}"
                        )
        for e in self.equations:
            if any(_jet_order(v) > self.order
                   for v in e.lhs.variables() | e.rhs.variables()):
                # lhs and rhs may cancel a high jet; the residual decides
                for v in e.residual.variables():
                    if _jet_order(v) > self.order:
                        raise JetAboveOrder(
                            f"jet {v.name} of order {_jet_order(v)} in an "
                            f"equation of a system of order {self.order}"
                        )

    # -- helpers ------------------------------------------------------
    def residuals(self):
        return [e.residual for e in self.equations]

    def leading_class(self, eq):
        dep, mu = self.ctx.jet_info(eq.leading)
        return class_of(self.ctx, self.ordering, mu)

    def all_leadings_declared(self):
        return all(e.leading is not None for e in self.equations)

    def assumptions(self):
        out = list(self.genericity)
        for e in self.equations:
            out.extend(e.genericity)
        return out


def _jet_order(v):
    """Order of a jet variable; 0 for every other kind."""
    return v.key[2] if v.kind == "jet" else 0


def _substitute_leadings(rhs, assignments, max_passes=12):
    """Eliminate solved leading jets from rhs by repeated substitution,
    each pass binding every leading jet rhs carries at once;
    LeadingsNotEliminated when some remain after max_passes passes."""
    for passes in range(max_passes + 1):
        hits = [v for v in rhs.variables() if v in assignments]
        if not hits:
            return rhs
        if passes == max_passes:
            raise LeadingsNotEliminated(
                f"leading jets {', '.join(sorted(v.name for v in hits))} "
                f"remain after {max_passes} substitution passes"
            )
        rhs = symcore.substitute(rhs, {v: assignments[v] for v in hits})


def _bump(ctx, v, i):
    dep, mu = ctx.jet_info(v)
    nb = list(mu)
    nb[i] += 1
    return ctx.jet(dep, nb)


def _prolong_once(S, ics):
    ctx = S.ctx
    new_order = S.order + 1
    if new_order > ctx.max_order:
        raise OrderOverflow(
            f"prolongation to order {new_order} > max_order {ctx.max_order}"
        )
    assignments = {e.leading: e.rhs for e in S.equations if e.strict}
    seen = set(S.residuals())
    new_eqs = list(S.equations)
    new_solved = {}
    pending = []
    for eq in S.equations:
        for i, x in enumerate(ctx.independents):
            if eq.strict:
                dep, _ = ctx.jet_info(eq.leading)
                if x not in ctx.bases[dep]:
                    continue
                lead = _bump(ctx, eq.leading, i)
                rhs = ctx.total_derivative(eq.rhs, x)
                if lead in assignments or lead in new_solved:
                    prev = new_solved.get(lead, assignments.get(lead))
                    diff = symcore.normalize(rhs - prev)
                    diff = _substitute_leadings(
                        diff, {**assignments, **new_solved}
                    )
                    if not diff.is_zero():
                        ics.append(diff)
                    continue
                new_solved[lead] = rhs
                pending.append((lead, eq.genericity))
            else:
                lhs = ctx.total_derivative(eq.lhs, x)
                rhs = ctx.total_derivative(eq.rhs, x)
                res = symcore.normalize(lhs - rhs)
                if res in seen or res.is_zero():
                    continue
                seen.add(res)
                lead = None
                if eq.leading is not None:
                    dep, _ = ctx.jet_info(eq.leading)
                    if x in ctx.bases[dep]:
                        lead = _bump(ctx, eq.leading, i)
                new_eqs.append(Equation(lhs, rhs, lead, eq.genericity))
    # eliminate freshly solved leadings from the new right-hand sides
    table = {**assignments, **new_solved}
    for lead, gen in pending:
        rhs = _substitute_leadings(
            new_solved[lead], {v: r for v, r in table.items() if v != lead}
        )
        new_eqs.append(solved_equation(lead, rhs, gen))
    declared = {e.leading for e in new_eqs if e.leading is not None}
    if len(declared) != len([e for e in new_eqs if e.leading is not None]):
        # drop duplicate quasi-solved declarations (keep first)
        seen_leads = set()
        fixed = []
        for e in new_eqs:
            if e.leading is not None and e.leading in seen_leads:
                fixed.append(Equation(e.lhs, e.rhs, None, e.genericity))
            else:
                if e.leading is not None:
                    seen_leads.add(e.leading)
                fixed.append(e)
        new_eqs = fixed
    return SolvedSystem(ctx, new_order, new_eqs, S.ordering, S.genericity,
                        list(ics))


def prolong_system(S, r):
    """All formal derivatives d_nu (|nu| <= r) of the system, re-solved
    for bumped leading jets where possible.  Lower-order conditions
    uncovered while merging duplicate leadings are accumulated on the
    result's ``integrability`` list, not kept as equations."""
    if r < 0:
        raise ValueError("negative prolongation order")
    cur = S
    ics = list(S.integrability)
    for _ in range(r):
        cur = _prolong_once(cur, ics)
    if r == 0:
        return S
    cur.integrability = ics
    return cur


# ---------------------------------------------------------------------------
# symbols


@dataclass
class SymbolSystem:
    """Homogeneous linearization in the order-q jets: rows of
    coefficients over the columns ``columns`` (all order-q jets)."""

    ctx: JetContext
    order: int
    columns: list
    rows: list

    def rank(self):
        return rank(self.rows, len(self.columns))

    def dimension(self):
        return len(self.columns) - self.rank()


def _order_q_jets(ctx, q):
    return [v for v in ctx.jets_up_to(q) if v.key[2] == q]


def symbol_of(S):
    """Linearize each equation in its order-q jets only."""
    ctx = S.ctx
    cols = _order_q_jets(ctx, S.order)
    rows = []
    for res in S.residuals():
        carried = res.variables()
        row = [coordinate_partial(res, v) if v in carried else symcore.ZERO
               for v in cols]
        if any(not c.is_zero() for c in row):
            rows.append(row)
    return SymbolSystem(ctx, S.order, cols, rows)


def _prolonged_symbol(sym):
    """Symbol of the first prolongation at order q+1, from the order-q
    symbol ``sym``: row (res, x) holds d res/d u_{nu-1_x} at u_nu."""
    ctx = sym.ctx
    next_cols = _order_q_jets(ctx, sym.order + 1)
    index = {v: j for j, v in enumerate(next_cols)}
    rows = []
    for row in sym.rows:
        for i, x in enumerate(ctx.independents):
            out = [symcore.ZERO] * len(next_cols)
            nonzero = False
            for v, c in zip(sym.columns, row):
                if c.is_zero():
                    continue
                dep, _ = ctx.jet_info(v)
                if x not in ctx.bases[dep]:
                    continue
                j = index[_bump(ctx, v, i)]
                out[j] = c  # v -> v + 1_x is one-to-one
                nonzero = True
            if nonzero:
                rows.append(out)
    return SymbolSystem(ctx, sym.order + 1, next_cols, rows)


def _column_classes(S, cols):
    ctx = S.ctx
    out = []
    for v in cols:
        _, mu = ctx.jet_info(v)
        out.append(class_of(ctx, S.ordering, mu))
    return out


def _is_covered(pivot, gens):
    """True when the pivot's numerator divides out to a constant against
    the declared-nonzero generators."""
    num = symcore.normalize(pivot).num
    progress = True
    while not num.is_constant() and progress:
        progress = False
        for g in gens:
            gn = symcore.normalize(g).num
            if gn.is_constant():
                continue
            q = symcore.poly_divexact(num, gn)
            if q is not None:
                num = q
                progress = True
                break
    return num.is_constant()


def characters(S, strict=False, sym=None):
    """Cartan characters (alpha^1, ..., alpha^n), ascending by class.

    alpha^i = (#order-q jets of class i) - (#class-i equations); the
    class of a solved equation is the class of its leading jet, and
    implicit equations are classed by exact symbol elimination that
    prefers the highest classes.  ``sym`` is S's symbol when the caller
    has already built it."""
    if S.order < 1:
        raise ValueError("characters need a system of order >= 1")
    ctx = S.ctx
    n = len(S.ordering)
    cols = _order_q_jets(ctx, S.order)
    classes = _column_classes(S, cols)
    counts = [classes.count(i) for i in range(1, n + 1)]
    top = [
        e for e in S.equations
        if e.leading is not None and ctx.jet_info(e.leading)[1]
        and sum(ctx.jet_info(e.leading)[1]) == S.order
    ]
    if S.all_leadings_declared() and len(top) == len(S.equations):
        beta = [0] * (n + 1)
        for e in S.equations:
            beta[S.leading_class(e)] += 1
        return tuple(counts[i - 1] - beta[i] for i in range(1, n + 1))
    if sym is None:
        sym = symbol_of(S)
    if strict:
        _strict_pivot_audit(S, sym, classes)
    beta = [0] * (n + 2)
    prev = 0
    for i in range(n, 0, -1):
        keep = [j for j, c in enumerate(classes) if c >= i]
        sub = [[row[j] for j in keep] for row in sym.rows]
        r = rank(sub, len(keep))
        beta[i] = r - prev
        prev = r
    return tuple(counts[i - 1] - beta[i] for i in range(1, n + 1))


def _strict_pivot_audit(S, sym, classes):
    # its own dense elimination, not linalg.rref: it takes the first
    # nonzero row as pivot and stops at the first pivot the genericity
    # does not cover, where rref would finish the whole matrix first
    order = sorted(range(len(sym.columns)), key=lambda j: -classes[j])
    rows = [list(r) for r in sym.rows]
    used = set()
    for col in order:
        best = None
        for r in range(len(rows)):
            if r in used or rows[r][col].is_zero():
                continue
            best = r
            break
        if best is None:
            continue
        used.add(best)
        pv = rows[best][col]
        if not (pv.num.is_constant() and pv.den.is_constant()):
            if not _is_covered(pv, S.assumptions()):
                raise DegenerateLocus(
                    f"pivot {pv} on {sym.columns[col].name} not covered "
                    "by declared genericity"
                )
        rows[best] = [x / pv for x in rows[best]]
        for r in range(len(rows)):
            if r == best or rows[r][col].is_zero():
                continue
            f = rows[r][col]
            rows[r] = [a - f * b for a, b in zip(rows[r], rows[best])]


def cartan_test(S):
    """dim g_{q+1} against the character bound sum_i i*alpha^i."""
    sym = symbol_of(S)
    alpha = characters(S, sym=sym)
    bound = sum((i + 1) * a for i, a in enumerate(alpha))
    dim_next = _prolonged_symbol(sym).dimension()
    sym_dim = sym.dimension()
    status = "OK" if dim_next == bound else "FAIL"
    return CheckReport(
        "cartan_test", status,
        witness=None if status == "OK" else (dim_next, bound),
        numbers={
            "characters": alpha,
            "dim_symbol": sym_dim,
            "dim_symbol_next": dim_next,
            "bound": bound,
        },
        assumptions=list(S.assumptions()),
        detail="ordering assumed delta-regular",
    )


# ---------------------------------------------------------------------------
# Janet boards


@dataclass
class JanetBoard:
    ordering: tuple
    rows: list  # (dependent label, class index, flags ascending by class)

    def render(self):
        n = len(self.ordering)
        lines = []
        for label, cls, flags in self.rows:
            cells = []
            for j in range(n, 0, -1):
                cells.append(self.ordering[j - 1] if flags[j - 1] else "•")
            lines.append(" ".join(cells))
        return "\n".join(lines) + "\n"


def janet_board(S):
    """One row per equation; class-i rows are multiplicative exactly in
    x^i ... x^n.  Rows are listed full rows first (class ascending)."""
    ctx = S.ctx
    if not S.all_leadings_declared():
        raise ValueError("janet_board needs a leading jet on every equation")
    n = len(S.ordering)
    rows = []
    for e in S.equations:
        dep, mu = ctx.jet_info(e.leading)
        cls = class_of(ctx, S.ordering, mu)
        if cls is None:
            raise ValueError("order-0 leading has no class")
        flags = tuple(j >= cls for j in range(1, n + 1))
        rows.append((dep, cls, flags))
    rows.sort(key=lambda r: (r[1], ctx.dependents.index(r[0])))
    return JanetBoard(S.ordering, rows)


# ---------------------------------------------------------------------------
# fiber dimensions and the PHS / automorphic criteria


def witness_from_section(section, point):
    """Evaluation point on the jet variety: jets take the section's
    values at ``point`` (which also fixes independents and specials)."""
    ctx = section.ctx
    out = dict(point)
    for (dep, mu), val in section.values.items():
        out[ctx.jet(dep, mu)] = eval_point(val, point)
    return out


def fiber_dimension(S, witness=None):
    """#jets(<= q) minus the number of independent equations.

    Solved systems are counted directly; implicit systems need an exact
    on-variety witness point at which the Jacobian rank is computed."""
    ctx = S.ctx
    njets = ctx.fiber_jet_count(S.order)
    if witness is None:
        if not S.all_leadings_declared():
            raise ValueError(
                "implicit system: fiber_dimension needs a witness point"
            )
        return njets - len(S.equations)
    jets = ctx.jets_up_to(S.order)
    rows = []
    for res in S.residuals():
        val = eval_point(res, witness)
        if val != 0:
            raise ValueError(f"witness is not on the variety: residual {val}")
        rows.append([eval_point(coordinate_partial(res, v), witness)
                     for v in jets])
    for g in S.assumptions():
        if eval_point(g, witness) == 0:
            raise DegenerateLocus(f"witness kills genericity {g}")
    return njets - rank(rows, len(jets))


def phs_check(A, R, witness_a=None, witness_r=None, name="phs"):
    da = fiber_dimension(A, witness_a)
    dr = fiber_dimension(R, witness_r)
    status = "OK" if da == dr else "FAIL"
    return CheckReport(
        name, status,
        witness=None if status == "OK" else (da, dr),
        numbers={"dim_system": da, "dim_groupoid": dr},
        assumptions=list(A.assumptions()) + list(R.assumptions()),
    )


def automorphic_criterion(A, R, witness_a=None, witness_r=None):
    """PHS at the given order and again after one prolongation, with the
    system required involutive."""
    ct = cartan_test(A)
    p0 = phs_check(A, R, witness_a, witness_r, name="phs_q")
    A1 = prolong_system(A, 1)
    R1 = prolong_system(R, 1)
    p1 = phs_check(A1, R1, witness_a, witness_r, name="phs_q1")
    ok = ct.ok and p0.ok and p1.ok
    return CheckReport(
        "automorphic_criterion", "OK" if ok else "FAIL",
        witness=None if ok else {
            "involutive": ct.ok, "phs_q": p0.numbers, "phs_q1": p1.numbers,
        },
        numbers={
            "dim_system_q": p0.numbers["dim_system"],
            "dim_groupoid_q": p0.numbers["dim_groupoid"],
            "dim_system_q1": p1.numbers["dim_system"],
            "dim_groupoid_q1": p1.numbers["dim_groupoid"],
            "involutive": ct.ok,
        },
        assumptions=list(A.assumptions()) + list(R.assumptions()),
    )


def compatibility_count(S):
    """Number of compatibility conditions among the first-prolongation
    equations D_x res (one per equation and independent x): their count
    minus the rank of their top-order linearization.

    That linearization is the prolonged symbol.  Every residual has
    order <= q, so in D_x res = d_x res + sum_w (d res/d w) u_{w+1_x}
    only the term w = nu - 1_x carries the order-(q+1) jet u_nu, and

        d(D_x res)/d u_nu = d res/d u_{nu-1_x}

    when x is in the dependent's bases and nu_x >= 1; the entry is 0
    otherwise.  ``_prolonged_symbol`` places exactly these entries; it
    drops the all-zero rows of lower-order equations, which add nothing
    to the rank but still count."""
    n_rows = len(S.equations) * len(S.ctx.independents)
    return n_rows - _prolonged_symbol(symbol_of(S)).rank()
