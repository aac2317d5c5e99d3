"""Solved-form PDE systems on jet spaces.

Prolongation, symbol extraction, classes and characters, Cartan's
involutivity test, Janet boards, fiber dimensions, and the principal
homogeneous / automorphic dimension criteria.
"""
from __future__ import annotations

from functools import cached_property

from . import symcore
from .errors import (
    ClasslessLeading,
    DegenerateLocus,
    JetAboveOrder,
    LeadingJetConflict,
    LeadingsNotEliminated,
    OffVariety,
    OrderOverflow,
    UnsolvedSystem,
)
from .jets import jet_order
from .linalg import clear, pivot_columns, rank
from .report import CheckReport
from .symcore import RationalExpr, eval_point, linearize


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


class Equation:
    """lhs = rhs.  ``leading`` names the jet the equation is (or can be)
    solved for; it is None for fully implicit equations.  A strictly
    solved equation has lhs equal to its leading jet."""

    def __init__(self, lhs, rhs, leading=None, genericity=()):
        self.lhs = lhs
        self.rhs = rhs
        self.leading = leading
        self.genericity = genericity

    @cached_property
    def residual(self):
        # formed once per equation and kept in the instance __dict__
        return self.lhs - self.rhs

    @cached_property
    def strict(self):
        # kept like residual: compared once, with the leading jet's one
        # expression
        if self.leading is None:
            return False
        return self.lhs == RationalExpr.var(self.leading)


def solved_equation(leading, rhs, genericity=()):
    return Equation(RationalExpr.var(leading), rhs, leading,
                    tuple(genericity))


def implicit_equation(lhs, rhs=None, leading=None, genericity=()):
    if rhs is None:
        rhs = symcore.ZERO
    return Equation(lhs, rhs, leading, tuple(genericity))


class SolvedSystem:
    """A finite system of jet equations of order <= order (a residual
    carrying a higher jet raises JetAboveOrder).

    ``ordering`` ranks the independents x^1 < ... < x^n for class and
    board purposes; ``genericity`` lists expressions assumed nonzero;
    ``integrability`` collects lower-order conditions discovered during
    prolongation.  No two equations declare one leading jet
    (LeadingJetConflict); the loader gives no residual that is a constant
    multiple of an earlier one, and prolong_system none that equals an
    earlier one up to sign, which is not re-checked here.

    The first prolongation is kept on the system once it is formed, and
    the symbol once it is asked for (``prolong_system``, ``symbol_of``),
    so the equations must not change once either has been.
    """

    def __init__(self, ctx, order, equations, ordering=None, genericity=(),
                 integrability=None):
        if ordering is None:
            ordering = tuple(ctx.independents)
        else:
            ordering = tuple(ordering)
            if sorted(ordering) != sorted(ctx.independents):
                raise ValueError("ordering must permute the independents")
        conflict = leading_conflict(equations)
        if conflict is not None:
            raise LeadingJetConflict(conflict[1])
        above = jet_above_order(equations, order)
        if above is not None:
            raise JetAboveOrder(above[1])
        self.ctx = ctx
        self.order = order
        self.equations = equations
        self.ordering = ordering
        self.genericity = tuple(genericity)
        self.integrability = [] if integrability is None else integrability
        # S's SymbolSystem, built on the first symbol_of(S) call
        self._symbol = None
        # S prolonged once, formed on the first prolong_system(S, r >= 1)
        # call; its equations past len(S.equations) are that round's
        # frontier
        self._prolonged = None

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


def leading_conflict(equations):
    """The first equation, as (index, message), that is solved for a
    leading jet an earlier one is solved for, or that is strictly solved
    with another strict leading jet on its right-hand side; None when
    the leading jets are consistent."""
    first = {}
    for i, e in enumerate(equations):
        if e.leading is None:
            continue
        if e.leading in first:
            return i, (f"duplicate leading jet {e.leading.name} (also "
                       f"equations[{first[e.leading]}])")
        first[e.leading] = i
    strict = [(i, e) for i, e in enumerate(equations) if e.strict]
    strict_leads = {e.leading for _, e in strict}
    for i, e in strict:
        carried = e.rhs.variables() & strict_leads
        if carried:
            return i, (f"rhs of {e.leading.name} contains leading jet "
                       f"{min(carried).name}")
    return None


def jet_above_order(equations, order):
    """The first equation, as (index, message), whose residual carries a
    jet above ``order``, and the first such jet in the variable order;
    None when there is none.  lhs and rhs may cancel a high jet, so the
    residual decides."""
    for i, e in enumerate(equations):
        if any(jet_order(v) > order
               for v in e.lhs.variables() | e.rhs.variables()):
            for v in sorted(e.residual.variables()):
                if jet_order(v) > order:
                    return i, (f"jet {v.name} of order {jet_order(v)} in an "
                               f"equation of a system of order {order}")
    return None


MAX_PASSES = 12


def _substitute_leadings(rhs, assignments, skip=None):
    """Eliminate solved leading jets other than ``skip`` from rhs by
    repeated substitution, each pass binding every such jet rhs carries
    at once; LeadingsNotEliminated when some remain after MAX_PASSES
    passes."""
    for passes in range(MAX_PASSES + 1):
        hits = [v for v in rhs.variables()
                if v in assignments and v != skip]
        if not hits:
            return rhs
        if passes == MAX_PASSES:
            raise LeadingsNotEliminated(
                f"leading jets {', '.join(sorted(v.name for v in hits))} "
                f"remain after {MAX_PASSES} substitution passes"
            )
        rhs = symcore.substitute(rhs, {v: assignments[v] for v in hits})


def _prolong_once(S, parents):
    """S prolonged once by differentiating only ``parents``, the
    equations of S that the previous round admitted (all of them in the
    first round): D_i of an older equation was formed in that round."""
    ctx = S.ctx
    new_order = S.order + 1
    if new_order > ctx.max_order:
        raise OrderOverflow(
            f"prolongation to order {new_order} > max_order {ctx.max_order}"
        )
    # strict leading jet -> rhs, S's and then each freshly solved one
    table = {e.leading: e.rhs for e in S.equations if e.strict}
    derived, solved, ics = [], [], list(S.integrability)
    for eq in parents:
        for i in range(len(ctx.independents)):
            lead = None if eq.leading is None else ctx.shift(eq.leading, i)
            if not (eq.strict and lead is not None):
                derived.append(implicit_equation(
                    ctx.total_derivative(eq.residual, i), None, lead,
                    eq.genericity))
                continue
            rhs = ctx.total_derivative(eq.rhs, i)
            if lead in table:
                diff = _substitute_leadings(rhs - table[lead], table)
                if not diff.is_zero():
                    ics.append(diff)
            else:
                table[lead] = rhs
                solved.append((lead, eq.genericity))
    # each freshly solved rhs, cleared of every other solved leading jet
    for lead, gen in solved:
        derived.append(solved_equation(
            lead, _substitute_leadings(table[lead], table, lead), gen))
    equations = list(S.equations)
    # a repeat is left out up to sign only: the loader refuses any
    # constant multiple (cli._system), as a repeat counts twice among the
    # declared leading jets of characters' fast path, which ROADMAP item
    # 2 deletes
    seen = {e.residual for e in equations}
    declared = {e.leading for e in equations}
    for e in derived:
        res = e.residual
        if res.is_zero() or res in seen or -res in seen:
            continue
        seen.add(res)
        if e.leading is not None and e.leading in declared:
            e = implicit_equation(e.lhs, e.rhs, None, e.genericity)
        declared.add(e.leading)
        equations.append(e)
    # a kept strict rhs carries jets up to S.order and none of S's strict
    # leading jets, but may carry one this round solved for (u = x^2 and
    # v[x] = u[x] solve for u[x]), which leading_conflict would refuse:
    # only such a rhs is cleared of the new system's strict leading jets
    low = {e.leading for e in equations[len(S.equations):]
           if e.strict and jet_order(e.leading) <= S.order}
    if low:
        strict = {e.leading: e.rhs for e in equations if e.strict}
        for k, e in enumerate(S.equations):
            if e.strict and not low.isdisjoint(e.rhs.variables()):
                equations[k] = solved_equation(e.leading, _substitute_leadings(
                    e.rhs, strict, e.leading), e.genericity)
    return SolvedSystem(ctx, new_order, equations, S.ordering, S.genericity,
                        ics)


def prolong_system(S, r):
    """All formal derivatives D_nu (|nu| <= r) of S's equations, with
    no residual zero or equal to an earlier one up to sign.  D_i of a
    strictly solved equation is solved for its bumped leading jet, and
    two that reach the same jet leave their difference on
    ``integrability``; any other D_i is that of the residual.  A later
    equation declaring an earlier one's leading jet is kept without it,
    and a strictly solved rhs that carries a jet a round solves for is
    cleared of the round's strict leading jets.

    Each round differentiates only the equations the round before it
    admitted, so an equation is differentiated once, in each of the n
    independents: on a fresh S, prolong_system(S, r) takes n times
    len(prolong_system(S, r - 1).equations) total derivatives.  Each
    round's result is kept on the system it prolongs, so a later call
    on the same S extends that tower: prolong_system(S, 2) after
    prolong_system(S, 1) runs round 2 alone, and a repeated call returns
    the same object."""
    if r < 0:
        raise ValueError("negative prolongation order")
    parents = S.equations
    for _ in range(r):
        known = len(S.equations)
        if S._prolonged is None:
            S._prolonged = _prolong_once(S, parents)
        S = S._prolonged
        parents = S.equations[known:]
    return S


# ---------------------------------------------------------------------------
# symbols


class SymbolSystem:
    """Homogeneous linearization in the order-q jets ``columns`` (all of
    them): each row is sparse, ``{j: Polynomial}``, as ``linalg.rank``
    takes it, with no zero entry and never empty.  Each row is a
    residual's row of partials by ``columns`` times one nonzero factor
    (``symcore.linearize``), which leaves every rank as it is.
    ``symbol_of`` keeps one row per residual; ``_prolonged_symbol``
    keeps each distinct shifted row once, so it holds no two equal
    rows."""

    def __init__(self, ctx, order, columns, rows):
        self.ctx = ctx
        self.order = order
        self.columns = columns
        self.rows = rows

    def rank(self):
        return rank(self.rows, len(self.columns))

    def dimension(self):
        return len(self.columns) - self.rank()


def _order_q_jets(ctx, q):
    """The order-q jets of ``jets_up_to(q)``, in its order."""
    return [ctx.jet(dep, mu) for dep in ctx.dependents
            for mu in ctx.multi_indices(q, ctx.bases[dep])]


def symbol_of(S):
    """S's symbol: each equation linearized in its order-q jets only
    (``symcore.linearize``, no gcd), its row divided by its integer
    content (``linalg.clear``).

    The symbol is built on the first call, kept on S and returned as the
    same object on every later call, so ``characters``, ``cartan_test``,
    ``compatibility_count`` and direct callers share one build.  No
    caller may change its rows (``rank`` and ``rref`` read them and
    build new rows), and S's equations must not change once it has been
    asked for."""
    sym = S._symbol
    if sym is None:
        cols = _order_q_jets(S.ctx, S.order)
        index = {v: j for j, v in enumerate(cols)}
        rows = []
        for res in S.residuals():
            row = linearize(res, index)
            if row:
                rows.append(clear({index[v]: p for v, p in row.items()}))
        sym = S._symbol = SymbolSystem(S.ctx, S.order, cols, rows)
    return sym


def _prolonged_symbol(sym):
    """Symbol of the first prolongation at order q+1, from the order-q
    symbol ``sym``: row (res, x) holds d res/d u_{nu-1_x} at u_nu, each
    distinct row once.

    One table per independent x maps each order-q column to the column
    of its jet shifted by x (None where x is not in the dependent's
    bases), and each row goes through it.  The shift moves entries
    without changing them, so a row's one nonzero factor carries over,
    even where the shift drops entries; what is left may then keep
    some integer content, which ``rank`` divides out.

    A shifted row equal to one already kept (the same columns, equal
    entries) is left out, as it adds nothing to a rank.  Total
    derivatives commute, D_i D_j = D_j D_i, so when S holds D_j E and
    D_i E, the row of D_j E shifted by x_i is the row of D_i E shifted
    by x_j (eleven_equation's prolonged symbol at r = 2 keeps 118 of its
    236 shifted rows); so, too, the one-entry rows of u_{mu+1_j} = ...
    and u_{mu+1_i} = ... both reach u_{mu+1_i+1_j}.  Rows are grouped
    by their column sets, and compared only within a group."""
    ctx = sym.ctx
    next_cols = _order_q_jets(ctx, sym.order + 1)
    index = {v: j for j, v in enumerate(next_cols)}
    tables = [[None if w is None else index[w]  # one-to-one in j
               for w in (ctx.shift(v, i) for v in sym.columns)]
              for i in range(len(ctx.independents))]
    rows = []
    kept = {}  # column set -> the rows kept on it
    for row in sym.rows:
        for to in tables:
            out = {to[j]: p for j, p in row.items() if to[j] is not None}
            if not out:
                continue
            same = kept.setdefault(frozenset(out), [])
            if out not in same:
                same.append(out)
                rows.append(out)
    return SymbolSystem(ctx, sym.order + 1, next_cols, rows)


def _column_classes(S, cols):
    ctx = S.ctx
    out = []
    for v in cols:
        _, mu = ctx.jet_info(v)
        out.append(class_of(ctx, S.ordering, mu))
    return out


def characters(S):
    """Cartan characters (alpha^1, ..., alpha^n), ascending by class.

    alpha^i = (#order-q jets of class i) - (#class-i equations); the
    class of a solved equation is the class of its leading jet, and
    implicit equations are classed by one exact elimination of the
    symbol's rows, class n's columns first
    (``linalg.pivot_columns``): beta^i
    is the number of its pivots in class-i columns."""
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
    beta = [0] * (n + 1)
    if S.all_leadings_declared() and len(top) == len(S.equations):
        for e in S.equations:
            beta[S.leading_class(e)] += 1
        return tuple(counts[i - 1] - beta[i] for i in range(1, n + 1))
    sym = symbol_of(S)
    block = [n - c for c in classes]
    for j in pivot_columns(sym.rows, len(cols), block):
        beta[classes[j]] += 1
    return tuple(counts[i - 1] - beta[i] for i in range(1, n + 1))


def cartan_test(S):
    """dim g_{q+1} against the character bound sum_i i*alpha^i."""
    sym = symbol_of(S)
    alpha = characters(S)
    bound = sum((i + 1) * a for i, a in enumerate(alpha))
    dim_next = _prolonged_symbol(sym).dimension()
    sym_dim = sym.dimension()
    return CheckReport(
        witness=None if dim_next == bound else (dim_next, bound),
        numbers={
            "characters": alpha,
            "dim_symbol": sym_dim,
            "dim_symbol_next": dim_next,
            "bound": bound,
        },
        detail="ordering assumed delta-regular",
    )


# ---------------------------------------------------------------------------
# Janet boards


class JanetBoard:
    def __init__(self, ordering, rows):
        self.ordering = ordering
        # (dependent label, class index, flags ascending by class)
        self.rows = rows

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
        raise UnsolvedSystem(
            "janet_board needs a leading jet on every equation")
    n = len(S.ordering)
    rows = []
    for e in S.equations:
        dep, mu = ctx.jet_info(e.leading)
        cls = class_of(ctx, S.ordering, mu)
        if cls is None:
            raise ClasslessLeading(
                f"order-0 leading jet {e.leading.name} has no class")
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
    on-variety witness point at which the Jacobian rank is computed.
    There each residual n/d has n = 0, so its row (``symcore.linearize``)
    at the point is its Jacobian row times d^2 (or d), nonzero there."""
    ctx = S.ctx
    njets = ctx.fiber_jet_count(S.order)
    if witness is None:
        if not S.all_leadings_declared():
            raise UnsolvedSystem(
                "implicit system: fiber_dimension needs a witness point"
            )
        return njets - len(S.equations)
    index = {v: j for j, v in enumerate(ctx.jets_up_to(S.order))}
    rows = []
    for res in S.residuals():
        val = eval_point(res, witness)
        if val != 0:
            raise OffVariety(f"witness is not on the variety: residual {val}")
        rows.append({index[v]: p.eval(witness)
                     for v, p in linearize(res, index).items()})
    for g in S.assumptions():
        if eval_point(g, witness) == 0:
            raise DegenerateLocus(f"witness kills genericity {g}")
    return njets - rank(rows, len(index))


def phs_check(A, R, witness_a=None, witness_r=None):
    da = fiber_dimension(A, witness_a)
    dr = fiber_dimension(R, witness_r)
    return CheckReport(
        witness=None if da == dr else (da, dr),
        numbers={"dim_system": da, "dim_groupoid": dr},
    )


def automorphic_criterion(A, R, witness_a=None, witness_r=None):
    """PHS at the given order and again after one prolongation, with the
    system required involutive."""
    ct = cartan_test(A)
    p0 = phs_check(A, R, witness_a, witness_r)
    A1 = prolong_system(A, 1)
    R1 = prolong_system(R, 1)
    p1 = phs_check(A1, R1, witness_a, witness_r)
    ok = ct.ok and p0.ok and p1.ok
    return CheckReport(
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
    drops the all-zero rows of lower-order equations and the repeated
    rows that D_i D_j = D_j D_i makes, which add nothing to the rank
    but still count."""
    n_rows = len(S.equations) * len(S.ctx.independents)
    return n_rows - _prolonged_symbol(symbol_of(S)).rank()
