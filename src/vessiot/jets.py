"""Jet-space structure.

Contexts declaring coordinates, total (formal) derivatives, prolongation
of vector fields, the Spencer operator, brackets, and exterior calculus
with RationalExpr coefficients.

This module owns the jet index.  A jet variable's ``key`` is (3,
dependent index, |mu|, mu); ``symcore`` orders and hashes variables by
their keys, and apart from that only ``JetContext.jet``, ``jet_info``,
``jet_order`` and ``JetContext.bump`` (the multi-index D_i reaches)
build or read one.  Every other module goes through them.

``JetContext.shift`` gives the jet D_i reaches from a jet from one table
per context, filled on first use; total derivatives, prolongation and
the prolonged symbol read it, so each jet's shift is worked out once.

``JetContext.total_derivative`` is the one derivative along an
independent; ``symcore`` takes the partials along other coordinates.
"""
from __future__ import annotations

import itertools
from fractions import Fraction

from . import symcore
from .errors import OrderOverflow, UnknownVariable
from .parser import parse_expression
from .symcore import RationalExpr, RewriteRule, VariableId


class SpecialSpec:
    """A non-rational function symbol: name, base independent, name of the
    derivative expression, optional rewrite rule 'pattern -> replacement'."""

    def __init__(self, name, base, derivative, rewrite=None):
        self.name = name
        self.base = base
        self.derivative = derivative
        self.rewrite = rewrite


def jet_order(v):
    """|mu| of a jet variable; 0 for every other kind."""
    return v.key[2] if v.kind == "jet" else 0


class JetContext:
    """Declaration of independents, dependents (with base sets),
    parameters and special symbols, plus a jet-order cap."""

    def __init__(self, independents, dependents, parameters=(), specials=(),
                 max_order=4):
        self.independents = list(independents)
        self.dependents = []
        self.bases = {}
        for dep in dependents:
            if isinstance(dep, str):
                name, base = dep, tuple(self.independents)
            else:
                name, base = dep[0], tuple(dep[1])
            for b in base:
                if b not in self.independents:
                    raise UnknownVariable(f"base variable {b!r} of {name!r}")
            self.dependents.append(name)
            self.bases[name] = base
        self.parameters = list(parameters)
        self.max_order = max_order
        self._vars = {}
        names = (
            self.independents + self.dependents + self.parameters
            + [s.name if isinstance(s, SpecialSpec) else s[0] for s in specials]
        )
        if len(set(names)) != len(names):
            raise ValueError("duplicate declared names")
        for i, n in enumerate(self.independents):
            self._vars[n] = VariableId("independent", n, (0, i))
        for i, n in enumerate(self.parameters):
            self._vars[n] = VariableId("parameter", n, (1, i))
        self.specials = []
        for i, s in enumerate(specials):
            if not isinstance(s, SpecialSpec):
                s = SpecialSpec(*s)
            self.specials.append(s)
            self._vars[s.name] = VariableId("special", s.name, (2, i))
        self._jets = {}
        self._shifts = {}  # (jet, i) -> the jet D_i reaches, or None
        self._chains = None
        self._rules = None

    # -- variables ----------------------------------------------------
    def var(self, name):
        v = self._vars.get(name)
        if v is None:
            if name in self.bases:
                return self.jet(name, (0,) * len(self.independents))
            raise UnknownVariable(name)
        return v

    def jet(self, dep, mu):
        mu = tuple(mu)
        key = (dep, mu)
        v = self._jets.get(key)
        if v is not None:
            return v
        if dep not in self.bases:
            raise UnknownVariable(f"dependent {dep!r}")
        if len(mu) != len(self.independents):
            raise ValueError("multi-index length mismatch")
        order = sum(mu)
        if order > self.max_order:
            raise OrderOverflow(f"{dep} jet of order {order} > {self.max_order}")
        base = self.bases[dep]
        for x, e in zip(self.independents, mu):
            if e and x not in base:
                raise UnknownVariable(
                    f"{dep} does not depend on {x}; jet {mu} undefined"
                )
        k = self.dependents.index(dep)
        dirs = []
        for x, e in zip(self.independents, mu):
            dirs.extend([x] * e)
        name = dep if order == 0 else f"{dep}[{','.join(dirs)}]"
        v = VariableId("jet", name, (3, k, order, mu))
        self._jets[key] = v
        return v

    def jet_by_dirs(self, dep, dirs):
        mu = [0] * len(self.independents)
        for d in dirs:
            if d not in self.independents:
                raise UnknownVariable(f"direction {d!r}")
            mu[self.independents.index(d)] += 1
        return self.jet(dep, mu)

    def jet_info(self, v):
        """(dependent name, multi-index) of a jet VariableId."""
        if v.kind != "jet":
            raise ValueError(f"{v} is not a jet variable")
        return self.dependents[v.key[1]], v.key[3]

    def bump(self, dep, mu, i):
        """mu + 1_i, the multi-index D_i reaches from dependent ``dep``
        at mu; None when x_i is not in dep's bases."""
        if self.independents[i] not in self.bases[dep]:
            return None
        return mu[:i] + (mu[i] + 1,) + mu[i + 1:]

    def shift(self, w, i):
        """The jet D_i reaches from the jet w, u_{mu + 1_i} for w = u_mu;
        None when u does not depend on x_i.  A shift past max_order
        raises OrderOverflow on every call and is never kept."""
        key = (w, i)
        try:
            return self._shifts[key]
        except KeyError:
            pass
        dep, mu = self.jet_info(w)
        nu = self.bump(dep, mu, i)
        s = self._shifts[key] = None if nu is None else self.jet(dep, nu)
        return s

    def multi_indices(self, order, base):
        """All multi-indices of exact |mu| = order supported on base."""
        n = len(self.independents)
        allowed = [i for i, x in enumerate(self.independents) if x in base]
        out = []
        for combo in itertools.combinations_with_replacement(allowed, order):
            mu = [0] * n
            for i in combo:
                mu[i] += 1
            out.append(tuple(mu))
        return out

    def jets_up_to(self, q):
        """All jet VariableIds of order <= q, dependent by dependent."""
        out = []
        for dep in self.dependents:
            for o in range(q + 1):
                for mu in self.multi_indices(o, self.bases[dep]):
                    out.append(self.jet(dep, mu))
        return out

    def fiber_jet_count(self, q):
        return len(self.jets_up_to(q))

    # -- expressions --------------------------------------------------
    def expr(self, text, extra=None):
        """Parse an expression string against this context.

        ``extra`` maps names to RationalExpr definitions usable in the
        text."""

        def resolver(name, directions, pos):
            if directions is not None:
                return RationalExpr.var(self.jet_by_dirs(name, directions))
            if extra and name in extra:
                return extra[name]
            return RationalExpr.var(self.var(name))

        return parse_expression(text, resolver)

    # -- rewrite machinery for specials -------------------------------
    def _ensure_special_tables(self):
        if self._chains is not None:
            return
        chains = {}
        rules = []
        for s in self.specials:
            sv = self._vars[s.name]
            dv = self.expr(s.derivative)
            chains.setdefault(s.base, []).append((sv, dv))
            if s.rewrite:
                lhs, rhs = s.rewrite.split("->")
                pat_expr = self.expr(lhs.strip())
                if not pat_expr.is_polynomial() or len(pat_expr.num.terms) != 1:
                    raise ValueError("rewrite pattern must be a single monomial")
                (mono, coef), = pat_expr.num.terms.items()
                repl = self.expr(rhs.strip())
                if not repl.is_polynomial():
                    raise ValueError("rewrite replacement must be polynomial")
                scale = Fraction(1) / (coef / pat_expr.den.constant_value())
                rules.append(RewriteRule(mono, repl.num * (scale / repl.den.constant_value())))
        self._chains = chains
        self._rules = rules

    @property
    def rules(self):
        self._ensure_special_tables()
        return list(self._rules)

    def reduce(self, e):
        self._ensure_special_tables()
        return symcore.reduce_expr(e, self._rules)

    # -- calculus -----------------------------------------------------
    def total_derivative(self, e, i):
        """Formal derivative d_i, one derivation: x_i -> 1, each special
        on x_i -> its derivative, each jet w -> w + 1_i.  The direction
        i is an independent's name or index; UnknownVariable for any
        other."""
        if isinstance(i, str):
            xi = self._vars.get(i)
            if xi is None or xi.kind != "independent":
                raise UnknownVariable(f"direction {i!r}")
            i = xi.key[1]
        elif 0 <= i < len(self.independents):
            xi = self._vars[self.independents[i]]
        else:
            raise UnknownVariable(
                f"direction index {i} of {len(self.independents)}")
        self._ensure_special_tables()
        coeffs = [(xi, symcore.ONE), *self._chains.get(xi.name, ())]
        for w in e.variables():
            if w.kind == "jet":
                s = self.shift(w, i)
                if s is not None:  # else the section does not depend on x_i
                    coeffs.append((w, RationalExpr.var(s)))
        return symcore.derive(e, coeffs)


class VectorField:
    """Finite mapping coordinate VariableId -> RationalExpr."""

    __slots__ = ("components",)

    def __init__(self, components):
        self.components = {
            v: c for v, c in components.items() if not c.is_zero()
        }

    def component(self, v):
        return self.components.get(v, symcore.ZERO)

    def coordinates(self):
        return set(self.components)

    def apply(self, e):
        """Directional derivative of an expression (coordinate partials)."""
        return symcore.derive(e, self.components.items())

    def __add__(self, other):
        comp = dict(self.components)
        for v, c in other.components.items():
            comp[v] = comp.get(v, symcore.ZERO) + c
        return VectorField(comp)

    def scale(self, c):
        return VectorField({v: c * e for v, e in self.components.items()})

    def __neg__(self):
        return self.scale(RationalExpr.const(-1))

    def __sub__(self, other):
        return self + (-other)

    def is_zero(self):
        return not self.components

    def __repr__(self):
        if not self.components:
            return "0"
        return " + ".join(
            f"({c})@{v.name}" for v, c in sorted(self.components.items())
        )


def bracket(xi, eta):
    """Lie bracket [xi, eta] of vector fields on a coordinate chart."""
    comp = {}
    coords = xi.coordinates() | eta.coordinates()
    for v in coords:
        c = xi.apply(eta.component(v)) - eta.apply(xi.component(v))
        if not c.is_zero():
            comp[v] = c
    return VectorField(comp)


def prolong_field(ctx, theta, q):
    """Prolongation of an infinitesimal transformation to order q.

    ``theta`` may have components on the independents (xi^i) and on the
    order-0 jets (eta^k); components are functions of those order-0
    variables (plus parameters).  The lift uses the contact recursion

        eta^{k,mu+1_i} = d_i eta^{k,mu} - sum_j (d_i xi^j) y^k_{mu+1_j},

    which for a vertical field reduces to d_mu applied to eta^k.
    """
    if q > ctx.max_order:
        raise OrderOverflow(f"prolongation order {q} > max_order {ctx.max_order}")
    n = len(ctx.independents)
    xi = {}
    comp = {}
    for v, c in theta.components.items():
        if any(jet_order(w) > 0 for w in c.variables()):
            raise ValueError("prolong_field needs order-0 component data")
        if v.kind == "independent":
            xi[ctx.independents.index(v.name)] = c
            comp[v] = c
        elif v.kind == "jet" and jet_order(v) == 0:
            comp[v] = c
        else:
            raise ValueError(f"cannot prolong component on {v.name}")
    dxi = {
        (i, j): ctx.total_derivative(xi[j], i) for j in xi for i in range(n)
    }
    for dep in ctx.dependents:
        zero_mu = (0,) * n
        eta = {zero_mu: comp.get(ctx.jet(dep, zero_mu), symcore.ZERO)}
        for order in range(q):
            for mu in ctx.multi_indices(order, ctx.bases[dep]):
                for i in range(n):
                    nu = ctx.bump(dep, mu, i)
                    if nu is None or nu in eta:
                        continue
                    val = ctx.total_derivative(eta[mu], i)
                    for j in xi:
                        nj = ctx.bump(dep, mu, j)
                        if nj is not None:
                            val = val - dxi[(i, j)] * RationalExpr.var(
                                ctx.jet(dep, nj)
                            )
                    eta[nu] = val
        for mu, val in eta.items():
            if not val.is_zero():
                comp[ctx.jet(dep, mu)] = val
    return VectorField(comp)


class JetSection:
    """Values f^k_mu, complete for |mu| <= order, as expressions in the
    independents (and possibly jets of auxiliary symbols)."""

    def __init__(self, ctx, order, values):
        self.ctx = ctx
        self.order = order
        self.values = values  # (dep name, mu) -> RationalExpr

    def value(self, dep, mu):
        return self.values[(dep, tuple(mu))]


def holonomic_section(ctx, components, order):
    """j_order of an explicit map: all jets by repeated differentiation
    of each component, in the order ``components`` lists them."""
    values = {}
    for dep in components:
        values[(dep, (0,) * len(ctx.independents))] = components[dep]
        for o in range(order):
            for mu in ctx.multi_indices(o, ctx.bases[dep]):
                cur = values[(dep, mu)]
                for i in range(len(ctx.independents)):
                    nu = ctx.bump(dep, mu, i)
                    if nu is not None and (dep, nu) not in values:
                        values[(dep, nu)] = ctx.total_derivative(cur, i)
    return JetSection(ctx, order, values)


def spencer(ctx, f):
    """Spencer operator: components (k, mu with |mu| <= order-1, i) ->
    d_i f^k_mu - f^k_{mu+1_i}; all zero exactly on holonomic sections."""
    out = {}
    for (dep, mu), val in f.values.items():
        if sum(mu) >= f.order:
            continue
        for i, x in enumerate(ctx.independents):
            nu = ctx.bump(dep, mu, i)
            if nu is not None:
                out[(dep, mu, x)] = (ctx.total_derivative(val, i)
                                     - f.value(dep, nu))
    return out


class DiffForm:
    """Exterior form over an explicit ordered coordinate list.

    ``terms`` maps strictly increasing index tuples (positions into the
    coordinate list) to RationalExpr coefficients; the empty tuple keys a
    grade-0 form.
    """

    __slots__ = ("ctx", "coords", "grade", "terms")

    def __init__(self, ctx, coords, grade, terms):
        self.ctx = ctx
        self.coords = tuple(coords)
        self.grade = grade
        self.terms = {}
        for idx, c in terms.items():
            if len(idx) != grade or list(idx) != sorted(set(idx)):
                raise ValueError(f"bad index tuple {idx} for grade {grade}")
            if not c.is_zero():
                self.terms[tuple(idx)] = c

    @staticmethod
    def function(ctx, coords, e):
        return DiffForm(ctx, coords, 0, {(): e})

    @staticmethod
    def d_coord(ctx, coords, name):
        coords = tuple(coords)
        pos = [c.name if hasattr(c, "name") else c for c in coords].index(name)
        return DiffForm(ctx, coords, 1, {(pos,): symcore.ONE})

    def is_zero(self):
        return not self.terms

    def __add__(self, other):
        if self.coords != other.coords or self.grade != other.grade:
            raise ValueError("form mismatch")
        t = dict(self.terms)
        for idx, c in other.terms.items():
            t[idx] = t.get(idx, symcore.ZERO) + c
        return DiffForm(self.ctx, self.coords, self.grade, t)

    def __neg__(self):
        return DiffForm(
            self.ctx, self.coords, self.grade,
            {i: -c for i, c in self.terms.items()},
        )

    def __sub__(self, other):
        return self + (-other)

    def scale(self, e):
        return DiffForm(
            self.ctx, self.coords, self.grade,
            {i: e * c for i, c in self.terms.items()},
        )

    def coefficient(self, idx):
        return self.terms.get(tuple(idx), symcore.ZERO)

    def __repr__(self):
        if not self.terms:
            return "0"
        names = [c.name if hasattr(c, "name") else c for c in self.coords]
        bits = []
        for idx in sorted(self.terms):
            basis = "^".join(f"d{names[i]}" for i in idx) or "1"
            bits.append(f"({self.terms[idx]}) {basis}")
        return " + ".join(bits)


def _merge_sign(a, b):
    """Merge two strictly increasing tuples; return (merged, sign) or
    (None, 0) when they overlap."""
    out = list(a)
    sign = 1
    for x in b:
        if x in out:
            return None, 0
        pos = len(out)
        while pos > 0 and out[pos - 1] > x:
            pos -= 1
        sign *= (-1) ** (len(out) - pos)
        out.insert(pos, x)
    return tuple(out), sign


def wedge(phi, psi):
    if phi.coords != psi.coords:
        raise ValueError("form mismatch")
    g = phi.grade + psi.grade
    if g > len(phi.coords):
        return DiffForm(phi.ctx, phi.coords, g, {})
    terms = {}
    for ia, ca in phi.terms.items():
        for ib, cb in psi.terms.items():
            idx, sign = _merge_sign(ia, ib)
            if idx is None:
                continue
            add = ca * cb * sign
            terms[idx] = terms.get(idx, symcore.ZERO) + add
    return DiffForm(phi.ctx, phi.coords, g, terms)


def _coord_derivative(ctx, e, coord):
    if coord.kind == "independent":
        return ctx.total_derivative(e, coord.name)
    return symcore.coordinate_partial(e, coord)


def exterior_derivative(phi):
    ctx = phi.ctx
    terms = {}
    for idx, c in phi.terms.items():
        for pos, coord in enumerate(phi.coords):
            dc = _coord_derivative(ctx, c, coord)
            if dc.is_zero():
                continue
            merged, sign = _merge_sign((pos,), idx)
            if merged is None:
                continue
            terms[merged] = terms.get(merged, symcore.ZERO) + dc * sign
    return DiffForm(ctx, phi.coords, phi.grade + 1, terms)
