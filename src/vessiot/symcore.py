"""Exact scalar and expression arithmetic.

Sparse multivariate polynomials over Q, canonical rational functions,
substitution, differentiation and rewrite-relation reduction.
Everything is immutable and every RationalExpr is kept in a unique
normal form, so structural equality is algebraic equality.

Sums are normalized once where a common denominator is known.
``over_one_denominator`` is the one rule that puts values over a common
denominator without a gcd; ``derive``, linalg's row clearing and
invariants' Q-linear solve use it.  The derivation kernel ``derive``
applies D = sum c_v d/dv to n/d by forming B*D n and B*D d as plain
polynomials in one sweep over each one's terms (B the c_v's common
denominator), one Henrici quotient rule and one division by B;
coordinate partials, the chain rule for specials, total derivatives and
vector fields go through it.
``linearize`` forms the row of one expression n/d that a symbol or a
witness Jacobian needs, with no gcd: one sweep over num's and one over
den's terms (``poly_partials``) gives every n_v and d_v, and the entry
n_v*d - n*d_v (n_v when d carries none of the variables) is the partial
times d^2 (or d), so the row has the rank of the partials.  derive's
``_sweep`` walks the terms the same way but multiplies each partial's
term by its a_v in place: summing ``poly_partials``' results times the
a_v instead cost about 3 % of the ``prolong`` benchmark's pass time
(Python 3.11, two shared CPUs).
``substitute`` sums a polynomial's terms over the product of its
bindings' denominators, each to the polynomial's degree in the bound
variable, and normalizes the sum once.  ``sum_of_products`` groups
terms by the multiset of their factors' denominators, forms each
multiset's product once and merges multisets whose products are equal;
it sums each group's numerators with no gcd and cancels the sum against
the group's factor denominators one at a time, so no gcd is taken
against their expanded product.

``poly_cofactors`` returns a gcd with both cofactors, and ``poly_gcd``
is its first part.  It takes out the monomial content and tries the
degree-gated trial divisions; then an operand of degree 1 in some
variable splits into the gcd of its two coefficients and an irreducible
cofactor, and only a pair with no such operand runs a subresultant
remainder sequence.  Each branch builds the cofactors from quotients it
already holds, so only the subresultant branch divides by the gcd; the
constructor, the field operators and ``derive`` cancel through the
cofactors.

A coefficient is stored as an int when it is integral and as a Fraction
otherwise (_coef), and the normal form's coefficients are all ints.
Fractions appear only at the edges: in polynomials built from
fractional input or holding an inexact quotient (arithmetic on them may
leave an integral Fraction until the normal form turns it into an int),
and in what constant_value returns.  Two coefficients are divided only
through _qdiv, since int / int would give a float.  Equality, hashing
and printing agree between the two types (3 == Fraction(3), with equal
hashes and strings).

A monomial is a tuple of (VariableId, exponent) pairs.  Every monomial
kernel (mono_mul, mono_div, mono_gcd, mono_key and the variable lookups
of degree_in, poly_partials and _as_univariate) assumes canonical
monomials: pairs sorted by the variables' _sk, one pair per variable,
exponents positive.  VariableIds are interned, one object per
declaration, so the kernels test "same variable" with ``is`` and compare
_sk only to order two variables, and a monomial's hash and equality
(dict keys, set members) run in C with no Python frame per variable.
A variable's _sk is an int rank in the variable order, the order of
(key, name): a new variable takes the midpoint of its neighbours'
ranks, and when they leave no room every variable is ranked afresh,
evenly spaced and in place.  Ranks stay below 2**30, so comparing two
is comparing one-digit ints.  A rank thus changes only when a variable
is created, and rank order never changes: every stored monomial stays
canonical, printing does not move, and an unpickled variable goes back
through the constructor and takes a rank in the loading interpreter.
Nothing may keep a rank or a mono_key across a call that can create a
variable; poly_divexact's keys, __repr__'s sort, invariants'
_q_linear_solve sort and RewriteRule.__init__ create none.
RationalExpr.var returns one expression per variable in the same way.
The iteration order of a set of variables follows memory addresses, so
nothing whose result is printed may depend on it.
"""
from __future__ import annotations

import math
from bisect import bisect_right
from fractions import Fraction
from numbers import Rational

from .errors import (
    CyclicBinding,
    DenominatorVanishes,
    DivisionByZero,
    InexactSubresultant,
    UnboundVariable,
)

class VariableId:
    """A declared coordinate, interned: ``VariableId(kind, name, key)``
    returns the one object for that triple, so equality is identity and
    the hash is ``object``'s, both without a Python-level frame.  The
    objects are immutable, and pickling, ``copy`` and ``deepcopy`` go
    back through the constructor and give the same object.

    ``key`` is a context-global sort key: kind rank first, then the
    declaration index (independents, parameters, specials) or
    (dependent index, |mu|, mu) for jets.  The variable order is that of
    ``(key, name)``; ``_sk`` is the variable's int rank in it (see
    _place).
    """

    __slots__ = ("kind", "name", "key", "_sk")

    def __new__(cls, kind, name, key):
        v = _VARIABLES.get((kind, name, key))
        if v is None:
            v = _VARIABLES[kind, name, key] = object.__new__(cls)
            object.__setattr__(v, "kind", kind)
            object.__setattr__(v, "name", name)
            object.__setattr__(v, "key", key)
            _place(v)
        return v

    def __setattr__(self, attr, value):
        raise AttributeError(f"VariableId is immutable: cannot set {attr}")

    def __delattr__(self, attr):
        raise AttributeError(f"VariableId is immutable: cannot delete {attr}")

    def __reduce__(self):
        return VariableId, (self.kind, self.name, self.key)

    def __lt__(self, other):
        return self._sk < other._sk

    def __repr__(self):
        return self.name


# (kind, name, key) -> its one VariableId
_VARIABLES = {}
# VariableId -> its one RationalExpr (RationalExpr.var)
_VAR_EXPRS = {}
# every variable in the variable order, and its key at one index
_ORDER = []
_ORDER_KEYS = []
# ranks stay below 2**30, so each is an int of one CPython digit, whose
# comparisons the interpreter specializes
_RANK_LIMIT = 1 << 30


def _place(v):
    """Insert the new variable v into the variable order and give it a
    rank strictly between its neighbours' ranks, their midpoint; when
    they leave no room, every variable is ranked afresh, evenly spaced in
    [0, _RANK_LIMIT) in the order, which stays as it was.  So a rank
    changes only when a variable is created, and rank order is always
    (key, name) order."""
    # bisecting the keys alone, and then the names of the few variables
    # of an equal key, compares one tuple level less than (key, name)
    key = v.key
    i = bisect_right(_ORDER_KEYS, key)
    while i and _ORDER_KEYS[i - 1] == key and _ORDER[i - 1].name > v.name:
        i -= 1
    _ORDER_KEYS.insert(i, key)
    _ORDER.insert(i, v)
    lo = _ORDER[i - 1]._sk if i else -1
    hi = _ORDER[i + 1]._sk if i + 1 < len(_ORDER) else _RANK_LIMIT
    if hi - lo > 1:
        object.__setattr__(v, "_sk", (lo + hi) // 2)
        return
    step = max(1, _RANK_LIMIT // (len(_ORDER) + 1))
    for r, w in enumerate(_ORDER, 1):
        object.__setattr__(w, "_sk", r * step)


# The unit monomial.
UNIT = ()


def mono_make(pairs):
    """The monomial of (variable, exponent) pairs with distinct
    variables; zero exponents are dropped."""
    items = [(v, e) for v, e in pairs if e]
    items.sort(key=lambda p: p[0]._sk)
    return tuple(items)


def mono_mul(a, b):
    if not a:
        return b
    if not b:
        return a
    out = []
    i = j = 0
    na, nb = len(a), len(b)
    while i < na and j < nb:
        va, ea = a[i]
        vb, eb = b[j]
        if va is vb:
            out.append((va, ea + eb))
            i += 1
            j += 1
        elif va._sk < vb._sk:
            out.append(a[i])
            i += 1
        else:
            out.append(b[j])
            j += 1
    return (*out, *a[i:], *b[j:])


def mono_div(a, b):
    """a / b, or None when b does not divide a."""
    out = []
    i, na = 0, len(a)
    for vb, eb in b:
        kb = vb._sk
        while i < na and a[i][0]._sk < kb:
            out.append(a[i])
            i += 1
        if i == na:
            return None
        va, ea = a[i]
        if va is not vb or ea < eb:
            return None
        if ea > eb:
            out.append((va, ea - eb))
        i += 1
    return (*out, *a[i:])


def mono_gcd(a, b):
    out = []
    i = j = 0
    na, nb = len(a), len(b)
    while i < na and j < nb:
        va, ea = a[i]
        vb, eb = b[j]
        if va is vb:
            out.append((va, min(ea, eb)))
            i += 1
            j += 1
        elif va._sk < vb._sk:
            i += 1
        else:
            j += 1
    return tuple(out)


def mono_key(m):
    """Sort key of the graded reverse-lexicographic order: degree first;
    on ties the first variable, ascending in the global order, at which
    the exponents differ decides, the larger exponent ranking lower.
    (Of two canonical monomials of one degree neither is a prefix of the
    other, so the tuple comparison never falls back on length.)"""
    d = 0
    k = []
    for v, e in m:
        d += e
        k.append((v._sk, -e))
    return d, tuple(k)


def _index(m, v):
    """Position of the variable v in monomial m, or -1."""
    for i, (w, _) in enumerate(m):
        if w is v:
            return i
    return -1


def _coef(c):
    """c as a stored coefficient: an int when integral, else a Fraction.
    A float is refused: it would make every later zero test inexact."""
    if type(c) is int:
        return c
    if not isinstance(c, Rational):
        raise TypeError(f"coefficient {c!r} is not a rational number")
    c = Fraction(c)
    return c.numerator if c.denominator == 1 else c


def _qdiv(a, b):
    """a / b for coefficients: exact floor division when b divides a,
    otherwise a Fraction; never a float."""
    if type(a) is int and type(b) is int:
        q, r = divmod(a, b)
        if not r:
            return q
    return _coef(Fraction(a) / b)


class Polynomial:
    """Sparse multivariate polynomial with rational coefficients, each an
    int when integral and a Fraction otherwise (see _coef and _qdiv)."""

    __slots__ = ("terms",)

    def __init__(self, terms=None):
        t = {}
        if terms:
            for m, c in (terms.items() if isinstance(terms, dict) else terms):
                if c:
                    c0 = t.get(m)
                    c = _coef(c if c0 is None else c0 + c)
                    if c:
                        t[m] = c
                    else:
                        del t[m]
        self.terms = t

    # -- constructors -------------------------------------------------
    @staticmethod
    def const(c):
        c = _coef(c)
        return _poly({UNIT: c} if c else {})

    @staticmethod
    def var(v, e=1):
        if e < 0:
            raise ValueError("negative exponent on a variable")
        return Polynomial({((v, e),): 1}) if e else Polynomial.const(1)

    # -- predicates ---------------------------------------------------
    def is_zero(self):
        return not self.terms

    def is_constant(self):
        return not self.terms or (len(self.terms) == 1 and UNIT in self.terms)

    def constant_value(self):
        return Fraction(self.terms.get(UNIT, 0))

    def variables(self):
        out = set()
        for m in self.terms:
            for v, _ in m:
                out.add(v)
        return out

    def degree_in(self, v):
        d = 0
        for m in self.terms:
            for w, e in m:
                if w is v:
                    if e > d:
                        d = e
                    break
        return d

    def leading_monomial(self):
        if len(self.terms) == 1:
            return next(iter(self.terms))
        return max(self.terms, key=mono_key)

    def leading_coefficient(self):
        return self.terms[self.leading_monomial()]

    # -- ring operations ----------------------------------------------
    # the operators test the operand's own class first: Fraction's
    # metaclass is ABCMeta, whose isinstance runs a Python-level frame
    def __add__(self, other):
        if type(other) is not Polynomial and isinstance(other, (int, Fraction)):
            other = Polynomial.const(other)
        t = dict(self.terms)
        for m, c in other.terms.items():
            s = t.get(m, 0) + c
            if s:
                t[m] = s
            else:
                t.pop(m, None)
        return _poly(t)

    def __neg__(self):
        return _poly({m: -c for m, c in self.terms.items()})

    def __sub__(self, other):
        if type(other) is not Polynomial and isinstance(other, (int, Fraction)):
            other = Polynomial.const(other)
        return self + (-other)

    def __mul__(self, other):
        # a constant operand, an int, a Fraction or a constant Polynomial,
        # only scales the other operand's coefficients
        if type(other) is not Polynomial and isinstance(other, (int, Fraction)):
            k, p = _coef(other), self
        else:
            a, b = self.terms, other.terms
            if len(a) > len(b):
                a, b = b, a
            if len(a) != 1 or UNIT not in a:
                t = {}
                _add_product(t, a, b)
                return _poly(t)
            k, p = a[UNIT], (self if b is self.terms else other)
        if not k:
            return Polynomial()
        if k == 1:
            return p
        return _poly({m: c * k for m, c in p.terms.items()})

    __rmul__ = __mul__

    def __pow__(self, n):
        if n < 0:
            raise ValueError("negative power on Polynomial")
        out = Polynomial.const(1)
        base = self
        while n:
            if n & 1:
                out = out * base
            base = base * base if n > 1 else base
            n >>= 1
        return out

    def __eq__(self, other):
        if type(other) is not Polynomial:
            if isinstance(other, (int, Fraction)):
                other = Polynomial.const(other)
            elif not isinstance(other, Polynomial):
                return False
        return self.terms == other.terms

    def __hash__(self):
        return hash(frozenset(self.terms.items()))

    def eval(self, point):
        total = Fraction(0)
        for m, c in self.terms.items():
            val = c
            for v, e in m:
                val *= Fraction(point[v]) ** e
            total += val
        return total

    # -- display ------------------------------------------------------
    def __repr__(self):
        if not self.terms:
            return "0"
        parts = []
        for m in sorted(self.terms, key=mono_key, reverse=True):
            c = self.terms[m]
            body = "*".join(
                v.name if e == 1 else f"{v.name}^{e}" for v, e in m
            )
            if not body:
                parts.append(str(c))
            elif c == 1:
                parts.append(body)
            elif c == -1:
                parts.append("-" + body)
            else:
                parts.append(f"{c}*{body}")
        s = " + ".join(parts)
        return s.replace("+ -", "- ")


def _poly(t):
    """The Polynomial whose term dict is t (no zero coefficients), as it is."""
    p = Polynomial.__new__(Polynomial)
    p.terms = t
    return p


def _add_product(t, a, b):
    """Add the product of the term dicts a and b into the term dict t."""
    for ma, ca in a.items():
        for mb, cb in b.items():
            m = mono_mul(ma, mb)
            s = t.get(m, 0) + ca * cb
            if s:
                t[m] = s
            else:
                t.pop(m, None)


def _joint_primitive(num, den):
    """Scale num and den by one rational so that their coefficients are
    ints with no common factor across both, and den's leading
    coefficient is positive (den nonzero)."""
    coeffs = [*num.terms.values(), *den.terms.values()]
    integral, lcm = True, 1
    try:
        g = math.gcd(*coeffs)
    except TypeError:
        # a Fraction coefficient, which math.gcd refuses
        integral = False
        lcm = math.lcm(*(c.denominator for c in coeffs))
        g = math.gcd(*(c.numerator * (lcm // c.denominator) for c in coeffs))
    if den.leading_coefficient() < 0:
        g = -g
    if integral and g == 1:
        return num, den

    def scaled(p):
        return _poly({
            m: c.numerator * (lcm // c.denominator) // g
            for m, c in p.terms.items()
        })

    return scaled(num), scaled(den)


def poly_divexact(a, b):
    """Exact division a / b, or None when b does not divide a."""
    if b.is_zero():
        raise DivisionByZero("polynomial division by zero")
    if a.is_zero():
        return Polynomial()
    if b.is_constant():
        cb = b.terms[UNIT]
        return _poly({m: _qdiv(c, cb) for m, c in a.terms.items()})
    # long division on one remainder dict: each step takes the leading
    # term off and subtracts coef * q * (b - lt(b)) in place; the sort
    # keys of the remainder's monomials are kept for the whole call
    lb = b.leading_monomial()
    cb = b.terms[lb]
    tail = [(m, c) for m, c in b.terms.items() if m != lb]
    rem = dict(a.terms)
    keys = {m: mono_key(m) for m in rem}
    out = {}
    while rem:
        la = max(rem, key=keys.__getitem__)
        q = mono_div(la, lb)
        if q is None:
            return None
        coef = _qdiv(rem.pop(la), cb)
        out[q] = coef
        for m, c in tail:
            t = mono_mul(q, m)
            r = rem.get(t, 0) - coef * c
            if r:
                rem[t] = r
                if t not in keys:
                    keys[t] = mono_key(t)
            else:
                del rem[t]
    return _poly(out)


def _cancel(p, g):
    """p / g for a gcd g known to divide p."""
    if len(g.terms) == 1 and g.terms.get(UNIT) == 1:
        return p
    return poly_divexact(p, g)


def _mono_quotient(p, m):
    """p divided by a monomial that divides each of its terms."""
    if not m:
        return p
    return _poly({mono_div(t, m): c for t, c in p.terms.items()})


def _mono_content(p):
    it = iter(p.terms)
    g = next(it)
    for m in it:
        if not g:
            break
        g = mono_gcd(g, m)
    return g


def _as_univariate(p, v):
    """View p as a univariate polynomial in v: dict degree -> Polynomial."""
    out = {}
    for m, c in p.terms.items():
        i = _index(m, v)
        if i < 0:
            e, rest = 0, m
        else:
            e, rest = m[i][1], m[:i] + m[i + 1:]
        out.setdefault(e, {})[rest] = c
    for e, t in out.items():
        out[e] = _poly(t)
    return out


def _poly_content_in(p, v):
    """gcd of the coefficients of p seen as univariate in v, folded
    smallest first, so that a constant coefficient ends the fold at once."""
    coeffs = sorted(_as_univariate(p, v).values(), key=lambda c: len(c.terms))
    g = coeffs[0]
    for c in coeffs[1:]:
        g = poly_gcd(g, c)
        if g.is_constant():
            break
    return g


def _primitive_in(p, v):
    cont = _poly_content_in(p, v)
    return cont, _cancel(p, cont)


def _degrees(p):
    """Each variable of p mapped to p's degree in it."""
    d = {}
    for m in p.terms:
        for v, e in m:
            if e > d.get(v, 0):
                d[v] = e
    return d


def _may_divide(db, da):
    """Whether no variable has a higher degree in b than in a (db, da
    their _degrees), a necessary condition for b | a."""
    return all(e <= da.get(v, 0) for v, e in db.items())


def _pseudo_rem(a, b, v):
    """Canonical pseudo-remainder prem(a, b) in v: the remainder of
    lc(b)^(deg a - deg b + 1) * a under division by b."""
    da, db = a.degree_in(v), b.degree_in(v)
    ub = _as_univariate(b, v)
    lcb = ub[db]
    rem = a
    steps = 0
    while not rem.is_zero():
        dr = rem.degree_in(v)
        if dr < db:
            break
        ur = _as_univariate(rem, v)
        lcr = ur[dr]
        shift = Polynomial.var(v, dr - db) if dr > db else Polynomial.const(1)
        rem = rem * lcb - b * lcr * shift
        steps += 1
    for _ in range(da - db + 1 - steps):
        rem = rem * lcb
    return rem


def _norm_primitive(p):
    """Integer-primitive form with positive leading coefficient."""
    if p.is_zero():
        return p
    return _joint_primitive(Polynomial(), p)[1]


def _ratio(p, q):
    """The constant p / q, for p a nonzero constant multiple of q."""
    m = next(iter(q.terms))
    return _qdiv(p.terms[m], q.terms[m])


def _mono_times(p, m):
    """p times the monomial m."""
    if not m:
        return p
    return _poly({mono_mul(t, m): c for t, c in p.terms.items()})


def _lift(mg, ma, mb, f, fa, fb):
    """(g, a/g, b/g) for g = gcd(a, b) in its normal form, where a = ma*A
    and b = mb*B with ma and mb their monomial contents, mg = gcd(ma, mb),
    and f is a gcd of A and B up to a constant with A = f*fa and
    B = f*fb.  g is mg*f made integer-primitive, so mg*f = k*g for a
    constant k, and a/g = k * (ma/mg) * fa."""
    p = _mono_times(f, mg)
    g = _norm_primitive(p)
    k = _ratio(p, g)
    return (g, _mono_times(fa, mono_div(ma, mg)) * k,
            _mono_times(fb, mono_div(mb, mg)) * k)


def _mono_cofactors(a, b, m):
    """(m, a/m, b/m) for a monomial m that divides every term of a and b:
    the gcd when the rest of a and b is coprime."""
    return Polynomial({m: 1}), _mono_quotient(a, m), _mono_quotient(b, m)


def poly_gcd(a, b):
    """gcd of two polynomials, integer-primitive with positive leading
    coefficient (1 for coprime inputs); see poly_cofactors."""
    return poly_cofactors(a, b)[0]


def poly_cofactors(a, b):
    """(g, a/g, b/g) for the gcd g of a and b, integer-primitive with
    positive leading coefficient (1 for coprime inputs).  For a = b = 0
    all three are 0.

    Each branch keeps the quotients it finds on the way, so the
    cofactors cost no division except after a subresultant sequence.
    Once the monomial contents are removed, operands that share no
    variable have only the monomial part in common: a gcd divides both,
    so it carries only variables that both carry.  After that test and
    the trial divisions (a quotient q = a/b gives a/g and b/g as
    constants times q and 1), an operand p of degree 1 in some variable
    (the operand with fewer terms first, w the lowest such variable in
    the variable order) is split:
    p = u1*w + u0 with both parts nonzero and (c, u1/c, u0/c) the
    cofactors of u1 and u0, so that x = p/c = (u1/c)*w + u0/c needs no
    division.  x has degree 1 in w and is primitive in w, so it is
    irreducible (Gauss's lemma: a factor free of w would divide both its
    coefficients); c is free of w, so x does not divide c and the two
    are coprime.  For the other operand q:

    - if x | q, say q = x*r, then gcd(p, q) = gcd(x*c, x*r) = x * h with
      (h, r/h, c/h) the cofactors of r and c, so p/g = c/h and
      q/g = r/h; as x and c are coprime, h = gcd(q, c) as well;
    - otherwise the irreducible x is coprime to q, so gcd(p, q) = h with
      (h, q/h, c/h) the cofactors of q and c, and p/g = (c/h) * x.

    (_lift then puts back the monomial content and the constant factor
    that makes g integer-primitive.)  When c is constant, p itself is
    irreducible and the trial divisions (or their gate) have shown that
    it does not divide q, so only the monomial part remains.  A pair
    with no such operand takes its contents in the largest common
    variable v, runs a subresultant remainder sequence and divides the
    operands by the gcd it finds.

    The recursion terminates: each recursive call replaces an operand
    by polynomials free of w (u1 and u0, or c in place of p) or of v
    (the contents and their coefficients).  So each call either has
    fewer variables between its two operands or, for (q, c) and (r, c),
    no new variable and a lower sum of total degrees, since c is a
    proper factor of p and r one of q.
    """
    if a.is_zero():
        if b.is_zero():
            return a, a, a
        g = _norm_primitive(b)
        return g, a, Polynomial.const(_ratio(b, g))
    if b.is_zero():
        g = _norm_primitive(a)
        return g, Polynomial.const(_ratio(a, g)), b
    if a.is_constant() or b.is_constant():
        return Polynomial.const(1), a, b
    ma, mb = _mono_content(a), _mono_content(b)
    mg = mono_gcd(ma, mb)
    pa, pb = _mono_quotient(a, ma), _mono_quotient(b, mb)
    if pa.is_constant() or pb.is_constant():
        return _mono_cofactors(a, b, mg)
    da, db = _degrees(pa), _degrees(pb)
    common = da.keys() & db.keys()
    if not common:
        return _mono_cofactors(a, b, mg)
    # cheap trial divisions first, each only where the degrees allow it
    if _may_divide(db, da):
        q = poly_divexact(pa, pb)
        if q is not None:
            return _lift(mg, ma, mb, pb, q, Polynomial.const(1))
    if _may_divide(da, db):
        q = poly_divexact(pb, pa)
        if q is not None:
            return _lift(mg, ma, mb, pa, Polynomial.const(1), q)
    # an operand linear in some w splits as c * x with x irreducible
    for p, dp, q, dq in sorted(((pa, da, pb, db), (pb, db, pa, da)),
                               key=lambda t: len(t[0].terms)):
        w = min((v for v, e in dp.items() if e == 1), default=None)
        if w is None:
            continue
        u = _as_univariate(p, w)
        c, u1, u0 = poly_cofactors(u[1], u[0])
        if c.is_constant():
            # p itself is irreducible, and it does not divide q
            return _mono_cofactors(a, b, mg)
        x = _mono_times(u1, ((w, 1),)) + u0
        r = poly_divexact(q, x) if _may_divide(_degrees(x), dq) else None
        if r is not None:
            h, fq, fp = poly_cofactors(r, c)
            f = h * x
        else:
            h, fq, fp = poly_cofactors(q, c)
            if h.is_constant():
                return _mono_cofactors(a, b, mg)
            f, fp = h, fp * x
        if p is pa:
            return _lift(mg, ma, mb, f, fp, fq)
        return _lift(mg, ma, mb, f, fq, fp)
    v = max(common)
    ca, ra = _primitive_in(pa, v)
    cb, rb = _primitive_in(pb, v)
    cg = poly_gcd(ca, cb)
    if ra.degree_in(v) < rb.degree_in(v):
        ra, rb = rb, ra
    # subresultant polynomial remainder sequence: exact divisions by
    # g*h^delta keep the coefficient growth polynomial, so the content
    # extraction only happens once at the end
    gc = Polynomial.const(1)
    h = Polynomial.const(1)
    while True:
        delta = ra.degree_in(v) - rb.degree_in(v)
        r = _pseudo_rem(ra, rb, v)
        if r.is_zero():
            g = rb
            break
        if r.degree_in(v) == 0:
            g = Polynomial.const(1)
            break
        q = _subresultant_div(r, gc * h ** delta, "remainder")
        ra, rb = rb, q
        gc = _as_univariate(ra, v)[ra.degree_in(v)]
        if delta == 1:
            h = gc
        elif delta > 1:
            h = _subresultant_div(gc ** delta, h ** (delta - 1), "h")
    if not g.is_constant():
        _, g = _primitive_in(g, v)
    f = cg * g
    return _lift(mg, ma, mb, f, _cancel(pa, f), _cancel(pb, f))


def _subresultant_div(a, b, what):
    """a / b for a division the subresultant theorem makes exact (the
    remainder by g*h^delta, or the next h = g^delta / h^(delta-1))."""
    q = poly_divexact(a, b)
    if q is None:
        raise InexactSubresultant(
            f"subresultant {what} division left a remainder"
        )
    return q


class RationalExpr:
    """Canonical ratio of two polynomials.

    Normal form: gcd(num, den) = 1, all coefficients ints (never
    Fractions) with no common integer factor across num and den jointly,
    and den's leading coefficient positive.

    The constructor is the full-gcd path: it cancels gcd(num, den) from
    any pair.  The field operators instead cancel by Henrici's scheme
    (Henrici, JACM 1956; Knuth, TAOCP Vol. 2, 4.5.1): their operands are
    already coprime, so gcds of the smaller crosswise factors leave a
    coprime result that needs only the joint integer normalization.
    Every gcd is taken with its cofactors (poly_cofactors), and the
    cofactors are the cancelled parts, so no operator divides by a gcd
    it has just found.
    """

    __slots__ = ("num", "den")

    def __init__(self, num, den=None, _normalized=False):
        if type(num) is not Polynomial and isinstance(num, (int, Fraction)):
            num = Polynomial.const(num)
        if den is None:
            den = Polynomial.const(1)
        elif type(den) is not Polynomial and isinstance(den, (int, Fraction)):
            den = Polynomial.const(den)
        if _normalized:
            self.num = num
            self.den = den
            return
        if den.is_zero():
            raise DivisionByZero("zero denominator")
        if num.is_zero():
            self.num = Polynomial()
            self.den = Polynomial.const(1)
            return
        _, num, den = poly_cofactors(num, den)
        self.num, self.den = _joint_primitive(num, den)

    @staticmethod
    def _coprime(num, den):
        """The normal form of num/den for coprime nonzero num and den."""
        return RationalExpr(*_joint_primitive(num, den), _normalized=True)

    @staticmethod
    def _product(a, b, c, d):
        """(a/b) * (c/d) for coprime pairs (a, b) and (c, d)."""
        if a.is_zero() or c.is_zero():
            return ZERO
        _, a1, d1 = poly_cofactors(a, d)
        _, c2, b2 = poly_cofactors(c, b)
        return RationalExpr._coprime(a1 * c2, b2 * d1)

    # -- helpers ------------------------------------------------------
    @staticmethod
    def const(c):
        return RationalExpr(Polynomial.const(c))

    @staticmethod
    def var(v):
        """The one expression of the variable v: built on the first call
        and returned as it is on every later one (expressions are
        immutable, and VariableIds interned)."""
        e = _VAR_EXPRS.get(v)
        if e is None:
            e = _VAR_EXPRS[v] = RationalExpr(Polynomial.var(v),
                                             _normalized=True)
        return e

    @staticmethod
    def _coerce(x):
        if isinstance(x, RationalExpr):
            return x
        if isinstance(x, Polynomial):
            return RationalExpr(x)
        if isinstance(x, (int, Fraction)):
            return RationalExpr.const(x)
        return NotImplemented

    def is_zero(self):
        return self.num.is_zero()

    def __bool__(self):
        return not self.num.is_zero()

    def is_constant(self):
        return self.num.is_constant() and self.den.is_constant()

    def constant_value(self):
        if not self.is_constant():
            raise ValueError("not a constant")
        return Fraction(self.num.terms.get(UNIT, 0), self.den.terms[UNIT])

    def is_polynomial(self):
        return self.den.is_constant()

    def variables(self):
        return self.num.variables() | self.den.variables()

    # -- field operations ---------------------------------------------
    def __add__(self, other):
        other = RationalExpr._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        a, b, c, d = self.num, self.den, other.num, other.den
        if a.is_zero():
            return other
        if c.is_zero():
            return self
        if b == d:
            t = a + c
            if t.is_zero():
                return ZERO
            _, th, bh = poly_cofactors(t, b)
            return RationalExpr._coprime(th, bh)
        # a/b + c/d = t / (b/g * d/g * g) with g = gcd(b, d); t is coprime
        # to b/g and to d/g, so only h = gcd(t, g) can cancel, and the
        # denominator is b/g * d/g * g/h
        g, bg, dg = poly_cofactors(b, d)
        t = a * dg + c * bg
        if t.is_zero():
            return ZERO
        _, th, gh = poly_cofactors(t, g)
        return RationalExpr._coprime(th, bg * (dg * gh))

    __radd__ = __add__

    def __neg__(self):
        return RationalExpr(-self.num, self.den, _normalized=True)

    def __sub__(self, other):
        other = RationalExpr._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return self + (-other)

    def __rsub__(self, other):
        other = RationalExpr._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return other - self

    def __mul__(self, other):
        other = RationalExpr._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return RationalExpr._product(self.num, self.den, other.num, other.den)

    __rmul__ = __mul__

    def __truediv__(self, other):
        other = RationalExpr._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        if other.is_zero():
            raise DivisionByZero("division by zero expression")
        return RationalExpr._product(self.num, self.den, other.den, other.num)

    def __rtruediv__(self, other):
        other = RationalExpr._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return other / self

    def __pow__(self, n):
        if n == 0:
            return RationalExpr.const(1)
        if n < 0:
            if self.is_zero():
                raise DivisionByZero("zero to a negative power")
            return RationalExpr._coprime(self.den ** (-n), self.num ** (-n))
        return RationalExpr(self.num**n, self.den**n, _normalized=True)

    def __eq__(self, other):
        other = RationalExpr._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return self.num == other.num and self.den == other.den

    def __hash__(self):
        return hash((self.num, self.den))

    def __repr__(self):
        if self.den.is_constant() and self.den.constant_value() == 1:
            return repr(self.num)
        ns = repr(self.num)
        if len(self.num.terms) > 1:
            ns = f"({ns})"
        ds = repr(self.den)
        if len(self.den.terms) > 1:
            ds = f"({ds})"
        return f"{ns}/{ds}"


ZERO = RationalExpr.const(0)
ONE = RationalExpr.const(1)


def _same_factors(a, b):
    """Whether the lists a and b hold the same polynomials with the same
    multiplicities, in any order; each is compared by ``is`` and then
    ``==``."""
    if len(a) != len(b):
        return False
    rest = list(b)
    for p in a:
        for i, q in enumerate(rest):
            if q is p or q == p:
                del rest[i]
                break
        else:
            return False
    return True


def sum_of_products(terms):
    """The sum over ``terms`` of the product of each term's factors,
    every factor an int, a Fraction or a RationalExpr.

    A term's denominator is the multiset of its factors' denominators
    other than 1.  The product of each distinct multiset is formed once,
    and multisets whose products are equal share one group (L^2*L^2 and
    L*L^3 with L^4), so the groups are those of equal denominator
    products.  A group of several terms is summed over its product: its
    numerators are multiplied and added as plain polynomials, with no
    gcd.  The sum num is then cancelled one factor at a time against
    the group's first multiset d_1, ..., d_k: step i takes
    (g_i, num, d_i') = poly_cofactors(num, d_i), and the value is
    num / (d_1' * ... * d_k').  That is the group's value, since the
    g_i taken out of num are those taken out of the d_i.  It is in
    normal form up to the joint integer scaling: after step i, num is
    coprime to d_i', and later steps only divide num, so the final num
    is coprime to every d_i' and, in a UFD, to their product.  A factor
    equal to the one before it, whose gcd was 1, takes no gcd: num has
    not changed since, so g_i = 1 and d_i' = d_i (L^2*L^2 takes one gcd
    against L^2, not two).  When
    every g_i is constant (1), each d_i' is d_i and the group's product
    is reused.  A term alone in its group is multiplied out with
    Henrici's operator instead, whose gcds are of the factors' own
    numerators and denominators, not of the whole product.  The groups'
    values are added with Henrici's operator in a balanced tree,
    neighbours first, in the order each group's product first appears:
    groups that a caller lists side by side (one field's terms) meet,
    and cancel, before they meet the rest.  The normal form is unique,
    so the result equals the operator sum of the operator products.
    """
    groups = []  # [product, its first multiset, [(c, factors), ...]]
    multisets = []  # (multiset, its group), one per distinct multiset
    for term in terms:
        c, factors, dens = 1, [], []
        for f in term:
            if isinstance(f, RationalExpr):
                if not f.num.terms:
                    c = 0
                    break
                factors.append(f)
                if f.den.terms != ONE.den.terms:
                    dens.append(f.den)
            elif isinstance(f, (int, Fraction)):
                c *= f
            else:
                raise TypeError(f"not a factor: {type(f).__name__}")
        if not c:
            continue
        for known, group in multisets:
            if _same_factors(known, dens):
                break
        else:
            den = math.prod(dens[1:], start=dens[0]) if dens else ONE.den
            for group in groups:
                if group[0] is den or group[0] == den:
                    break
            else:
                group = [den, dens, []]
                groups.append(group)
            multisets.append((dens, group))
        group[2].append((c, factors))
    values = []
    for den, dens, members in groups:
        if len(members) == 1:
            c, factors = members[0]
            prod = factors[0] if factors else ONE
            for f in factors[1:]:
                prod = prod * f
            values.append(prod if c == 1 else prod * c)
            continue
        num = Polynomial()
        for c, factors in members:
            p = factors[0].num if factors else ONE.num
            for f in factors[1:]:
                p = p * f.num
            num = num + (p if c == 1 else p * c)
        if num.is_zero():
            values.append(ZERO)
            continue
        reduced, cut, coprime = [], False, None
        for d in dens:
            if d is coprime or d == coprime:
                reduced.append(d)
                continue
            g, num, r = poly_cofactors(num, d)
            reduced.append(r)
            if g.is_constant():
                coprime = d
            else:
                cut, coprime = True, None
        if cut:
            den = math.prod(reduced[1:], start=reduced[0])
        values.append(RationalExpr._coprime(num, den))
    if not values:
        return ZERO
    while len(values) > 1:
        values = [
            values[i] + values[i + 1] if i + 1 < len(values) else values[i]
            for i in range(0, len(values), 2)
        ]
    return values[0]


class RewriteRule:
    """Replace every monomial divisible by ``pattern`` using ``replacement``.

    The replacement's monomials must precede the pattern in the term
    order (restricted to the rule's variables) so rewriting terminates.
    """

    def __init__(self, pattern, replacement):
        for m in replacement.terms:
            proj = mono_make(
                (v, e) for v, e in m if any(v == w for w, _ in pattern)
            )
            if mono_key(proj) >= mono_key(pattern):
                raise ValueError("rewrite rule does not terminate")
        self.pattern = pattern  # a monomial
        self.replacement = replacement  # a Polynomial


def poly_reduce(p, rules):
    changed = True
    while changed:
        changed = False
        for rule in rules:
            for m in list(p.terms):
                q = mono_div(m, rule.pattern)
                if q is None:
                    continue
                c = p.terms[m]
                p = p - Polynomial({m: c}) + Polynomial({q: c}) * rule.replacement
                changed = True
                break
            if changed:
                break
    return p


# ---------------------------------------------------------------------------
# symcore operations on RationalExpr
# ---------------------------------------------------------------------------


def normalize(e):
    """A caller's value as a RationalExpr: an int, Fraction or Polynomial
    is converted and a RationalExpr is returned as it is (every one is
    canonical by construction).  Anything else (a float, a string) is a
    TypeError.  Only the entry points that take a caller's value,
    ``substitute`` and ``eval_point``, call it."""
    out = RationalExpr._coerce(e)
    if out is NotImplemented:
        raise TypeError(f"not an expression: {type(e).__name__}")
    return out


def over_one_denominator(values):
    """(nums, B) for the ints, Fractions and RationalExprs ``values``,
    with no gcd taken: B is the product of their distinct denominators
    other than 1, compared with ==, and nums[i] = values[i]*B as a
    Polynomial (its numerator times every distinct denominator but its
    own).  When every denominator is 1, nums are the numerators and B is
    1."""
    one = ONE.den.terms
    nums, ks, dens = [], [], []  # ks[i]: index of values[i]'s den, or -1
    for x in values:
        if isinstance(x, RationalExpr):
            num, den = x.num, x.den
        else:  # an int or a Fraction
            num = Polynomial.const(x.numerator)
            den = Polynomial.const(x.denominator)
        nums.append(num)
        if den.terms == one:
            ks.append(-1)
        elif den in dens:  # by identity, then by ==
            ks.append(dens.index(den))
        else:
            ks.append(len(dens))
            dens.append(den)
    if not dens:
        return nums, ONE.num
    # the product of all the denominators but the k-th (all of them at -1)
    others = []
    for k in [*range(len(dens)), -1]:
        prod = ONE.num
        for i, b in enumerate(dens):
            if i != k:
                prod = prod * b
        others.append(prod)
    return [num * others[k] for num, k in zip(nums, ks)], others[-1]


def derive(e, coeffs):
    """D e for the derivation D = sum of c_v * d/dv over the pairs (v, c_v)
    of ``coeffs``, each c_v a RationalExpr; every VariableId counts as an
    independent coordinate, and the terms of a variable given twice add.

    With a_v = B*c_v over one denominator B (over_one_denominator), B*D
    maps polynomials to polynomials, so B*D n and B*D d are formed as
    plain polynomials, with no gcd, in one sweep over each one's terms
    (_sweep): a term c*m gives c*k*(m/v)*a_v for each v^k in m that has
    a coefficient.  The quotient rule (_quotient) gives B*D (n/d), and
    1/B is multiplied in last with Henrici's operator.
    """
    n, d = e.num, e.den
    vs, cs = [], []  # the pairs whose c_v is not zero
    for v, c in coeffs:
        if c.num.terms:
            vs.append(v)
            cs.append(c)
    nums, B = over_one_denominator(cs)
    scaled = {}  # v -> a_v
    for v, a in zip(vs, nums):
        prev = scaled.get(v)
        scaled[v] = a if prev is None else prev + a
    q = _quotient(n, d, _sweep(n, scaled), _sweep(d, scaled))
    if q is None:
        return ZERO
    if B.terms == ONE.num.terms:
        return RationalExpr._coprime(*q)
    return RationalExpr._product(*q, ONE.num, B)


def _quotient(n, d, dn, dd):
    """D (n/d) for a reduced n/d, as a coprime pair (num, den), from
    dn = D n and dd = D d; None when it is zero.

    D is any derivation that maps polynomials to polynomials (derive's
    B*D, a coordinate partial).  The rule is Henrici's: with
    g = gcd(d, D d) and d1 = d/g,

        D (n/d) = t / (g * d1^2),   t = (D n) * d1 - n * (D d)/g,

    and only gcd(t, g) can cancel.  For an irreducible p with p^k || d,
    Leibniz gives p^(k-1) | D d.  If p^k | D d, p divides g k times and
    not d1.  Otherwise p^(k-1) || D d, so p || d1, and p divides neither
    D d/g nor n (n/d is reduced), so p does not divide t.  Either way t
    is coprime to d1, also when p | D p (D_x (ch + sh) = ch + sh under
    the catenary's specials).  A constant d needs no gcd, and when
    D d = 0 the full constructor cancels gcd(D n, d).
    """
    if not dd.terms:
        if not dn.terms:
            return None
        if d.is_constant():
            return dn, d
        r = RationalExpr(dn, d)
        return r.num, r.den
    g, d1, ddg = poly_cofactors(d, dd)
    t = dn * d1 - n * ddg
    if not t.terms:
        return None
    _, num, gh = poly_cofactors(t, g)
    return num, gh * d1 * d1


def _sweep(p, scaled):
    """sum of a_v * dp/dv over the pairs (v, a_v) of ``scaled``, in one
    pass over p's terms."""
    t = {}
    for m, c in p.terms.items():
        for i, (w, k) in enumerate(m):
            a = scaled.get(w)
            if a is None:
                continue
            if k == 1:
                rest = m[:i] + m[i + 1:]
            else:
                rest = m[:i] + ((w, k - 1),) + m[i + 1:]
            ck = c * k
            for mb, cb in a.terms.items():
                mm = mono_mul(rest, mb)
                s = t.get(mm, 0) + ck * cb
                if s:
                    t[mm] = s
                else:
                    t.pop(mm, None)
    return _poly(t)


def coordinate_partial(e, v):
    """Partial derivative treating every VariableId as an independent
    coordinate (no chain rule for specials)."""
    return derive(e, ((v, ONE),))


def poly_partials(p, vs):
    """{v: dp/dv} for each v of the container ``vs`` that p carries, in
    one pass over p's terms.  Dividing out one v is one-to-one on the
    monomials that carry v, so no two terms of one partial meet."""
    out = {}
    for m, c in p.terms.items():
        for i, (w, k) in enumerate(m):
            if w not in vs:
                continue
            t = out.get(w)
            if t is None:
                t = out[w] = {}
            if k == 1:
                t[m[:i] + m[i + 1:]] = c
            else:
                t[m[:i] + ((w, k - 1),) + m[i + 1:]] = c * k
    return {v: _poly(t) for v, t in out.items()}


def linearize(e, vs):
    """e = n/d linearized in the variables of the container ``vs``, with
    no gcd: {v: n_v*d - n*d_v} as Polynomials, or {v: n_v} when d
    carries none of them, for each v of vs that e carries.  That is
    d^2 (or d) times d e/dv, one nonzero factor for the whole row, so a
    row of them has the rank of the row of partials; e is in lowest
    terms, so no entry is zero.  One sweep over num's and one over den's
    terms (poly_partials)."""
    n, d = e.num, e.den
    dn, dd = poly_partials(n, vs), poly_partials(d, vs)
    if not dd:
        return dn
    none = Polynomial()
    return {v: dn.get(v, none) * d - n * dd.get(v, none)
            for v in {**dn, **dd}}


def _check_acyclic(bindings):
    graph = {}
    for v, repl in bindings.items():
        tgt = repl.variables()
        if v in tgt:
            raise CyclicBinding(f"{v} appears in its own replacement")
        graph[v] = tgt & set(bindings)
    done = set()
    for root in graph:
        if root in done:
            continue
        # iterative depth-first search: ``path`` is the current branch,
        # ``todo`` the unvisited successors of each variable on it
        path, todo = [root], [iter(graph[root])]
        while todo:
            w = next(todo[-1], None)
            if w is None:
                done.add(path.pop())
                todo.pop()
            elif w in path:
                raise CyclicBinding(
                    " -> ".join(u.name for u in path) + f" -> {w.name}"
                )
            elif w not in done:
                path.append(w)
                todo.append(iter(graph.get(w, ())))


def _poly_substitute(p, bindings):
    """p with its bound variables replaced, over one denominator.

    With k_v the degree of p in a bound variable v and a_v/b_v its
    binding, every term of p is a polynomial over D = prod b_v^(k_v): a
    term's power v^e becomes a_v^e * b_v^(k_v - e), b_v^(k_v) for a term
    without v.  The terms are grouped by their exponents of the bound
    variables, each group's factor is a product of cached powers, and
    the sum is normalized once by the constructor.
    """
    groups, degree = {}, {}  # bound exponents -> {free monomial: coef}
    for m, c in p.terms.items():
        free, exps = [], []
        for v, e in m:
            if v in bindings:
                exps.append((v, e))
                if e > degree.get(v, 0):
                    degree[v] = e
            else:
                free.append((v, e))
        groups.setdefault(tuple(exps), {})[tuple(free)] = c
    den = ONE.num
    for v, k in degree.items():
        if bindings[v].den.terms != ONE.den.terms:
            den = den * bindings[v].den ** k
    powers = {}
    t = {}
    for exps, free in groups.items():
        exps = dict(exps)
        factor = ONE.num
        for v, k in degree.items():
            e = exps.get(v, 0)
            f = powers.get((v, e))
            if f is None:
                r = bindings[v]
                f = powers[(v, e)] = r.num ** e * r.den ** (k - e)
            factor = factor * f
        _add_product(t, free, factor.terms)
    return RationalExpr(_poly(t), den)


def substitute(e, bindings):
    """Simultaneous substitution of variables by expressions."""
    e = normalize(e)
    bindings = {v: normalize(r) for v, r in bindings.items()}
    bindings = {
        v: r for v, r in bindings.items() if r != RationalExpr.var(v)
    }
    if not bindings:
        return e
    _check_acyclic(bindings)
    n = _poly_substitute(e.num, bindings)
    d = _poly_substitute(e.den, bindings)
    if d.is_zero():
        raise DivisionByZero("denominator vanished under substitution")
    return n / d


def reduce_expr(e, rules):
    """Exhaustive rewrite of num and den, then renormalization; e itself
    when no rule fires."""
    n = poly_reduce(e.num, rules)
    d = poly_reduce(e.den, rules)
    if n is e.num and d is e.den:
        return e
    if d.is_zero():
        raise DivisionByZero("denominator reduced to zero")
    return RationalExpr(n, d)


def eval_point(e, point):
    e = normalize(e)
    try:
        nv, dv = e.num.eval(point), e.den.eval(point)
    except KeyError as exc:
        raise UnboundVariable(
            f"the point gives no value for {exc.args[0]}") from None
    if dv == 0:
        raise DenominatorVanishes("denominator vanishes at the point")
    return nv / dv
