"""Exact scalar and expression arithmetic.

Sparse multivariate polynomials over Q, canonical rational functions,
substitution, partial differentiation and rewrite-relation reduction.
Everything is immutable and every RationalExpr is kept in a unique
normal form, so structural equality is algebraic equality.

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
of degree_in, partial and _as_univariate) assumes canonical monomials:
pairs sorted by the variables' _sk, one pair per variable, exponents
positive.  The kernels merge such tuples by comparing _sk and never hash
a variable; equal _sk means equal VariableId, since the sort key's first
entry encodes the kind.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from numbers import Rational

from .errors import CyclicBinding, DenominatorVanishes, DivisionByZero

KIND_RANK = {"independent": 0, "parameter": 1, "special": 2, "jet": 3}


@dataclass(frozen=True)
class VariableId:
    """A declared coordinate.

    ``key`` is a context-global sort key: kind rank first, then the
    declaration index (independents, parameters, specials) or
    (dependent index, |mu|, mu) for jets.
    """

    kind: str
    name: str
    key: tuple

    def __post_init__(self):
        # The dataclass's own hash value, computed once: monomial
        # arithmetic hashes variables far more often than it makes them.
        object.__setattr__(self, "_hash", hash((self.kind, self.name, self.key)))
        # the variable order's sort key, compared on every monomial build
        object.__setattr__(self, "_sk", (self.key, self.name))

    def __hash__(self):
        return self._hash

    def __reduce__(self):
        # rebuild through __init__ so an unpickled copy rehashes its
        # strings under the receiving interpreter's hash seed
        return VariableId, (self.kind, self.name, self.key)

    def __lt__(self, other):
        return self._sk < other._sk

    def __repr__(self):
        return self.name


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
        ka, kb = va._sk, vb._sk
        if ka == kb:
            out.append((va, ea + eb))
            i += 1
            j += 1
        elif ka < kb:
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
        if va._sk != kb or ea < eb:
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
        ka, kb = va._sk, vb._sk
        if ka == kb:
            out.append((va, min(ea, eb)))
            i += 1
            j += 1
        elif ka < kb:
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


def _index(m, sk):
    """Position of the variable with sort key sk in monomial m, or -1."""
    for i, (w, _) in enumerate(m):
        if w._sk == sk:
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
        p = Polynomial.__new__(Polynomial)
        p.terms = {UNIT: c} if c else {}
        return p

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
        sk = v._sk
        d = 0
        for m in self.terms:
            for w, e in m:
                if w._sk == sk:
                    if e > d:
                        d = e
                    break
        return d

    def leading_monomial(self):
        return max(self.terms, key=mono_key)

    def leading_coefficient(self):
        return self.terms[self.leading_monomial()]

    # -- ring operations ----------------------------------------------
    def __add__(self, other):
        if isinstance(other, (int, Fraction)):
            other = Polynomial.const(other)
        t = dict(self.terms)
        for m, c in other.terms.items():
            s = t.get(m, 0) + c
            if s:
                t[m] = s
            else:
                t.pop(m, None)
        p = Polynomial.__new__(Polynomial)
        p.terms = t
        return p

    def __neg__(self):
        p = Polynomial.__new__(Polynomial)
        p.terms = {m: -c for m, c in self.terms.items()}
        return p

    def __sub__(self, other):
        if isinstance(other, (int, Fraction)):
            other = Polynomial.const(other)
        return self + (-other)

    def __mul__(self, other):
        if isinstance(other, (int, Fraction)):
            other = _coef(other)
            if not other:
                return Polynomial()
            p = Polynomial.__new__(Polynomial)
            p.terms = {m: c * other for m, c in self.terms.items()}
            return p
        t = {}
        a, b = self.terms, other.terms
        if len(a) > len(b):
            a, b = b, a
        for ma, ca in a.items():
            for mb, cb in b.items():
                m = mono_mul(ma, mb)
                s = t.get(m, 0) + ca * cb
                if s:
                    t[m] = s
                else:
                    t.pop(m, None)
        p = Polynomial.__new__(Polynomial)
        p.terms = t
        return p

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
        if isinstance(other, (int, Fraction)):
            other = Polynomial.const(other)
        return isinstance(other, Polynomial) and self.terms == other.terms

    def __hash__(self):
        return hash(frozenset(self.terms.items()))

    # -- calculus -----------------------------------------------------
    def partial(self, v):
        t = {}
        sk = v._sk
        for m, c in self.terms.items():
            i = _index(m, sk)
            if i < 0:
                continue
            w, e = m[i]
            if e == 1:
                m2 = m[:i] + m[i + 1:]
            else:
                m2 = m[:i] + ((w, e - 1),) + m[i + 1:]
            s = t.get(m2, 0) + c * e
            if s:
                t[m2] = s
            else:
                t.pop(m2, None)
        p = Polynomial.__new__(Polynomial)
        p.terms = t
        return p

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


def _joint_primitive(num, den):
    """Scale num and den by one rational so that their coefficients are
    ints with no common factor across both, and den's leading
    coefficient is positive (den nonzero)."""
    coeffs = [*num.terms.values(), *den.terms.values()]
    integral = all(type(c) is int for c in coeffs)
    if integral:
        lcm = 1
        g = math.gcd(*coeffs)
    else:
        lcm = math.lcm(*(c.denominator for c in coeffs))
        g = math.gcd(*(c.numerator * (lcm // c.denominator) for c in coeffs))
    if den.leading_coefficient() < 0:
        g = -g
    if integral and g == 1:
        return num, den

    def scaled(p):
        q = Polynomial.__new__(Polynomial)
        q.terms = {
            m: c.numerator * (lcm // c.denominator) // g
            for m, c in p.terms.items()
        }
        return q

    return scaled(num), scaled(den)


def poly_divexact(a, b):
    """Exact division a / b, or None when b does not divide a."""
    if b.is_zero():
        raise DivisionByZero("polynomial division by zero")
    if a.is_zero():
        return Polynomial()
    if b.is_constant():
        cb = b.terms[UNIT]
        q = Polynomial.__new__(Polynomial)
        q.terms = {m: _qdiv(c, cb) for m, c in a.terms.items()}
        return q
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
    p = Polynomial.__new__(Polynomial)
    p.terms = out
    return p


def _cancel(p, g):
    """p / g for a gcd g known to divide p."""
    if len(g.terms) == 1 and g.terms.get(UNIT) == 1:
        return p
    return poly_divexact(p, g)


def _mono_quotient(p, m):
    """p divided by a monomial that divides each of its terms."""
    if not m:
        return p
    q = Polynomial.__new__(Polynomial)
    q.terms = {mono_div(t, m): c for t, c in p.terms.items()}
    return q


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
    sk = v._sk
    out = {}
    for m, c in p.terms.items():
        i = _index(m, sk)
        if i < 0:
            e, rest = 0, m
        else:
            e, rest = m[i][1], m[:i] + m[i + 1:]
        out.setdefault(e, {})[rest] = c
    for e, t in out.items():
        out[e] = q = Polynomial.__new__(Polynomial)
        q.terms = t
    return out


def _poly_content_in(p, v):
    """gcd of the coefficients of p seen as univariate in v."""
    coeffs = list(_as_univariate(p, v).values())
    g = coeffs[0]
    for c in coeffs[1:]:
        g = poly_gcd(g, c)
        if g.is_constant():
            break
    return g


def _primitive_in(p, v):
    cont = _poly_content_in(p, v)
    prim = poly_divexact(p, cont)
    return cont, prim


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


def poly_gcd(a, b):
    """gcd of two polynomials, integer-primitive with positive leading
    coefficient (1 for coprime inputs)."""
    if a.is_zero():
        return _norm_primitive(b)
    if b.is_zero():
        return _norm_primitive(a)
    if a.is_constant() or b.is_constant():
        return Polynomial.const(1)
    ma, mb = _mono_content(a), _mono_content(b)
    base = Polynomial({mono_gcd(ma, mb): 1})
    a, b = _mono_quotient(a, ma), _mono_quotient(b, mb)
    if a.is_constant() or b.is_constant():
        return base
    # cheap trial divisions first
    if poly_divexact(a, b) is not None:
        return _norm_primitive(base * _norm_primitive(b))
    if poly_divexact(b, a) is not None:
        return _norm_primitive(base * _norm_primitive(a))
    common = a.variables() & b.variables()
    if not common:
        return _norm_primitive(base)
    v = max(common)
    ca, pa = _primitive_in(a, v)
    cb, pb = _primitive_in(b, v)
    cg = poly_gcd(ca, cb)
    if pa.degree_in(v) < pb.degree_in(v):
        pa, pb = pb, pa
    # subresultant polynomial remainder sequence: exact divisions by
    # g*h^delta keep the coefficient growth polynomial, so the content
    # extraction only happens once at the end
    gc = Polynomial.const(1)
    h = Polynomial.const(1)
    while True:
        delta = pa.degree_in(v) - pb.degree_in(v)
        r = _pseudo_rem(pa, pb, v)
        if r.is_zero():
            g = pb
            break
        if r.degree_in(v) == 0:
            g = Polynomial.const(1)
            break
        q = poly_divexact(r, gc * _pow_poly(h, delta))
        if q is None:
            # fall back to the primitive sequence for this step
            _, q = _primitive_in(r, v)
            gc = Polynomial.const(1)
            h = Polynomial.const(1)
            pa, pb = pb, q
            continue
        pa, pb = pb, q
        gc = _as_univariate(pa, v)[pa.degree_in(v)]
        if delta == 1:
            h = gc
        elif delta > 1:
            nh = poly_divexact(_pow_poly(gc, delta), _pow_poly(h, delta - 1))
            h = nh if nh is not None else gc
    if not g.is_constant():
        _, g = _primitive_in(g, v)
    return _norm_primitive(base * cg * g)


def _pow_poly(p, n):
    out = Polynomial.const(1)
    for _ in range(n):
        out = out * p
    return out


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
    """

    __slots__ = ("num", "den")

    def __init__(self, num, den=None, _normalized=False):
        if isinstance(num, (int, Fraction)):
            num = Polynomial.const(num)
        if den is None:
            den = Polynomial.const(1)
        elif isinstance(den, (int, Fraction)):
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
        g = poly_gcd(num, den)
        self.num, self.den = _joint_primitive(_cancel(num, g), _cancel(den, g))

    @staticmethod
    def _coprime(num, den):
        """The normal form of num/den for coprime nonzero num and den."""
        return RationalExpr(*_joint_primitive(num, den), _normalized=True)

    @staticmethod
    def _product(a, b, c, d):
        """(a/b) * (c/d) for coprime pairs (a, b) and (c, d)."""
        if a.is_zero() or c.is_zero():
            return ZERO
        g1, g2 = poly_gcd(a, d), poly_gcd(c, b)
        return RationalExpr._coprime(
            _cancel(a, g1) * _cancel(c, g2), _cancel(b, g2) * _cancel(d, g1)
        )

    # -- helpers ------------------------------------------------------
    @staticmethod
    def const(c):
        return RationalExpr(Polynomial.const(c))

    @staticmethod
    def var(v):
        return RationalExpr(Polynomial.var(v))

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

    def complexity(self):
        return len(self.num.terms) + len(self.den.terms)

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
            h = poly_gcd(t, b)
            return RationalExpr._coprime(_cancel(t, h), _cancel(b, h))
        # a/b + c/d = t / (b/g * d/g * g) with g = gcd(b, d); t is coprime
        # to b/g and to d/g, so only a factor shared with g can cancel
        g = poly_gcd(b, d)
        bg = _cancel(b, g)
        t = a * _cancel(d, g) + c * bg
        if t.is_zero():
            return ZERO
        h = poly_gcd(t, g)
        return RationalExpr._coprime(_cancel(t, h), bg * _cancel(d, h))

    __radd__ = __add__

    def __neg__(self):
        return RationalExpr(-self.num, self.den, _normalized=True)

    def __sub__(self, other):
        other = RationalExpr._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return self + (-other)

    def __rsub__(self, other):
        return RationalExpr._coerce(other) - self

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
        return RationalExpr._coerce(other) / self

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


@dataclass(frozen=True)
class RewriteRule:
    """Replace every monomial divisible by ``pattern`` using ``replacement``.

    The replacement's monomials must precede the pattern in the term
    order (restricted to the rule's variables) so rewriting terminates.
    """

    pattern: tuple  # a monomial
    replacement: Polynomial

    def __post_init__(self):
        for m in self.replacement.terms:
            proj = mono_make(
                (v, e) for v, e in m if any(v == w for w, _ in self.pattern)
            )
            if mono_key(proj) >= mono_key(self.pattern):
                raise ValueError("rewrite rule does not terminate")


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
    """Expressions built with the overloaded operators are always
    canonical; this re-coerces scalars and asserts the invariant.
    Anything else (a float, a string) is a TypeError."""
    out = RationalExpr._coerce(e)
    if out is NotImplemented:
        raise TypeError(f"not an expression: {type(e).__name__}")
    return out


def coordinate_partial(e, v):
    """Partial derivative treating every VariableId as an independent
    coordinate (no chain rule for specials)."""
    e = normalize(e)
    n, d = e.num, e.den
    dn = n.partial(v)
    dd = d.partial(v)
    if dd.is_zero():
        return RationalExpr(dn, d)
    # Henrici's quotient rule: with g = gcd(d, d') and d1 = d/g,
    # (n'd - nd')/d^2 = t / (g*d1^2) for t = n'*d1 - n*(d'/g).  An
    # irreducible p with p^k || d has p^(k-1) || d' over Q, so p divides
    # d1 but not d'/g, and not n either: t is coprime to d1, and only a
    # factor shared with g can cancel.
    g = poly_gcd(d, dd)
    d1 = _cancel(d, g)
    t = dn * d1 - n * _cancel(dd, g)
    if t.is_zero():
        return ZERO
    h = poly_gcd(t, g)
    return RationalExpr._coprime(_cancel(t, h), _cancel(g, h) * d1 * d1)


def partial(e, v, chain=()):
    """Partial derivative with respect to v.

    ``chain`` lists pairs (s, ds) of special-symbol variables based on v
    together with their derivative expressions, e.g. (ch, sh) for
    d/dx ch(x) = sh(x).
    """
    out = coordinate_partial(e, v)
    for s, ds in chain:
        g = coordinate_partial(e, s)
        if not g.is_zero():
            out = out + g * ds
    return out


def _check_acyclic(bindings):
    graph = {}
    for v, repl in bindings.items():
        repl = normalize(repl)
        tgt = repl.variables()
        if v in tgt:
            if repl == RationalExpr.var(v):
                continue  # identity binding, allowed
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
    out = ZERO
    for m, c in p.terms.items():
        term = RationalExpr.const(c)
        for v, e in m:
            repl = bindings.get(v)
            if repl is None:
                term = term * RationalExpr(Polynomial.var(v, e))
            else:
                term = term * (normalize(repl) ** e)
        out = out + term
    return out


def substitute(e, bindings):
    """Simultaneous substitution of variables by expressions."""
    e = normalize(e)
    bindings = {
        v: normalize(r)
        for v, r in bindings.items()
        if normalize(r) != RationalExpr.var(v)
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
    """Exhaustive rewrite of num and den, then renormalization."""
    e = normalize(e)
    if not rules:
        return e
    n = poly_reduce(e.num, rules)
    d = poly_reduce(e.den, rules)
    if d.is_zero():
        raise DivisionByZero("denominator reduced to zero")
    return RationalExpr(n, d)


def eval_point(e, point):
    e = normalize(e)
    dv = e.den.eval(point)
    if dv == 0:
        raise DenominatorVanishes("denominator vanishes at the point")
    return e.num.eval(point) / dv


def is_zero(e):
    return normalize(e).is_zero()
