"""Independent reference arithmetic for the benchmark's correctness checks.

Nothing here calls vessiot: polynomials are plain dicts
``{exponent tuple: int}`` over a fixed variable list, values are
``Fraction`` and ranks come from textbook Gaussian elimination.  The
program's results are read only as data (their term dictionaries), so a
wrong canonical form, derivative or rank shows up as a disagreement with
this module.
"""
from __future__ import annotations

from fractions import Fraction


def poly_mul(a, b):
    out = {}
    for ea, ca in a.items():
        for eb, cb in b.items():
            e = tuple(x + y for x, y in zip(ea, eb))
            out[e] = out.get(e, 0) + ca * cb
    return {e: c for e, c in out.items() if c}


def poly_eval(p, values):
    """Value of a dict polynomial at ``values`` (one Fraction per variable)."""
    total = Fraction(0)
    for exps, c in p.items():
        term = Fraction(c)
        for v, e in zip(values, exps):
            if e:
                term *= v ** e
        total += term
    return total


def poly_grad_eval(p, values):
    """Value of a dict polynomial and of all its first partials at
    ``values``, which must all be nonzero: (value, [d p / d x_k])."""
    total = Fraction(0)
    grad = [Fraction(0)] * len(values)
    for exps, c in p.items():
        term = Fraction(c)
        for v, e in zip(values, exps):
            if e:
                term *= v ** e
        total += term
        for k, e in enumerate(exps):
            if e:
                grad[k] += term * e / values[k]
    return total, grad


def quotient_grad_eval(num, den, values):
    """Value and gradient of num/den at ``values``, or None where den
    vanishes."""
    n, dn = poly_grad_eval(num, values)
    d, dd = poly_grad_eval(den, values)
    if d == 0:
        return None
    return n / d, [(a * d - n * b) / (d * d) for a, b in zip(dn, dd)]


def poly_degrees(p, nvars):
    """Per-variable degree of a dict polynomial."""
    out = [0] * nvars
    for exps in p:
        for j, e in enumerate(exps):
            out[j] = max(out[j], e)
    return out


def program_terms(poly, names):
    """Read a vessiot Polynomial's terms into a dict polynomial over
    ``names``; the program's monomials are (variable, exponent) pairs and
    variables are matched by their printed name."""
    index = {n: j for j, n in enumerate(names)}
    out = {}
    for mono, c in poly.terms.items():
        exps = [0] * len(names)
        for var, e in mono:
            exps[index[var.name]] += e
        if c.denominator != 1:
            raise ValueError("program coefficient is not an integer")
        out[tuple(exps)] = int(c)
    return out


def expr_eval(expr, names, values):
    """Value of a vessiot RationalExpr at a point, computed here; None
    when its denominator vanishes there."""
    den = poly_eval(program_terms(expr.den, names), values)
    if den == 0:
        return None
    return poly_eval(program_terms(expr.num, names), values) / den


def rank(rows):
    """Rank of a Fraction matrix by plain Gaussian elimination."""
    rows = [list(r) for r in rows if any(r)]
    if not rows:
        return 0
    ncols = len(rows[0])
    r = 0
    for c in range(ncols):
        pivot = next((i for i in range(r, len(rows)) if rows[i][c]), None)
        if pivot is None:
            continue
        rows[r], rows[pivot] = rows[pivot], rows[r]
        pr = rows[r]
        for i in range(r + 1, len(rows)):
            f = rows[i][c]
            if f:
                f = f / pr[c]
                rows[i] = [x - f * y for x, y in zip(rows[i], pr)]
        r += 1
        if r == len(rows):
            break
    return r


def check_generic_rank(exact, point_ranks, what):
    """An exact rank over the function field is at least its rank at any
    point where the entries are defined, and equals the largest of a few
    random points' ranks.  Returns an error message or None."""
    if any(exact < pr for pr in point_ranks):
        return f"{what}: exact rank {exact} below a point rank {point_ranks}"
    if exact != max(point_ranks):
        return f"{what}: exact rank {exact} not reached at any point {point_ranks}"
    return None
