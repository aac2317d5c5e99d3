"""Differential-polynomial ideal scaffolding at verification scale:
prolongation of generator sets, syzygy checks, and explicit certificates
for radical-power membership.

Membership claims are certificate-based only: every positive answer comes
with an explicit combination that re-normalizes to the claimed element.
"""
from __future__ import annotations

from .errors import CertificateSearchExceeded
from .report import verdict
from .symcore import ONE, ZERO


class DiffPolySet:
    """A finite set of differential-polynomial generators."""

    def __init__(self, ctx, generators):
        self.ctx = ctx
        self.generators = generators
        for g in generators:
            if g.is_zero():
                raise ValueError("zero generator")
            if not g.is_polynomial():
                raise ValueError("generators must be polynomial")


def prolong_gens(S, r):
    """All formal derivatives d_nu(a), |nu| <= r, of the generators,
    deduplicated by canonical form."""
    if r == 0:
        return S
    ctx = S.ctx
    seen = dict.fromkeys(S.generators)  # RationalExpr is canonical
    frontier = list(S.generators)
    for _ in range(r):
        nxt = []
        for g in frontier:
            for x in ctx.independents:
                dg = ctx.total_derivative(g, x)
                if dg not in seen:
                    seen[dg] = None
                    nxt.append(dg)
        frontier = nxt
    return DiffPolySet(ctx, list(seen))


def syzygy_check(combination):
    """OK iff the given combination of generator derivatives normalizes
    to zero; otherwise the normal form is reported as witness."""
    return verdict([combination])


def radical_power_membership(ctx, a, direction, r):
    """Certificate that (da)^(2r-1) lies in the differential ideal
    generated by a^r, for the single derivation d along ``direction``.

    Returns (report, certificate) where certificate maps a derivative
    order o to the coefficient of d^o(a^r) in the verified combination.
    The construction iterates the identity
    a^(r-1)*da = (1/r)*d(a^r) by deriving, multiplying by da and removing
    the d^2a-term, which lowers the exponent of a by one each round.
    """
    if r < 1:
        raise ValueError("r must be >= 1")
    if r > 4:
        raise CertificateSearchExceeded(
            "radical certificates are constructed only up to r = 4"
        )
    d = lambda e: ctx.total_derivative(e, direction)
    da, dda = d(a), d(d(a))
    cert = {1: ONE / r}
    for k in range(1, r):
        new = {}
        for o, c in cert.items():
            main = (da * d(c) - (2 * k - 1) * dda * c) / (r - k)
            if not main.is_zero():
                new[o] = new.get(o, ZERO) + main
            new[o + 1] = new.get(o + 1, ZERO) + (
                da * c / (r - k)
            )
        cert = {o: c for o, c in new.items() if not c.is_zero()}
    power = a ** r
    rebuilt = ZERO
    derivs = {0: power}
    top = max(cert, default=0)  # da = 0 leaves no term: 0 is in the ideal
    for o in range(1, top + 1):
        derivs[o] = d(derivs[o - 1])
    for o, c in cert.items():
        rebuilt = rebuilt + c * derivs[o]
    target = da ** (2 * r - 1)
    report = verdict([rebuilt - target],
                     numbers={"r": r, "power": 2 * r - 1, "terms": len(cert)})
    return report, cert
