"""Surface and curve invariants, their compatibility residuals, and the
gauging construction with its structure forms.

Components may carry dependents (unknown functions): every derivative
along an independent is ``JetContext.total_derivative``.  All quantities
stay inside the rational-function field: curvature data is reported as
squares (kappa^2) or ratios, never via square roots.
"""
from __future__ import annotations

from .errors import (
    DegenerateCurve,
    DegenerateMetric,
    SingularFrame,
    ZeroCurvatureLocus,
)
from .linalg import det, inverse, mat_mul, mat_vec, transpose
from .report import verdict
from .symcore import sum_of_products


def _dot(a, b):
    return sum_of_products(zip(a, b))


def _cross(a, b):
    return [
        sum_of_products([(a[i], b[j]), (-1, a[j], b[i])])
        for i, j in ((1, 2), (2, 0), (0, 1))
    ]


# ---------------------------------------------------------------------------
# surfaces (2 source coordinates, 3 target components)


class SurfaceData:
    """First form, tangential quantities and the second-form density of a
    surface, all rational in the source coordinates and their jets."""

    def __init__(self, ctx, omega, gamma, sigma, det_omega, det_sigma):
        self.ctx = ctx
        self.omega = omega  # (i, j) with i <= j -> RationalExpr
        self.gamma = gamma  # (r, i, j) with i <= j -> RationalExpr
        self.sigma = sigma  # (i, j) with i <= j -> RationalExpr
        self.det_omega = det_omega
        self.det_sigma = det_sigma

    def om(self, i, j):
        return self.omega[(min(i, j), max(i, j))]

    def ga(self, r, i, j):
        return self.gamma[(r, min(i, j), max(i, j))]

    def si(self, i, j):
        return self.sigma[(min(i, j), max(i, j))]


def surface_invariants(ctx, f):
    """Metric, tangential and normal second-order invariants of a
    surface f = (f^1, f^2, f^3)(x^1, x^2).

    The second-form density sigma_ij = det(f_1, f_2, f_ij) is taken as
    the triple product N . f_ij with the normal N = f_1 x f_2, formed
    once for all three (i, j)."""
    if len(ctx.independents) != 2 or len(f) != 3:
        raise ValueError("surface data needs 2 source and 3 target components")
    red = ctx.reduce
    p = lambda e, i: ctx.total_derivative(e, i - 1)
    fd = {i: [red(p(c, i)) for c in f] for i in (1, 2)}
    nrm = _cross(fd[1], fd[2])
    omega, gamma, sigma = {}, {}, {}
    for i in (1, 2):
        for j in (1, 2):
            if j < i:
                continue
            omega[(i, j)] = red(_dot(fd[i], fd[j]))
            fij = [red(p(c, j)) for c in fd[i]]
            sigma[(i, j)] = red(_dot(nrm, fij))
            for r in (1, 2):
                gamma[(r, i, j)] = red(_dot(fd[r], fij))
    det_omega = red(_det2(omega))
    if det_omega.is_zero():
        raise DegenerateMetric("det(omega) vanishes identically")
    det_sigma = red(_det2(sigma))
    return SurfaceData(ctx, omega, gamma, sigma, det_omega, det_sigma)


def _det2(form):
    """Determinant of a symmetric 2x2 form kept as {(i, j): value}."""
    return sum_of_products(
        [(form[(1, 1)], form[(2, 2)]), (-1, form[(1, 2)], form[(1, 2)])]
    )


def gauss_residual(S):
    """Residual of the second-order compatibility identity expressing
    det(sigma) through the metric and its first derivatives; zero on every
    embedded surface."""
    ctx = S.ctx
    p = lambda e, i: ctx.total_derivative(e, i - 1)
    om, ga = S.om, S.ga
    # -det(omega) (d_1 ga^2_12 - d_2 ga^2_11) - (det(sigma) + q1 - q2),
    # with q1 and q2 quadratic in the gammas
    return ctx.reduce(sum_of_products([
        (-1, S.det_omega, p(ga(2, 1, 2), 1)),
        (S.det_omega, p(ga(2, 1, 1), 2)),
        (-1, S.det_sigma),
        # -q1
        (-1, om(2, 2), ga(1, 1, 1), ga(1, 2, 2)),
        (-1, om(1, 1), ga(2, 1, 1), ga(2, 2, 2)),
        (om(1, 2), ga(1, 1, 1), ga(2, 2, 2)),
        (om(1, 2), ga(2, 1, 1), ga(1, 2, 2)),
        # +q2
        (om(2, 2), ga(1, 1, 2), ga(1, 1, 2)),
        (om(1, 1), ga(2, 1, 2), ga(2, 1, 2)),
        (-2, om(1, 2), ga(1, 1, 2), ga(2, 1, 2)),
    ]))


def _codazzi_one(S, a, b):
    """First-order compatibility residual for the second form, written for
    the index pair (a, b); the companion residual swaps the two.

    With W = det(omega) and W G^l_ij = sum_m adj(omega)^lm gamma_m,ij it
    is W (d_b s_ab - d_a s_bb) - W (G^l_bb s_la - G^l_ab s_lb
    + G^l_lb s_ab - G^l_la s_bb): the Codazzi equation of the unit-normal
    form s / sqrt(W), since d_k log sqrt(W) = G^l_lk."""
    ctx = S.ctx
    p = lambda e, i: ctx.total_derivative(e, i - 1)
    om, ga, si = S.om, S.ga, S.si
    return ctx.reduce(sum_of_products([
        (S.det_omega, p(si(a, b), b)),
        (-1, S.det_omega, p(si(b, b), a)),
        (-1, ga(a, b, b), om(b, b), si(a, a)),
        (ga(b, b, b), om(a, b), si(a, a)),
        (-2, ga(a, a, b), om(a, b), si(b, b)),
        (2, ga(b, a, b), om(a, a), si(b, b)),
        (-1, ga(b, a, a), om(a, b), si(b, b)),
        (ga(a, a, a), om(b, b), si(b, b)),
        (-2, ga(b, b, b), om(a, a), si(a, b)),
        (2, ga(a, b, b), om(a, b), si(a, b)),
    ]))


def codazzi_residual(S):
    """The pair of first-order compatibility residuals for the second
    form; both zero on every embedded surface."""
    return _codazzi_one(S, 1, 2), _codazzi_one(S, 2, 1)


# ---------------------------------------------------------------------------
# curves (1 source coordinate, 2 or 3 target components)


class CurveData:
    """Differential invariants of a curve; for 3 components the
    third-order quantities and rho = omega*sigma - gamma^2 are included."""

    def __init__(self, ctx, m, omega, gamma, sigma, upsilon, phi=None,
                 psi=None, rho=None):
        self.ctx = ctx
        self.m = m
        self.omega = omega
        self.gamma = gamma
        self.sigma = sigma
        self.upsilon = upsilon
        self.phi = phi
        self.psi = psi
        self.rho = rho

    def identity_report(self):
        """Residuals of the derived relations among the invariants."""
        ctx = self.ctx
        p = lambda e: ctx.total_derivative(e, 0)
        res = {"gamma": ctx.reduce(self.gamma - p(self.omega) / 2)}
        if self.m == 2:
            res["upsilon"] = ctx.reduce(
                self.omega * self.upsilon - self.gamma ** 2 - self.sigma ** 2
            )
        else:
            res["phi"] = ctx.reduce(self.phi - (p(self.gamma) - self.sigma))
            res["psi"] = ctx.reduce(self.psi - p(self.sigma) / 2)
        return verdict(res.values(), detail=", ".join(
            f"{k}: {'0' if v.is_zero() else v}" for k, v in res.items()))


def curve_invariants(ctx, f):
    """Differential invariants of a curve with 2 or 3 components."""
    if len(ctx.independents) != 1 or len(f) not in (2, 3):
        raise ValueError("curve data needs 1 source and 2 or 3 components")
    red = ctx.reduce
    p = lambda e: ctx.total_derivative(e, 0)
    d1 = [red(p(c)) for c in f]
    d2 = [red(p(c)) for c in d1]
    omega = red(_dot(d1, d1))
    if omega.is_zero():
        raise DegenerateCurve("omega vanishes identically")
    gamma = red(_dot(d1, d2))
    if len(f) == 2:
        sigma = red(d1[0] * d2[1] - d1[1] * d2[0])
        upsilon = red(_dot(d2, d2))
        return CurveData(ctx, 2, omega, gamma, sigma, upsilon)
    d3 = [red(p(c)) for c in d2]
    sigma = red(_dot(d2, d2))
    phi = red(_dot(d1, d3))
    psi = red(_dot(d2, d3))
    upsilon = red(det([d1, d2, d3]))
    rho = red(omega * sigma - gamma ** 2)
    return CurveData(ctx, 3, omega, gamma, sigma, upsilon, phi, psi, rho)


def frenet_squares(C):
    """(kappa^2, tau) from the invariants; tau is None for planar
    curves."""
    red = C.ctx.reduce
    if C.m == 2:
        return red(C.sigma ** 2 / C.omega ** 3), None
    if C.rho.is_zero():
        raise ZeroCurvatureLocus("rho vanishes; torsion undefined")
    return red(C.rho / C.omega ** 3), red(C.upsilon / C.rho)


# ---------------------------------------------------------------------------
# gauging


class Gauging:
    """Matrix/translation pair carrying one moving frame onto another."""

    def __init__(self, ctx, A, B):
        self.ctx = ctx
        self.A = A  # matrix of RationalExpr
        self.B = B  # vector of RationalExpr

    def orthogonal_defect(self):
        red = self.ctx.reduce
        prod = mat_mul(self.A, transpose(self.A))
        n = len(self.A)
        return [
            [red(prod[i][j] - (1 if i == j else 0)) for j in range(n)]
            for i in range(n)
        ]

    def det_defect(self):
        return self.ctx.reduce(det(self.A) - 1)


def _frame(section):
    """Frame matrix of a section: derivative columns for curves, the two
    tangents and their cross product for surfaces."""
    ctx = section.ctx
    n, deps = len(ctx.independents), ctx.dependents
    if n == 1 and len(deps) in (2, 3):
        if section.order < len(deps):
            raise ValueError("section order too low for the curve frame")
        return [
            [section.value(dep, (o,)) for o in range(1, len(deps) + 1)]
            for dep in deps
        ]
    if n == 2 and len(deps) == 3:
        t1 = [section.value(dep, (1, 0)) for dep in deps]
        t2 = [section.value(dep, (0, 1)) for dep in deps]
        nrm = _cross(t1, t2)
        return [[t1[k], t2[k], nrm[k]] for k in range(3)]
    raise ValueError("no frame construction for this context shape")


def gauging(f, fbar):
    """The (A, B) pair with A = Mbar M^{-1} carrying the frame of f onto
    the frame of fbar, and B the induced translation."""
    ctx = f.ctx
    red = ctx.reduce
    M = _frame(f)
    if red(det(M)).is_zero():
        raise SingularFrame("frame of the source section is singular")
    Mbar = _frame(fbar)
    Minv = inverse(M)
    A = [[red(c) for c in row] for row in mat_mul(Mbar, Minv)]
    zero_mu = (0,) * len(ctx.independents)
    f0 = [f.value(dep, zero_mu) for dep in ctx.dependents]
    fb0 = [fbar.value(dep, zero_mu) for dep in ctx.dependents]
    B = [red(b - c) for b, c in zip(fb0, mat_vec(A, f0))]
    return Gauging(ctx, A, B)


def maurer_cartan(G):
    """Structure forms of a gauging: P = dA A^{-1} and Q = dB - P B, one
    of each per source coordinate, as two dicts keyed by its name."""
    ctx = G.ctx
    red = ctx.reduce
    if red(det(G.A)).is_zero():
        raise SingularFrame("gauging matrix is singular")
    Ainv = [[red(c) for c in row] for row in inverse(G.A)]
    out_p, out_q = {}, {}
    for x in ctx.independents:
        dA = [[ctx.total_derivative(c, x) for c in row] for row in G.A]
        P = [[red(c) for c in row] for row in mat_mul(dA, Ainv)]
        dB = [ctx.total_derivative(c, x) for c in G.B]
        Q = [red(b - c) for b, c in zip(dB, mat_vec(P, G.B))]
        out_p[x], out_q[x] = P, Q
    return out_p, out_q
