"""Integrating-factor and multiplier identities for first-order flows,
the Lagrangian Hessian identity, separability conditions, and the
exterior-closure chain for the contact form of a Hamiltonian.

Unknown functions are modelled as dependents whose jets are free
symbols, so a residual that normalizes to zero is an identity in all of
them.  Hypotheses are imposed by solving a relation for one designated
jet and substituting, never by ideal reduction.
"""
from __future__ import annotations

from .errors import DegenerateHamiltonian, NotAMultiplier, SingularFrame
from .jets import DiffForm, JetContext, exterior_derivative, wedge
from .linalg import adjugate, det
from .report import CheckReport, verdict
from .symcore import (
    ONE,
    ZERO,
    RationalExpr,
    coordinate_partial,
    substitute,
    sum_of_products,
)

# the coordinates of hj_closure_chain's contact form, in order
CONTACT_COORDINATES = ("t", "x", "z", "p")
# the coordinates that separability_conditions' Hamiltonian is
# differentiated by, in any order
HAMILTONIAN_COORDINATES = ("t", "x", "p")


def _solve_and_substitute(expr, relation, designated):
    """Impose ``relation == 0`` on ``expr`` by solving the relation for
    the ``designated`` variable, which occurs in it with a constant
    nonzero coefficient, and substituting."""
    solved = (RationalExpr.var(designated)
              - relation / coordinate_partial(relation, designated))
    return substitute(expr, {designated: solved})


# ---------------------------------------------------------------------------
# first-order invariance condition and its integrating factor


def lie_condition_equivalence(flip_chi=False):
    """Verify, for unknown xi, eta and F of (x, y), that the two
    regroupings of the invariance condition for a first-order flow
    agree, and that chi = 1/(eta - F*xi) satisfies the divergence
    identity d_x(chi) - d_y(-F*chi) = 0 once the condition is imposed
    (solved for the x-derivative of eta).

    With ``flip_chi`` the deliberately wrong factor 1/(eta + F*xi) is
    used instead; the report then carries the nonzero witness.
    """
    ctx = JetContext(["x", "y"], ["xi", "eta", "F"], max_order=3)
    E = ctx.expr
    xi, eta, F = E("xi"), E("eta"), E("F")
    d = ctx.total_derivative
    cond = (
        d(eta, "x") + F * d(eta, "y") - F * d(xi, "x")
        - F ** 2 * d(xi, "y") - d(F, "x") * xi - d(F, "y") * eta
    )
    W = eta - F * xi
    regrouped = d(W, "x") + F * d(W, "y") - d(F, "y") * W
    equiv = cond - regrouped
    if not equiv.is_zero():
        return CheckReport(
            witness=equiv,
            detail="the two regroupings of the condition disagree")
    chi = ONE / (eta + F * xi if flip_chi else W)
    divergence = d(chi, "x") - d(-F * chi, "y")
    residual = _solve_and_substitute(divergence, cond, ctx.jet("eta", (1, 0)))
    return verdict([ctx.reduce(residual)])


# ---------------------------------------------------------------------------
# Jacobi multipliers


def _jacobian(ctx, phi):
    d = ctx.total_derivative
    return [[d(c, x) for x in ctx.independents] for c in phi]


def _pullback_divergence(ctx, adj, delta, fields):
    """Delta^3 * sum_j dbar_j(fields[j] / Delta), where the target
    derivations are dbar_j = (J^{-1})^k_j d_k and ``adj`` is the
    adjugate of the jacobian J.  Scaling by Delta^3 keeps the
    computation polynomial (Delta != 0, so vanishing is equivalent).

    Delta is factored out of each field's sum: the value is
    sum_j (Delta * sum_k adj^k_j d_k F_j - F_j * sum_k adj^k_j d_k Delta),
    one sum of 2n products."""
    d = ctx.total_derivative
    xs = ctx.independents
    n = len(xs)
    d_delta = [d(delta, x) for x in xs]
    terms = []
    for j, f in enumerate(fields):
        df = sum_of_products((adj[k][j], d(f, xs[k])) for k in range(n))
        dd = sum_of_products((adj[k][j], d_delta[k]) for k in range(n))
        terms += [(delta, df), (-1, f, dd)]
    return sum_of_products(terms)


def jacobi_multiplier_identity(n=2):
    """The chain-rule identity: for an unknown change of variables phi of
    n variables, with jacobian determinant Delta, each column of
    (1/Delta) * d(phi) has zero divergence in the target variables."""
    ctx = JetContext([f"x{i}" for i in range(1, n + 1)],
                     [f"phi{i}" for i in range(1, n + 1)], max_order=3)
    J = _jacobian(ctx, [ctx.expr(dep) for dep in ctx.dependents])
    delta = det(J)
    adj = adjugate(J)
    return verdict(
        (_pullback_divergence(ctx, adj, delta, [J[j][i] for j in range(n)])
         for i in range(n)),
        numbers={"n": n},
    )


def multiplier_transport(ctx, M, theta, phi):
    """Given a multiplier M for the field theta (sum_i d_i(M theta^i) = 0,
    checked first), verify that M/Delta is a multiplier for the
    transformed field thetabar^j = d_i(phi^j) theta^i in the variables
    phi.  Both divergences are reduced by the context's rewrites."""
    d = ctx.total_derivative
    n = len(ctx.independents)
    if len(theta) != n or len(phi) != n:
        raise ValueError("need one component per variable")
    div = ctx.reduce(sum_of_products(
        (d(M * theta[i], x),) for i, x in enumerate(ctx.independents)
    ))
    if not div.is_zero():
        raise NotAMultiplier(f"sum d_i(M theta^i) = {div}")
    J = _jacobian(ctx, phi)
    delta = det(J)
    if delta.is_zero():
        raise SingularFrame("jacobian determinant vanishes identically")
    tbar = [
        sum_of_products((J[j][i], theta[i]) for i in range(n))
        for j in range(n)
    ]
    fields = [M * tbar[j] for j in range(n)]
    return verdict(
        [ctx.reduce(_pullback_divergence(ctx, adjugate(J), delta, fields))])


def hessian_multiplier_identity():
    """The second velocity-derivative of any Lagrangian L(t, x, v) is a
    multiplier for the associated first-order flow: the displayed
    three-term divergence vanishes identically in the jets of an unknown
    L."""
    ctx = JetContext(["t", "x", "v"], ["L"], max_order=4)
    L = ctx.expr("L")
    d = ctx.total_derivative
    v = ctx.expr("v")
    Lvv = d(d(L, "v"), "v")
    Lx = d(L, "x")
    Ltv = d(d(L, "t"), "v")
    Lxv = d(d(L, "x"), "v")
    return verdict(
        [d(Lvv, "t") + d(v * Lvv, "x") + d(Lx - Ltv - v * Lxv, "v")])


# ---------------------------------------------------------------------------
# contact form of a Hamiltonian: closure chain and separability


def hj_closure_chain(ctx, H):
    """Close the contact form dz - p dx + H dt three times over the
    coordinates (t, x, z, p), the independents of ``ctx``:

    1. its exterior derivative is exactly dx^dp + dH^dt;
    2. wedging the contact form with that 2-form gives the 3-form whose
       transport expresses volume preservation;
    3. the exterior derivative of the 3-form is a multiple of the volume
       form, with coefficient exactly 2 * dH/dz.

    Returns (report, artifacts) where artifacts carries the intermediate
    forms and the extracted volume coefficient.
    """
    if tuple(ctx.independents) != CONTACT_COORDINATES:
        raise ValueError("closure chain needs coordinates (t, x, z, p)")
    coords = [ctx.var(nm) for nm in CONTACT_COORDINATES]
    one = {nm: DiffForm.d_coord(ctx, coords, nm)
           for nm in CONTACT_COORDINATES}
    p = ctx.expr("p")
    contact = one["z"] - one["x"].scale(p) + one["t"].scale(H)
    two = exterior_derivative(contact)
    dH = exterior_derivative(DiffForm.function(ctx, coords, H))
    expected_two = wedge(one["x"], one["p"]) + wedge(dH, one["t"])
    two_residual = two - expected_two
    three = wedge(contact, two)
    four = exterior_derivative(three)
    coeff = four.coefficient((0, 1, 2, 3))
    coeff_residual = coeff - 2 * ctx.total_derivative(H, "z")
    report = verdict(ctx.reduce(r) for r in [*two_residual.terms.values(),
                                             coeff_residual])
    artifacts = {
        "two_form": two,
        "three_form": three,
        "four_form": four,
        "coefficient": coeff,
    }
    return report, artifacts


def separability_conditions(ctx, H):
    """Both obstructions to finding a complete integral of the
    Hamiltonian H by separating x from t: d_z(H) and d_t(d_x(H)/d_p(H)).
    OK iff both reduce to zero in the context."""
    d = ctx.total_derivative
    Hp = d(H, "p")
    if Hp.is_zero():
        raise DegenerateHamiltonian("d_p(H) vanishes identically")
    c1 = ctx.reduce(d(H, "z")) if "z" in ctx.independents else ZERO
    c2 = ctx.reduce(d(d(H, "x") / Hp, "t"))
    return verdict([c1, c2],
                   detail=f"z-dependence: {c1}; mixed quotient: {c2}")
