"""Generator prolongation, syzygies, and radical-power certificates."""
import pytest

from vessiot.diffideal import (
    DiffPolySet,
    prolong_gens,
    radical_power_membership,
    syzygy_check,
)
from vessiot.errors import CertificateSearchExceeded
from vessiot.jets import JetContext
from vessiot.symcore import RationalExpr, coordinate_partial, normalize


@pytest.fixture
def pair_ctx():
    return JetContext(["x1", "x2"], ["y"], max_order=4)


@pytest.fixture
def pair(pair_ctx):
    E = pair_ctx.expr
    p1 = E("y[x2,x2] - y[x1,x1]^3/3")
    p2 = E("y[x1,x2] - y[x1,x1]^2/2")
    return DiffPolySet(pair_ctx, [p1, p2])


class TestProlongGens:
    def test_zero_rounds(self, pair):
        assert prolong_gens(pair, 0) is pair

    def test_linear_generator(self):
        ctx = JetContext(["x1", "x2"], ["y"], max_order=3)
        E = ctx.expr
        S = DiffPolySet(ctx, [E("y[x1] - x1*x2*y[x2]")])
        P = prolong_gens(S, 1)
        assert len(P.generators) == 3
        d1 = normalize(
            E("y[x1,x1] - x2*y[x2] - x1*x2*y[x1,x2]")
        )
        assert any((g - d1).is_zero() for g in P.generators)

    def test_pair_counts(self, pair):
        assert len(prolong_gens(pair, 1).generators) == 6
        assert len(prolong_gens(pair, 2).generators) == 12

    def test_composition(self, pair):
        one_one = prolong_gens(prolong_gens(pair, 1), 1)
        two = prolong_gens(pair, 2)
        key = lambda S: sorted(str(g) for g in S.generators)
        assert key(one_one) == key(two)

    def test_rejects_zero(self, pair_ctx):
        with pytest.raises(ValueError):
            DiffPolySet(pair_ctx, [RationalExpr.const(0)])

    def test_rejects_nonpolynomial(self, pair_ctx):
        E = pair_ctx.expr
        with pytest.raises(ValueError):
            DiffPolySet(pair_ctx, [E("1/y")])


class TestSyzygy:
    def test_vanishing_combination(self, pair, pair_ctx):
        d = pair_ctx.total_derivative
        p1, p2 = pair.generators
        y11 = pair_ctx.expr("y[x1,x1]")
        combo = d(p2, "x2") - d(p1, "x1") + y11 * d(p2, "x1")
        assert syzygy_check(combo).ok

    def test_trivial(self, pair, pair_ctx):
        d = pair_ctx.total_derivative
        p1, _ = pair.generators
        assert syzygy_check(d(p1, "x1") - d(p1, "x1")).ok

    def test_sign_flip_witness(self, pair, pair_ctx):
        E = pair_ctx.expr
        d = pair_ctx.total_derivative
        p1, p2 = pair.generators
        y11 = E("y[x1,x1]")
        combo = d(p2, "x2") - d(p1, "x1") - y11 * d(p2, "x1")
        rep = syzygy_check(combo)
        assert rep.status == "FAIL"
        expect = normalize(
            2 * y11 * (y11 * E("y[x1,x1,x1]") - E("y[x1,x1,x2]"))
        )
        assert (rep.witness - expect).is_zero()


class TestResidueFamily:
    def test_solvable_leadings(self, pair, pair_ctx):
        """Every order-<=4 prolonged generator is solvable (unit
        coefficient) for a derivative of the two mixed leadings; what is
        left uncovered is exactly the pure-x1 derivative family."""
        ctx = pair_ctx
        P = prolong_gens(pair, 2)
        derived = {
            v for v in ctx.jets_up_to(4)
            if ctx.jet_info(v)[1][1] >= 1 and sum(ctx.jet_info(v)[1]) >= 2
        }
        covered = set()
        for g in P.generators:
            slots = {
                v for v in derived
                if (coordinate_partial(g, v) - 1).is_zero()
            }
            assert slots, f"generator {g} has no unit-solvable slot"
            covered |= slots
        assert covered == derived
        parametric = sorted(
            ctx.jet_info(v)[1]
            for v in ctx.jets_up_to(4) if v not in derived
        )
        assert parametric == sorted(
            [(0, 0), (1, 0), (0, 1), (2, 0), (3, 0), (4, 0)]
        )


class TestRadicalCertificates:
    @pytest.fixture
    def line_ctx(self):
        return JetContext(["x"], ["y"], max_order=5)

    def test_trivial(self, line_ctx):
        rep, cert = radical_power_membership(
            line_ctx, line_ctx.expr("y"), "x", 1
        )
        assert rep.ok
        assert list(cert) == [1] and (cert[1] - 1).is_zero()

    def test_square(self, line_ctx):
        E = line_ctx.expr
        rep, cert = radical_power_membership(line_ctx, E("y"), "x", 2)
        assert rep.ok and rep.numbers["power"] == 3
        assert (cert[1] + E("y[x,x]") / 2).is_zero()
        assert (cert[2] - E("y[x]") / 2).is_zero()
        rebuilt = cert[1] * line_ctx.total_derivative(E("y^2"), "x")
        d2 = line_ctx.total_derivative(
            line_ctx.total_derivative(E("y^2"), "x"), "x")
        rebuilt = rebuilt + cert[2] * d2
        assert (normalize(rebuilt) - E("y[x]^3")).is_zero()

    def test_nested(self, line_ctx):
        rep, _ = radical_power_membership(
            line_ctx, line_ctx.expr("y^2"), "x", 2
        )
        assert rep.ok

    @pytest.mark.parametrize("r", [1, 2, 3, 4])
    def test_grid(self, line_ctx, r):
        rep, cert = radical_power_membership(
            line_ctx, line_ctx.expr("y"), "x", r
        )
        assert rep.ok
        assert max(cert) <= r

    @pytest.mark.parametrize("element", ["3", "x"])
    def test_element_constant_along_the_direction(self, element):
        # d(a) = 0: the certificate is empty and 0 is in every ideal
        ctx = JetContext(["x", "z"], ["y"], max_order=5)
        rep, cert = radical_power_membership(ctx, ctx.expr(element), "z", 2)
        assert rep.ok and cert == {} and rep.numbers["terms"] == 0

    def test_jet_argument(self):
        ctx = JetContext(["x"], ["y"], max_order=5)
        rep, _ = radical_power_membership(ctx, ctx.expr("y[x]"), "x", 2)
        assert rep.ok

    def test_bound(self, line_ctx):
        with pytest.raises(CertificateSearchExceeded):
            radical_power_membership(line_ctx, line_ctx.expr("y"), "x", 5)
        with pytest.raises(ValueError):
            radical_power_membership(line_ctx, line_ctx.expr("y"), "x", 0)
