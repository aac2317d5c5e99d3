"""The one verdict rule, and the report type's witness rule."""
from fractions import Fraction

import pytest

from vessiot import JetContext
from vessiot.report import CheckReport, verdict


@pytest.fixture
def x():
    return JetContext(["x"], ["y"]).expr("x")


class TestVerdict:
    def test_all_zero_is_ok(self, x):
        rep = verdict([x - x, Fraction(0)], numbers={"n": 2}, detail="d")
        assert rep.ok and rep.witness is None
        assert rep.numbers == {"n": 2} and rep.detail == "d"

    def test_first_nonzero_is_the_witness_and_nothing_after_is_read(self, x):
        read = []

        def residuals():
            for r in (x - x, x - 1, x):
                read.append(r)
                yield r
            raise AssertionError("read past the first nonzero residual")

        rep = verdict(residuals(), detail="d")
        assert rep.status == "FAIL" and rep.witness == x - 1
        assert rep.detail == "d" and read == [x - x, x - 1]

    def test_fraction_residuals(self):
        assert verdict([Fraction(0), Fraction(-1, 2)]).witness == Fraction(
            -1, 2)


def test_fail_without_witness_is_refused():
    with pytest.raises(ValueError, match="needs a witness"):
        CheckReport("FAIL")
    assert CheckReport("FAIL", witness=(1, 0)).status == "FAIL"
    assert CheckReport("OK").ok
