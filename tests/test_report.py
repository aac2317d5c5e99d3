"""The one verdict rule, and the outcome rule: a report is FAIL exactly
when it carries a witness."""
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


class TestOutcomeRule:
    def test_no_witness_is_ok(self):
        rep = CheckReport(numbers={"n": 1}, detail="d")
        assert rep.ok and rep.status == "OK"

    @pytest.mark.parametrize("witness", [0, (), "", (1, 0)],
                             ids=["zero", "empty-tuple", "empty-string",
                                  "pair"])
    def test_any_witness_is_fail(self, witness):
        rep = CheckReport(witness=witness)
        assert not rep.ok and rep.status == "FAIL"

    def test_status_is_not_an_argument(self):
        with pytest.raises(TypeError):
            CheckReport("FAIL")
