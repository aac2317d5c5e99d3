"""Outcomes of checks, and the one rule that turns residuals into one.

A check passes only when each of its residuals is exactly zero over Q:
``verdict`` decides that, and a FAIL carries the first nonzero residual
as its witness.  ``CheckReport`` holds what the runner prints, and
refuses a FAIL without a witness, so every expected failure can be
reproduced from its report.
"""
from __future__ import annotations

from dataclasses import dataclass, field


@dataclass
class CheckReport:
    """Outcome of one check.

    status: "OK" or "FAIL".
    witness: what shows a FAIL (the first nonzero residual, or the
        numbers that disagree); a FAIL must have one, an OK has None.
    numbers: named integers/rationals produced along the way.
    board: the rendered Janet board of a ``janet_board`` check.
    """

    status: str
    witness: object = None
    numbers: dict = field(default_factory=dict)
    detail: str = ""
    board: str | None = None

    def __post_init__(self):
        if self.status == "FAIL" and self.witness is None:
            raise ValueError("a FAIL report needs a witness")

    @property
    def ok(self):
        return self.status == "OK"


def verdict(residuals, **fields):
    """OK when every residual (a ``RationalExpr`` or a ``Fraction``) is
    exactly zero; otherwise FAIL with the first nonzero one as witness.
    ``residuals`` is read lazily: nothing after the first nonzero
    residual is consumed.  ``fields`` go to the report either way."""
    for r in residuals:
        if r:
            return CheckReport("FAIL", witness=r, **fields)
    return CheckReport("OK", **fields)
