"""Outcomes of checks, and the one rule that turns residuals into one.

A check passes only when each of its residuals is exactly zero over Q:
``verdict`` decides that, and a FAIL carries the first nonzero residual
as its witness.  ``CheckReport`` holds what the runner prints; its
status is read off its witness (FAIL exactly when it carries one), so a
report cannot fail without what reproduces the failure.
"""
from __future__ import annotations


class CheckReport:
    """Outcome of one check: FAIL exactly when ``witness`` is not None.

    witness: what shows a FAIL (the first nonzero residual, or the
        numbers that disagree); None for an OK.
    numbers: named integers/rationals produced along the way.
    board: the rendered Janet board of a ``janet_board`` check.
    """

    def __init__(self, *, witness=None, numbers=None, detail="",
                 board=None):
        self.witness = witness
        self.numbers = {} if numbers is None else numbers
        self.detail = detail
        self.board = board

    @property
    def ok(self):
        return self.witness is None

    @property
    def status(self):
        return "OK" if self.ok else "FAIL"


def verdict(residuals, **fields):
    """OK when every residual (a ``RationalExpr`` or a ``Fraction``) is
    exactly zero; otherwise FAIL with the first nonzero one as witness.
    ``residuals`` is read lazily: nothing after the first nonzero
    residual is consumed.  ``fields`` go to the report either way."""
    return CheckReport(witness=next((r for r in residuals if r), None),
                       **fields)
