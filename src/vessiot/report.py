"""Structured outcomes of named verifications."""
from __future__ import annotations

from dataclasses import dataclass, field


@dataclass
class CheckReport:
    """Outcome of one named check.

    status: "OK", "FAIL" or "ERROR".
    witness: first offending expression (or None).
    numbers: named integers/rationals produced along the way.
    assumptions: genericity expressions assumed nonzero.
    """

    name: str
    status: str
    witness: object = None
    numbers: dict = field(default_factory=dict)
    assumptions: list = field(default_factory=list)
    detail: str = ""

    @property
    def ok(self):
        return self.status == "OK"

    def __repr__(self):
        bits = [f"{self.name}: {self.status}"]
        if self.numbers:
            bits.append(str(self.numbers))
        if self.witness is not None:
            bits.append(f"witness={self.witness}")
        if self.detail:
            bits.append(self.detail)
        return " | ".join(bits)
