"""Exception hierarchy shared by all vessiot modules."""


class VessiotError(Exception):
    """Base class for all errors raised by this package."""


class DivisionByZero(VessiotError):
    """A divisor normalized to the zero rational expression."""


class InexactSubresultant(VessiotError):
    """A division in the subresultant remainder sequence, exact by the
    subresultant theorem, left a remainder: an arithmetic fault."""


class CyclicBinding(VessiotError):
    """A substitution binds a variable that reappears in a replacement."""


class UnknownVariable(VessiotError):
    """A name does not resolve to any declared variable."""


class DenominatorVanishes(VessiotError):
    """Point evaluation hit a zero denominator; retry at another point."""


class UnboundVariable(VessiotError):
    """Point evaluation met a variable the point gives no value for."""


class OrderOverflow(VessiotError):
    """A jet bump would exceed the context's max_order."""


class JetAboveOrder(VessiotError):
    """An equation carries a jet above the order of its system."""


class LeadingJetConflict(VessiotError):
    """Two equations of a system are solved for the same leading jet, or
    a strictly solved right-hand side carries a strict leading jet."""


class LeadingsNotEliminated(VessiotError):
    """Solved leading jets remain in an expression after the cap on
    substitution passes."""


class ClasslessLeading(VessiotError):
    """A Janet board met an equation solved for an order-0 jet, which
    has no class."""


class UnsolvedSystem(VessiotError):
    """An operation that needs a leading jet on every equation met an
    implicit equation (``fiber_dimension`` takes a witness point
    instead)."""


class OffVariety(VessiotError):
    """A witness point does not satisfy a system's equations."""


class NotClosed(VessiotError):
    """A bracket left the rational span of the generator set."""


class DegenerateLocus(VessiotError):
    """A witness point is one where a declared genericity vanishes."""


class DegenerateMetric(VessiotError):
    """det of the first fundamental form normalized to zero."""


class DegenerateCurve(VessiotError):
    """The curve's speed invariant normalized to zero."""


class ZeroCurvatureLocus(VessiotError):
    """Torsion requested where the curvature invariant vanishes."""


class SingularFrame(VessiotError):
    """A frame matrix is not invertible in the rational-function field."""


class CertificateSearchExceeded(VessiotError):
    """Radical-membership certificate construction beyond the bound."""


class NotAMultiplier(VessiotError):
    """The declared multiplier fails its divergence precondition."""


class DegenerateHamiltonian(VessiotError):
    """H_p vanishes identically; separability conditions undefined."""


class ProblemSyntaxError(VessiotError):
    """Malformed problem file or expression text."""

    def __init__(self, message, line=None, column=None):
        self.line = line
        self.column = column
        at = [f"line {line}"] if line is not None else []
        if column is not None:
            at.append(f"column {column}")
        super().__init__(message + (f" at {', '.join(at)}" if at else ""))


class UnknownReference(VessiotError):
    """A problem file refers to an undefined name."""


class ContextMismatch(VessiotError):
    """An object is used with a context it was not declared in."""
