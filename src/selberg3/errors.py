"""Exception hierarchy shared by all numerical layers."""


class Selberg3Error(Exception):
    """Base class for all errors raised by this package."""


class PoleError(Selberg3Error):
    """A gamma factor was requested at (or too close to) a nonpositive integer."""


class DomainError(Selberg3Error):
    """A parameter or evaluation point lies outside the identity's domain."""


class DegenerateError(Selberg3Error):
    """A sine denominator vanishes; the parameter point must be perturbed."""


class NearSingularError(Selberg3Error):
    """An evaluation point is within tolerance of a pole hyperplane."""


class LimitDisagreementError(Selberg3Error):
    """Directional limits of the lattice summand disagree (non-generic
    point); ``row`` is the failed point's row in its batch, if known."""

    def __init__(self, message: str, row: int | None = None):
        super().__init__(message)
        self.row = row


class InadmissibleTripleError(Selberg3Error):
    """Index triple violates the admissibility inequalities."""


class IntegrandSingularError(Selberg3Error):
    """A quadrature node landed on a singular facet; the transform is broken."""


class NotConvergedError(Selberg3Error):
    """A series or quadrature failed to reach the requested tolerance."""


class PivotZeroError(Selberg3Error):
    """A recursion pivot coefficient vanishes for these parameters."""


class InconsistentSystemError(Selberg3Error):
    """An over-determined recursion check exceeded its residual tolerance."""


class InvalidParamsError(Selberg3Error):
    """Parameters violate the validity predicate of the requested identity."""
