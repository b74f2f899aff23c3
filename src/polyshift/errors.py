"""Exception hierarchy shared by the geometry, counting and statistics engines."""


class GeometryError(Exception):
    """Base class for all domain errors raised by this package."""


class DegenerateInput(GeometryError):
    """Input violates a dimensionality / nondegeneracy precondition."""


class SingularMatrix(GeometryError):
    """A matrix required to be invertible has determinant zero."""


class CellBudgetExceeded(GeometryError):
    """Exact distribution cell decomposition grew past the configured cap."""


class UnknownIdentity(GeometryError):
    """Verification was requested for an identity tag outside the closed set."""


class InvariantViolation(Exception):
    """An internal invariant of an exact engine failed: a defect in this
    package, not in the input, hence deliberately not a GeometryError."""
