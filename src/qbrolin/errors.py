"""Exception types shared across the library."""


class QBrolinError(Exception):
    """Base class for all library errors."""


class ZeroDivisor(QBrolinError):
    """Attempted to invert a (near-)zero quaternion."""


class CoefficientOffSlice(QBrolinError):
    """A polynomial coefficient does not lie in the requested slice plane.

    Carries the index of the first offending coefficient.
    """

    def __init__(self, index, distance):
        self.index = index
        self.distance = distance
        super().__init__(
            f"coefficient {index} is off the slice plane (distance {distance:.3e})"
        )


class SolverFailure(QBrolinError):
    """Root solver could not certify all roots; carries the worst residual."""

    def __init__(self, worst_residual, message="root solve failed residual check"):
        self.worst_residual = worst_residual
        super().__init__(f"{message} (worst residual {worst_residual:.3e})")


class BudgetExceeded(QBrolinError):
    """Requested enumeration exceeds the configured budget."""


class ExceptionalTarget(QBrolinError):
    """Pullback target failed the exceptional-point screening."""


class DegenerateSample(QBrolinError):
    """A sampled point landed on a critical point within tolerance."""


class ProbeOnFiber(QBrolinError):
    """A probe point is too close to a fiber of the gap-test targets."""


class ConfigError(QBrolinError):
    """Invalid run configuration."""


class InvariantViolation(QBrolinError):
    """An internal numerical check failed: a mass or multiplicity balance,
    the Laplacian clamp limit, or an estimate left without data (a slope fit
    on fewer than two points, no itinerary word of some length)."""
