"""Exception types shared across the package."""


class DppError(Exception):
    """Base class for all package-specific errors."""


class GroundSetTooLarge(DppError):
    """The requested computation exceeds the enumeration or memory budget."""


class NormalizationMismatch(DppError):
    """Sum of principal minors disagrees with det(I+L) beyond tolerance,
    signalling numerical breakdown of the enumeration."""


class EmptyBatch(DppError):
    """A sample batch with zero draws cannot be turned into frequencies."""


class NotNullDirection(DppError):
    """A direction claimed to lie in the Hessian null space does not."""


class SingularInformation(DppError):
    """The Fisher information is singular (reducible or near-reducible kernel)."""


class InsufficientPoints(DppError):
    """A regression fit needs more points than were supplied."""


class NonpositiveValue(DppError):
    """Log-scale fits require strictly positive coordinates."""


class ConfigError(DppError):
    """An experiment configuration is malformed; the message names the field."""
