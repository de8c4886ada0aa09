"""Exception hierarchy shared by all modules.

DomainError marks inputs outside an operation's mathematical domain,
IntegrationError marks ODE driver failures, and NumericalQualityError marks
results whose internal checks (determinant drift, residuals) failed even
though the computation ran to completion.  require_positive_int is the one
check on mode numbers.
"""

from numbers import Integral


class BeamModesError(Exception):
    """Base class for every error raised by this package."""


class DomainError(BeamModesError, ValueError):
    """Input lies outside the mathematical domain of the operation."""


class IntegrationError(BeamModesError, RuntimeError):
    """The ODE driver could not finish (step failure, step underflow)."""

    def __init__(self, message: str, time: float | None = None):
        if time is not None:
            message = f"{message} (at t = {time})"
        super().__init__(message)
        self.time = time


class StepLimitError(IntegrationError):
    """The configured step budget was exhausted."""


class NoCrossingError(IntegrationError):
    """No zero crossing of the requested kind was found in the window."""


class NumericalQualityError(BeamModesError, RuntimeError):
    """A computed result failed its internal accuracy check."""


class ConsistencyError(BeamModesError, RuntimeError):
    """An analytic criterion and a direct computation disagree."""


def require_positive_int(label: str, value) -> None:
    """Raise DomainError unless value is an integer (Python or numpy) >= 1."""
    if not isinstance(value, Integral) or value < 1:
        raise DomainError(f"{label} must be a positive integer, got {value!r}")
