"""Exception types shared across the library."""


class FraclabError(Exception):
    """Base class for all library errors."""


class DomainError(FraclabError, ValueError):
    """An argument lies outside the mathematical domain of an operation."""


class PoleError(DomainError):
    """Evaluation requested exactly at a pole (gamma at 0, -1, -2, ...)."""


class GridMismatchError(FraclabError, ValueError):
    """Two grid functions with different grid specs were combined."""


class SupportRuleError(FraclabError, ValueError):
    """Input does not decay below 1e-12 of the largest |sample| on the
    outer half of the box.

    The discrete transform is a truncation of the integral over the whole
    line, so wrap-around must be negligible by construction.
    """


class ExpressionError(FraclabError, ValueError):
    """Parse or evaluation failure, carrying the source position."""

    def __init__(self, message, position=None):
        self.position = position
        if position is not None:
            message = f"{message} (at position {position})"
        super().__init__(message)


class QuadratureToleranceError(FraclabError, RuntimeError):
    """Requested tolerance was not reached at the maximum grading depth."""
