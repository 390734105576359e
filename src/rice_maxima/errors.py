"""Exception hierarchy for the rice_maxima package."""

from __future__ import annotations


class RiceMaximaError(Exception):
    """Base class for all package-specific errors."""


class DegenerateModel(RiceMaximaError):
    """The model is degenerate as a whole (e.g. the derivative cannot vanish
    on an interval, or the degree is too small for the requested quantity)."""


class DegenerateCovariance(RiceMaximaError):
    """The joint covariance of (value, slope, curvature) at a point has lost
    rank, as at x = 0 for a model without a constant term, so the crossing
    intensity is undefined there."""

    def __init__(self, x: float, detail: str = ""):
        self.x = x
        msg = f"covariance matrix is singular at x={x!r}"
        if detail:
            msg += f" ({detail})"
        super().__init__(msg)


class NonFiniteResult(RiceMaximaError):
    """A computation produced a NaN or infinity where a finite value was
    required."""


class ToleranceNotMet(RiceMaximaError):
    """Adaptive integration exhausted its subdivision budget before reaching
    the requested tolerance.

    The best available estimate is attached so callers can still inspect it.
    """

    def __init__(self, message: str, result=None):
        super().__init__(message)
        self.result = result

