"""Floating-point values with an unbounded binary exponent.

Large-degree polynomials evaluated far from the unit circle produce powers
like ``x**(6n)`` that overflow float64 long before the quantities we actually
want (ratios of such powers) become extreme.  ``ScaledValue`` stores a number
as ``mantissa * 2**exponent`` with the mantissa a float in ``[1, 2)`` (times a
sign) and the exponent an arbitrary Python int, which keeps every intermediate
exactly representable while staying cheap: all arithmetic is a handful of
float operations plus integer exponent bookkeeping.

No evaluation path uses it any more: ``moments`` peels the power n ln|x|
instead.  The class is kept, with only the operations it needs, for the
``layers.scaled`` probe of the benchmark, and goes when that probe does.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

__all__ = ["ScaledValue"]

# Beyond this exponent gap the smaller addend cannot affect the larger one's
# 53-bit mantissa even after rounding.
_ALIGN_CUTOFF = 60


@dataclass(frozen=True)
class ScaledValue:
    """A real number ``mantissa * 2**exponent`` immune to float overflow.

    Invariant: either ``mantissa == 0.0 and exponent == 0`` or
    ``1.0 <= abs(mantissa) < 2.0``.
    """

    mantissa: float
    exponent: int

    # ------------------------------------------------------------------
    # construction
    # ------------------------------------------------------------------

    @staticmethod
    def from_float(value: float) -> "ScaledValue":
        if value == 0.0:
            return ScaledValue(0.0, 0)
        if not math.isfinite(value):
            raise ValueError(f"cannot represent non-finite value {value!r}")
        m, e = math.frexp(value)  # m in [0.5, 1)
        return ScaledValue(m * 2.0, e - 1)

    @staticmethod
    def _build(mantissa: float, exponent: int) -> "ScaledValue":
        """Normalise an unrestricted (mantissa, exponent) pair."""
        if mantissa == 0.0:
            return ScaledValue(0.0, 0)
        if not math.isfinite(mantissa):
            raise ValueError(f"non-finite mantissa {mantissa!r}")
        m, e = math.frexp(mantissa)
        return ScaledValue(m * 2.0, exponent + e - 1)

    # ------------------------------------------------------------------
    # conversion
    # ------------------------------------------------------------------

    def to_float(self) -> float:
        """Convert to float64, saturating to +-inf / 0.0 out of range."""
        if self.mantissa == 0.0:
            return 0.0
        if self.exponent > 1100:
            return math.inf if self.mantissa > 0 else -math.inf
        if self.exponent < -1150:
            return 0.0
        return math.ldexp(self.mantissa, self.exponent)

    # ------------------------------------------------------------------
    # arithmetic
    # ------------------------------------------------------------------

    def __mul__(self, other) -> "ScaledValue":
        other = _coerce(other)
        if self.mantissa == 0.0 or other.mantissa == 0.0:
            return ScaledValue(0.0, 0)
        return ScaledValue._build(
            self.mantissa * other.mantissa, self.exponent + other.exponent
        )

    def __truediv__(self, other) -> "ScaledValue":
        other = _coerce(other)
        if other.mantissa == 0.0:
            raise ZeroDivisionError("ScaledValue division by zero")
        if self.mantissa == 0.0:
            return ScaledValue(0.0, 0)
        return ScaledValue._build(
            self.mantissa / other.mantissa, self.exponent - other.exponent
        )

    def __add__(self, other) -> "ScaledValue":
        other = _coerce(other)
        if self.mantissa == 0.0:
            return other
        if other.mantissa == 0.0:
            return self
        hi, lo = (self, other) if self.exponent >= other.exponent else (other, self)
        gap = hi.exponent - lo.exponent
        if gap > _ALIGN_CUTOFF:
            return hi
        summed = hi.mantissa + math.ldexp(lo.mantissa, -gap)
        return ScaledValue._build(summed, hi.exponent)

    def powi(self, k: int) -> "ScaledValue":
        """Integer power by repeated squaring (k may be negative)."""
        if k == 0:
            return ScaledValue.from_float(1.0)
        base = self
        if k < 0:
            base = ScaledValue.from_float(1.0) / base
            k = -k
        acc = ScaledValue.from_float(1.0)
        while k:
            if k & 1:
                acc = acc * base
            base = base * base
            k >>= 1
        return acc


def _coerce(value) -> ScaledValue:
    if isinstance(value, ScaledValue):
        return value
    if isinstance(value, (int, float)):
        return ScaledValue.from_float(float(value))
    raise TypeError(f"cannot mix ScaledValue with {type(value).__name__}")
