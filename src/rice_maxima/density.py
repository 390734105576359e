"""Pointwise intensity of local maxima lying below a level.

``maxima_density(model, x, u)`` evaluates the function whose integral over an
x-interval equals the expected number of local maxima of the random
polynomial with value below ``u``.  The closed form follows from the standard
counting identity for stationary points: writing ``U`` for the polynomial
value at ``x`` conditioned on a critical point, ``W`` for the second
derivative conditioned the same way, ``sigma_U`` and ``sigma_W`` for their
conditional standard deviations and ``rho`` for their conditional
correlation,

    f(x, u) = (sigma_W / B) / (4 pi)
              * [ erfc(-q g) + rho * exp(-q^2 / 2) * erfc(rho q g) ]

with ``q = u / sigma_U``, ``g = 1 / sqrt(2 (1 - rho^2))`` and ``B`` the
standard deviation of the first derivative.  The two limits are

    u -> +inf : (sigma_W / B) / (2 pi)   (all local maxima counted)
    u -> -inf : 0

All inputs come from ``moments``: sigma_W / B, rho, 1 - rho^2 and sigma_U,
the last with x^n peeled off for |x| > 1 and returned as n log|x| (entering
only the level ratio u / sigma_U), so the evaluation stays finite for
degrees and locations where raw covariance entries overflow float64.

``maxima_density_batch`` evaluates a whole array of points (a round of
quadrature panels) with one ``moments`` call; ``maxima_density`` is its
one-point view.  Only the erfc bracket runs per point, with ``math.erfc``.
"""

from __future__ import annotations

import math

import numpy as np

from .errors import NonFiniteResult
from .model import PolynomialModel
from .moments import moments

__all__ = ["maxima_density", "maxima_density_batch"]

_TWO_PI = 2.0 * math.pi
_FOUR_PI = 4.0 * math.pi


def _bracket(q: float, rho: float, one_minus_rho_sq: float) -> float:
    """erfc(-q g) + rho exp(-q^2/2) erfc(rho q g), clipped at 0."""
    if q == math.inf:
        return 2.0
    if q == -math.inf:
        return 0.0
    g = 1.0 / math.sqrt(2.0 * one_minus_rho_sq)
    bracket = math.erfc(-q * g) + rho * math.exp(-0.5 * q * q) * math.erfc(rho * q * g)
    # the bracket is a probability-like quantity; clip rounding noise
    return 0.0 if bracket < 0.0 else bracket


def maxima_density_batch(model: PolynomialModel, xs, u: float) -> np.ndarray:
    """``maxima_density`` at every point of the 1-D array ``xs`` in one
    batched moments evaluation (one call per quadrature round).

    Raises like ``maxima_density``; a DegenerateCovariance or
    NonFiniteResult names a point of ``xs`` where the evaluation failed.
    """
    if math.isnan(u):
        raise ValueError("u must not be NaN")
    rows = moments(model, xs, clamp_rho=True)
    swb = rows.sigma_w_over_b
    if u == math.inf:
        values = swb / _TWO_PI
    elif u == -math.inf:
        values = np.zeros_like(swb)
    else:
        brackets = [
            _bracket(q, rho, omr)
            for q, rho, omr in zip(
                rows.level_ratio(u).tolist(),
                rows.rho.tolist(),
                rows.one_minus_rho_sq.tolist(),
            )
        ]
        values = swb / _FOUR_PI * np.array(brackets)
    finite = np.isfinite(values)
    if not finite.all():
        x = float(rows.x[np.argmin(finite)])
        raise NonFiniteResult(f"density evaluation at x={x!r}, u={u!r} is not finite")
    return values


def maxima_density(model: PolynomialModel, x: float, u: float) -> float:
    """Density (per unit x) of local maxima with polynomial value below u.

    ``u`` may be ``inf`` (count every local maximum) or ``-inf`` (zero).
    Raises DegenerateModel when fewer than three increments carry noise,
    DegenerateCovariance when the value/slope/curvature covariance at
    ``x`` is singular, and NonFiniteResult if the evaluation produces a
    non-finite number.  This is the one-point view of
    ``maxima_density_batch``.
    """
    return float(maxima_density_batch(model, [float(x)], u)[0])

