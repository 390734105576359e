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

All inputs pass through the scaled-moment layer, so the evaluation stays
finite for degrees and locations where raw covariance entries overflow
float64.

``maxima_density_batch`` evaluates a whole array of points (a quadrature
panel) with one batched moments call; ``maxima_density`` is its one-point
view.  Only the erfc bracket runs per point, with ``math.erfc``.
"""

from __future__ import annotations

import math

import numpy as np

from .errors import NonFiniteResult
from .model import PolynomialModel
from .moments import moment_rows, moments
from .scaled import ScaledValue

__all__ = ["maxima_density", "maxima_density_batch", "density_split"]

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
    batched moments evaluation (one call per quadrature panel).

    Raises like ``maxima_density``; a DegenerateCovariance or
    NonFiniteResult names a point of ``xs`` where the evaluation failed.
    """
    if math.isnan(u):
        raise ValueError("u must not be NaN")
    model.require_rank_for_density()
    rows = moment_rows(model, xs, clamp_rho=True)
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
    Raises DegenerateCovariance when the value/slope/curvature covariance at
    ``x`` is singular, and NonFiniteResult if the evaluation produces a
    non-finite number.  This is the one-point view of
    ``maxima_density_batch``.
    """
    return float(maxima_density_batch(model, [float(x)], u)[0])


def density_split(
    model: PolynomialModel,
    x: float,
    u: float,
    *,
    s_convention: str = "conditional",
) -> tuple[float, float]:
    """Diagnostic two-term form of the density at a finite level.

    Returns ``(base_term, correction_term)`` where the base term uses only the
    level through ``erf(u sqrt(L))`` and the correction term carries the
    exponentially damped factor.  Their sum equals ``maxima_density`` when
    ``s_convention="conditional"`` (rate constant ``S = K - M^2 / L``).  The
    alternative ``s_convention="combined"`` uses ``S = K - M^2 / (4 L)``,
    which rescales the base amplitude and is kept for cross-checking only.

    This diagnostic works with plain float64 quadratic-form coefficients and
    composes ``erf(.) + 1``, which loses accuracy deep in the lower tail
    (``u * sqrt(L) << -1``) where the production ``erfc`` form stays exact.
    It is intended for moderate degrees, locations and levels; the production
    path is ``maxima_density``.
    """
    if u in (math.inf, -math.inf):
        raise ValueError("density_split requires a finite level u")
    mom = moments(model, x)
    k, l, m = mom.k, mom.l, mom.m
    if s_convention == "conditional":
        s = k - m * m / l
    elif s_convention == "combined":
        s = k - m * m / (4.0 * l)
    else:
        raise ValueError(f"unknown s_convention: {s_convention!r}")
    # amplitude 1 / (2 S sqrt(2 L det)) evaluated in scaled arithmetic
    det = mom.det_sigma
    amp = (
        ScaledValue.from_float(1.0)
        / (
            ScaledValue.from_float(2.0 * s)
            * (ScaledValue.from_float(2.0 * l) * det).sqrt()
        )
    ).to_float()
    base = amp / _FOUR_PI * (math.erf(u * math.sqrt(l)) + 1.0)
    ratio = abs(m) / math.sqrt(l * k)
    arg = u * m / math.sqrt(k)
    rate = -l * s * u * u / k
    sign = 1.0 if m >= 0.0 else -1.0
    correction = -sign * amp / _FOUR_PI * ratio * (math.erf(arg) + 1.0) * math.exp(rate)
    return base, correction
