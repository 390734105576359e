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

All inputs come from ``moments``: sigma_W / B, rho, 1 - rho^2 and ln sigma_U,
which enters only the level ratio, q = sign(u) exp(ln|u| - ln sigma_U).  The
evaluation so stays finite for degrees and locations where sigma_U (~ x^n far
out) overflows float64, and where it underflows (~ x^2) next to x = 0.

``maxima_density`` takes a float or a 1-D array of points (a round of
quadrature panels) and evaluates them with one ``moments`` call; a float
gives a float.  Only the erfc bracket runs per point, with ``math.erfc``.
"""

from __future__ import annotations

import math
from math import erfc, exp, expm1

import numpy as np

from .errors import NonFiniteResult
from .model import PolynomialModel, require_real
from .moments import moments

__all__ = ["maxima_density"]

_TWO_PI = 2.0 * math.pi
_FOUR_PI = 4.0 * math.pi
_SQRT_HALF = math.sqrt(0.5)
_SQRT_2_OVER_PI = math.sqrt(2.0 / math.pi)
# 5-point Gauss-Legendre rule on [-1, 1]: nodes 0, +-T1, +-T2, weights W0, W1, W2
_T1, _W1 = 0.538469310105683091036314420700208, 0.478628670499366468041291514835639
_T2, _W2 = 0.906179845938663992797626878299393, 0.236926885056189087514264040719918
_W0 = 0.568888888888888888888888888888889


def _bracket(q: float, rho: float, one_minus_rho_sq: float) -> float:
    """erfc(-q g) + rho exp(-q^2/2) erfc(rho q g), clipped to [0, 2].

    For rho < 0 and a = q / s >= -1 (s^2 = 1 - rho^2, c = -rho) the terms
    cancel as rho -> -1, so there it is summed as 2 [Phi(a) - Phi(c a)]
    + 2 Phi(c a) [s^2 / (1 + c) - c expm1(-q^2/2)], the difference by
    Gauss-Legendre on a narrow interval; s = 0 (rho = -1) is the limit.
    """
    if q == math.inf:
        return 2.0
    if q == -math.inf:
        return 0.0
    s = math.sqrt(one_minus_rho_sq)
    if rho < 0.0 and (q >= -s or s == 0.0):
        c = -rho
        a = q / s if s else math.copysign(math.inf, q)
        one_minus_c = one_minus_rho_sq / (1.0 + c)
        half = 0.5 * one_minus_c * a  # half the width of (c a, a); half * a >= 0
        two_phi_ca = erfc(-c * a * _SQRT_HALF)
        if -0.025 <= half <= 0.025 and half * a <= 0.025:
            mid, h1, h2 = a - half, half * _T1, half * _T2
            pair1 = exp(-0.5 * (mid - h1) ** 2) + exp(-0.5 * (mid + h1) ** 2)
            pair2 = exp(-0.5 * (mid - h2) ** 2) + exp(-0.5 * (mid + h2) ** 2)
            mass = _W0 * exp(-0.5 * mid * mid) + _W1 * pair1 + _W2 * pair2
            mass *= _SQRT_2_OVER_PI * half
        else:
            mass = erfc(-a * _SQRT_HALF) - two_phi_ca
        bracket = mass + two_phi_ca * (one_minus_c - c * expm1(-0.5 * q * q))
    else:
        g = 1.0 / math.sqrt(2.0 * one_minus_rho_sq)
        bracket = erfc(-q * g) + rho * exp(-0.5 * q * q) * erfc(rho * q * g)
    # the bracket is twice a probability (2 at q = inf); clip rounding noise
    return 0.0 if bracket < 0.0 else min(bracket, 2.0)


def maxima_density(model: PolynomialModel, x, u: float) -> float | np.ndarray:
    """Density (per unit x) of local maxima with polynomial value below u,
    at ``x``, a float or a 1-D array of points (a float gives a float).

    ``u`` may be ``inf`` (count every local maximum) or ``-inf`` (zero).
    Raises ``ValueError`` unless ``u`` is a real number (a bool is not)
    other than NaN, DegenerateModel when fewer than three increments carry noise,
    DegenerateCovariance when the value/slope/curvature covariance at a
    point is singular, and NonFiniteResult if the evaluation produces a
    non-finite number; either error names the first failing point of ``x``.
    """
    u = require_real("u", u)
    rows = moments(model, x)
    swb = rows.sigma_w_over_b
    if u == math.inf:
        values = swb / _TWO_PI
    elif u == -math.inf:
        values = np.zeros_like(swb)
    else:
        log_u = math.log(abs(u)) if u != 0.0 else -math.inf
        with np.errstate(over="ignore"):  # q = +-inf past the float range
            q = np.copysign(np.exp(log_u - rows.log_sigma_u), u)
        rho, omr = rows.rho, rows.one_minus_rho_sq
        brackets = list(map(_bracket, q.tolist(), rho.tolist(), omr.tolist()))
        values = swb / _FOUR_PI * np.array(brackets)
    finite = np.isfinite(values)
    if not finite.all():
        at = float(np.ravel(x)[np.argmin(finite)])
        raise NonFiniteResult(f"density evaluation at x={at!r}, u={u!r} is not finite")
    return float(values[0]) if np.ndim(x) == 0 else values
