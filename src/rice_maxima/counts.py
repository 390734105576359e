"""Expected number of local maxima below a level on an x-interval.

``expected_count`` integrates the pointwise density over a (possibly
unbounded) interval.  The integration domain is cut at

    -1 - delta,  -1 + delta,  0,  1 - delta,  1 + delta

with ``delta = clamp(10 / n, 1e-6, 0.5)``, because the density concentrates
in O(1/n) neighbourhoods of |x| = 1 and changes character across x = 0 (for
degree-n polynomials the critical points cluster near the unit circle).
Outside the two layer strips, each region is integrated in a stretched
variable t that resolves the natural scale:

    x > 1 + delta   : x = 1 + t/n            (dx = dt / n)
    x < -1 - delta  : x = -1 - t/n           (dx = -dt / n)
    0 < x < 1-delta : x = n / (n + t)        (dx = -n dt / (n + t)^2)
    -1+delta < x < 0: x = -n / (n + t)       (dx = n dt / (n + t)^2)

so every semi-infinite sub-integral becomes a decaying integral in t on
[t0, infinity).  The two layer strips are integrated directly in x.  The
split at x = 0 keeps the (generically) singular point out of every panel
interior; quadrature nodes are open, so the density is never evaluated at a
split point itself.

Every integrand is an array function: the quadrature hands it the 15 nodes
of a Gauss-Kronrod panel, and the substitution maps them to x and calls
``maxima_density_batch`` once for the whole panel, so the moments of a panel
come from one batched evaluation (in row chunks that bound its memory; see
``moments``).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Any

import numpy as np

from .density import maxima_density_batch
from .errors import ToleranceNotMet
from .model import PolynomialModel
from .quadrature import (
    Integrand,
    QuadResult,
    integrate_adaptive,
    integrate_to_infinity,
)

__all__ = ["CountQuery", "NumericResult", "expected_count", "split_points"]

_ABS_FLOOR = 1e-16
# Evaluability limits of the density along the real line: beyond |x| ~ 1e11
# the three basis directions collapse within float64 resolution, and inside
# |x| ~ 1e-12 a model without constant term approaches its structural
# degeneracy at the origin.  The substituted semi-infinite integrals stop
# well before those walls; the remaining mass enters through the analytic
# 1/t^2 tail estimate, and a truncation the tolerance cannot absorb
# surfaces as ToleranceNotMet rather than a degenerate-covariance crash.
_X_CAP = 1e10
_X_FLOOR = 1e-10


@dataclass(frozen=True)
class CountQuery:
    """Interval and level for an expected-count computation.

    ``lo``/``hi`` delimit the x-interval (either may be infinite) and ``u``
    is the level below which a local maximum is counted (``inf`` counts all
    local maxima, ``-inf`` none).
    """

    lo: float
    hi: float
    u: float

    def __post_init__(self) -> None:
        for name in ("lo", "hi", "u"):
            value = getattr(self, name)
            if math.isnan(value):
                raise ValueError(f"{name} must not be NaN")
        if not self.lo < self.hi:
            raise ValueError(
                f"empty interval: lo={self.lo!r} must be less than hi={self.hi!r}"
            )


@dataclass(frozen=True)
class NumericResult:
    """A numeric value with an absolute-error estimate and provenance tag."""

    value: float
    abs_error: float
    method: str
    metadata: dict[str, Any] = field(default_factory=dict)


def split_points(degree: int) -> tuple[float, ...]:
    """Interior cut points used for the interval decomposition."""
    delta = min(0.5, max(10.0 / degree, 1e-6))
    return (-1.0 - delta, -1.0 + delta, 0.0, 1.0 - delta, 1.0 + delta)


def _piece(
    model: PolynomialModel,
    u: float,
    kind: str,
    lo: float,
    hi: float,
    rel_tol: float,
) -> QuadResult:
    n = model.degree
    f = lambda x: maxima_density_batch(model, x, u)  # noqa: E731

    def finite(g: Integrand, a: float, b: float) -> QuadResult:
        return integrate_adaptive(
            g, a, b, rel_tol=rel_tol, abs_tol=_ABS_FLOOR, max_panels=1600
        )

    def infinite(g: Integrand, t0: float, t_max: float) -> QuadResult:
        # On every semi-infinite piece the substituted integrand decays like
        # A/t^2 (the density falls off as 1/x^2 in the tails and tends to a
        # constant towards the origin), so the mass beyond T is g(T) * T.
        return integrate_to_infinity(
            g,
            t0,
            rel_tol=rel_tol,
            abs_tol=_ABS_FLOOR,
            first_width=max(1.0, 0.5 * t0),
            t_max=t_max,
            tail=lambda T: float(g(np.array([T]))[0]) * T,
        )

    if kind == "layer":
        return finite(f, lo, hi)
    if kind == "pos_tail":
        g = lambda t: f(1.0 + t / n) / n  # noqa: E731
        t_lo = n * (lo - 1.0)
        if hi == math.inf:
            return infinite(g, t_lo, n * (_X_CAP - 1.0))
        return finite(g, t_lo, n * (hi - 1.0))
    if kind == "neg_tail":
        g = lambda t: f(-1.0 - t / n) / n  # noqa: E731
        t_lo = n * (-1.0 - hi)
        if lo == -math.inf:
            return infinite(g, t_lo, n * (_X_CAP - 1.0))
        return finite(g, t_lo, n * (-1.0 - lo))
    if kind == "pos_unit":
        g = lambda t: f(n / (n + t)) * n / (n + t) ** 2  # noqa: E731
        t_lo = n * (1.0 - hi) / hi
        if lo == 0.0:
            return infinite(g, t_lo, n * (1.0 - _X_FLOOR) / _X_FLOOR)
        return finite(g, t_lo, n * (1.0 - lo) / lo)
    if kind == "neg_unit":
        g = lambda t: f(-n / (n + t)) * n / (n + t) ** 2  # noqa: E731
        t_lo = -n * (1.0 + lo) / lo
        if hi == 0.0:
            return infinite(g, t_lo, n * (1.0 - _X_FLOOR) / _X_FLOOR)
        return finite(g, t_lo, -n * (1.0 + hi) / hi)
    raise AssertionError(f"unknown piece kind {kind!r}")


_KINDS = ("neg_tail", "layer", "neg_unit", "pos_unit", "layer", "pos_tail")


def expected_count(
    model: PolynomialModel,
    query: CountQuery,
    *,
    rel_tol: float = 1e-8,
) -> NumericResult:
    """Expected number of local maxima with value below ``query.u`` on
    ``(query.lo, query.hi)``.

    Raises DegenerateModel when fewer than three coefficients carry noise
    (the value/slope/curvature covariance is then singular everywhere) and
    ToleranceNotMet — with the best available estimate attached — when the
    quadrature budget is exhausted before reaching ``rel_tol``.
    """
    if not 1e-12 <= rel_tol <= 1e-2:
        raise ValueError(f"rel_tol must be in [1e-12, 1e-2], got {rel_tol!r}")
    model.require_rank_for_density()
    meta = {
        "n": model.degree,
        "interval": (query.lo, query.hi),
        "u": query.u,
        "rel_tol": rel_tol,
    }
    if query.u == -math.inf:
        return NumericResult(0.0, 0.0, "exact", meta | {"evaluations": 0})

    cuts = split_points(model.degree)
    edges = [-math.inf, *cuts, math.inf]
    total = QuadResult(0.0, 0.0, 0, True)
    pieces = 0
    for kind, cell_lo, cell_hi in zip(_KINDS, edges[:-1], edges[1:]):
        lo = max(query.lo, cell_lo)
        hi = min(query.hi, cell_hi)
        if lo >= hi:
            continue
        total = total + _piece(model, query.u, kind, lo, hi, rel_tol)
        pieces += 1
    meta |= {"evaluations": total.evaluations, "pieces": pieces}
    value = max(total.value, 0.0)
    result = NumericResult(value, total.abs_error, "exact", meta)
    if not total.converged or total.abs_error > max(
        10.0 * _ABS_FLOOR * pieces, 2.0 * rel_tol * max(value, 1.0)
    ):
        raise ToleranceNotMet(
            "quadrature budget exhausted before reaching "
            f"rel_tol={rel_tol:g} (value={value!r}, abs_error={total.abs_error!r})",
            result=result,
        )
    return result
