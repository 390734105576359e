"""Expected number of local maxima below a level on an x-interval.

``expected_count`` integrates the pointwise density f(x) over a (possibly
unbounded) interval as one adaptive integral.  ``integrate_adaptive`` maps
the x-range onto its compact coordinate s in [-2, 2], where x = +-inf sits
at s = +-2; the density decays like 1/x^2 in the tails, so the mapped
integrand stays finite there.

The edges are the query ends and the points of ``split_points(n)`` strictly
inside the query: the density concentrates in O(1/n) neighbourhoods of
|x| = 1 and changes character across x = 0.  Quadrature nodes are open, so
the density is never evaluated at a cut or at x = 0 itself.  All panels
share one error heap, so the budget ``_MAX_PANELS`` and the tolerance apply
to the whole integral: a tail that carries little mass is refined only as
far as the total error needs.

The integrand is an array function: the quadrature hands it the 15 x-nodes
of a Gauss-Kronrod panel, which go to ``maxima_density_batch`` in one call,
so the moments of a panel come from one batched evaluation (in row chunks
that bound its memory; see ``moments``).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Any

import numpy as np

from .density import maxima_density_batch
from .errors import ToleranceNotMet
from .model import PolynomialModel
from .quadrature import integrate_adaptive

__all__ = ["CountQuery", "NumericResult", "expected_count", "split_points"]

_ABS_FLOOR = 1e-16
# Panels of the one integral.  The hardest query measured (rel_tol = 1e-12,
# whole line, n = 10^4) converged with 148.
_MAX_PANELS = 1000


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
    """Cut points around the unit layers and the origin, in x."""
    delta = min(0.5, max(10.0 / degree, 1e-6))
    return (-1.0 - delta, -1.0 + delta, 0.0, 1.0 - delta, 1.0 + delta)


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

    def density(x: np.ndarray) -> np.ndarray:
        return maxima_density_batch(model, x, query.u)

    inside = [c for c in split_points(model.degree) if query.lo < c < query.hi]
    total = integrate_adaptive(
        density,
        [query.lo, *inside, query.hi],
        rel_tol=rel_tol,
        abs_tol=_ABS_FLOOR,
        max_panels=_MAX_PANELS,
    )
    meta |= {"evaluations": total.evaluations, "pieces": total.pieces}
    value = max(total.value, 0.0)
    abs_error = total.abs_error
    result = NumericResult(value, abs_error, "exact", meta)
    if not total.converged:
        raise ToleranceNotMet(
            "quadrature budget exhausted before reaching "
            f"rel_tol={rel_tol:g} (value={value!r}, abs_error={abs_error!r})",
            result=result,
        )
    return result
