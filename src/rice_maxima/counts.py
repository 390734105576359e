"""Expected number of local maxima below a level on an x-interval.

``expected_count`` integrates the pointwise density f(x) over a (possibly
unbounded) interval as one adaptive integral.  ``integrate_adaptive`` maps
the x-range onto its compact coordinate s in [-2, 2], where x = +-inf sits
at s = +-2; the density decays like 1/x^2 in the tails, so the mapped
integrand stays finite there.

The edges are the query ends and the points of ``split_points(n)`` strictly
inside the query.  Quadrature nodes are open, so the density is never
evaluated at a cut or at x = 0 itself.  All panels share one error heap, so
the budget ``_MAX_PANELS`` and the tolerance apply to the whole integral: a
tail that carries little mass is refined only as far as the total error
needs.

The density changes character across x = 0 and concentrates in O(1/n)
neighbourhoods of |x| = 1; between 1/n and 1/2 of |x| = 1 it falls off like
1/(1 - |x|), the stretch that gives the count its ln n term.  The cuts are
graded geometrically toward both unit layers, as QUADPACK advises for a
known endpoint singularity (Piessens et al. 1983): widths 10/n, 30/n,
90/n, ... up to 1/2 on either side of -1 and +1, so each initial panel
spans a factor 3 of that profile.  Otherwise bisection has to find the
profile level by level, evaluating and discarding a parent panel at each.
The ratio is 3 because one Gauss-Kronrod panel of 1/t over [1, 3] already
has an error estimate of 1.4e-8 of its value, while over [1, 4] it is 3e-7
and needs bisecting.  Measured on the whole line at u = 1, rel_tol = 1e-8,
ratio 3 takes 540 and 660 evaluations at n = 10^3 and 10^4, against 600
and 780 for ratio 2, 600 and 810 for ratio 4, and 960 and 1350 with one
layer cut on either side of +-1.

The integrand is an array function: the quadrature hands it the x-nodes of
a whole round of Gauss-Kronrod panels (every initial panel, or both halves
of a bisection), which go to ``maxima_density`` in one call, so the
moments of a round come from one ``moments`` call (in row chunks that bound
its memory).  A point's density does not depend on the other points of the
call, so the grouping does not change the result.

Counts on one model at several levels, or on nested intervals, share their
initial panels and so their nodes: the edges depend only on n and the
query ends, and the moments rows do not depend on u.  The model keeps the
rows it has computed (``moments``, Reuse), so such counts compute each
shared node once, with results bit-identical to counts on a fresh model.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Any

from .density import maxima_density
from .errors import ToleranceNotMet
from .model import PolynomialModel
from .quadrature import integrate_adaptive

__all__ = ["CountQuery", "NumericResult", "expected_count", "split_points"]

_ABS_FLOOR = 1e-16
# Panels of the one integral.  The hardest query measured (rel_tol = 1e-12,
# whole line, n = 10^4, u = inf) converged with 79, 32 of them initial.
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
    """Cut points around the unit layers and the origin, in x: 0 and
    +-1 +- delta_k for the widths delta_0 = min(1/2, max(10/n, 1e-6)),
    delta_{k+1} = min(1/2, 3 delta_k), up to and including 1/2."""
    deltas = [min(0.5, max(10.0 / degree, 1e-6))]
    while deltas[-1] < 0.5:
        deltas.append(min(0.5, 3.0 * deltas[-1]))
    right = [1.0 - d for d in reversed(deltas)] + [1.0 + d for d in deltas]
    return (*(-c for c in reversed(right)), 0.0, *right)


def expected_count(
    model: PolynomialModel,
    query: CountQuery,
    *,
    rel_tol: float = 1e-8,
) -> NumericResult:
    """Expected number of local maxima with value below ``query.u`` on
    ``(query.lo, query.hi)``.

    Raises DegenerateModel when fewer than three coefficients carry noise
    (the value/slope/curvature covariance is then singular everywhere),
    ToleranceNotMet — with the best available estimate attached — when the
    quadrature budget is exhausted before reaching ``rel_tol``, and
    DegenerateCovariance if a node lands where the covariance lost rank.
    """
    if not 1e-12 <= rel_tol <= 1e-2:
        raise ValueError(f"rel_tol must be in [1e-12, 1e-2], got {rel_tol!r}")
    # ``moments`` checks the rank too; u = -inf below evaluates no density
    model.require_rank_for_density()
    meta = {
        "n": model.degree,
        "interval": (query.lo, query.hi),
        "u": query.u,
        "rel_tol": rel_tol,
    }
    if query.u == -math.inf:
        return NumericResult(0.0, 0.0, "exact", meta | {"evaluations": 0})

    inside = [c for c in split_points(model.degree) if query.lo < c < query.hi]
    total = integrate_adaptive(
        lambda x: maxima_density(model, x, query.u),
        [query.lo, *inside, query.hi],
        rel_tol=rel_tol,
        abs_tol=_ABS_FLOOR,
        max_panels=_MAX_PANELS,
    )
    meta |= {
        "evaluations": total.evaluations,
        "pieces": total.pieces,
        "panels": total.panels,
    }
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
