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
and needs bisecting.

Inside the innermost rungs the profile is not 1/t, and on the ladder alone
the default rel_tol = 1e-8 still bisects the same five panels at every
degree from 10^2 to 10^5.  In the layer coordinate t = n(|x| - 1) they are
[-10, 0], its half [-5, 0], [-30, -10] and [0, 10] beside -1, and [-10, 0]
beside +1: near |x| = 1 the density, over n, is close to a function of t
alone, since the layers have width O(1/n) (Edelman and Kostlan 1995).
``split_points`` cuts those panels where bisection would, at t = -2.5, -5,
-20 and 5 beside -1 and t = -5 beside +1: a cut costs one panel, 15
evaluations, where bisection evaluates the parent and then 30 more.
Whole-line evaluations at u = 1 and rel_tol = 1e-8 fall from 420, 540, 660
and 780 to 345, 465, 585 and 705 at n = 10^2, 10^3, 10^4 and 10^5, and no
panel within 30/n of +-1 is bisected there or at u = inf.  On the ladder
alone, ratio 3 took 540 and 660 at n = 10^3 and 10^4, against 600 and 780
for ratio 2, 600 and 810 for ratio 4, and 960 and 1350 with one layer cut
on either side of +-1.  The cuts at t = -20 and 5 beside -1 need a second rung of a
full 3 delta_0 < 1/2: at n = 30 the one at t = 5 raised two counts at
rel_tol = 1e-10.  The cost is at loose tolerances, where not all of these
panels would be bisected: over the five canonical intervals at seven levels
and n from 30 to 10^5, summed evaluations fall 8-17% a degree at rel_tol =
1e-8 and 5-10% at 1e-10, but rise 5-7% a degree from n = 10^2 to 10^5 at
1e-6, and 12-21% at 1e-4.

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
from .model import PolynomialModel, require_real
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
    local maxima, ``-inf`` none).  Each is stored as a float; raises
    ``ValueError`` unless all three are real numbers (a bool is not), none
    NaN, and lo < hi.
    """

    lo: float
    hi: float
    u: float

    def __post_init__(self) -> None:
        for name in ("lo", "hi", "u"):
            object.__setattr__(self, name, require_real(name, getattr(self, name)))
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
    """Cut points around the unit layers and the origin, in x.

    The ladder is 0 and +-1 +- delta_k for the widths delta_0 =
    min(1/2, max(10/n, 1e-6)), delta_{k+1} = min(1/2, 3 delta_k), up to and
    including 1/2.  Where delta_0 < 1/2, the panels that bisection would
    split at rel_tol = 1e-8 (module docstring) are cut as well: at
    -1 + delta_0 / 4, -1 + delta_0 / 2 and 1 - delta_0 / 2, and, where the
    next rung is a full 3 delta_0 < 1/2, at -1 + 2 delta_0 and
    -1 - delta_0 / 2.  At delta_0 = 10/n these sit at the same
    t = n(|x| - 1) for every n: -2.5, -5, -5, -20 and 5.
    """
    deltas = [min(0.5, max(10.0 / degree, 1e-6))]
    while deltas[-1] < 0.5:
        deltas.append(min(0.5, 3.0 * deltas[-1]))
    right = [1.0 - d for d in reversed(deltas)] + [1.0 + d for d in deltas]
    cuts = [*(-c for c in reversed(right)), 0.0, *right]
    d = deltas[0]
    if d < 0.5:
        cuts += [-1.0 + 0.25 * d, -1.0 + 0.5 * d, 1.0 - 0.5 * d]
    if 3.0 * d < 0.5:
        cuts += [-1.0 - 0.5 * d, -1.0 + 2.0 * d]
    return tuple(sorted(cuts))


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
    DegenerateCovariance if a node lands where the covariance lost rank;
    ``ValueError`` unless ``rel_tol`` is a real number in [1e-12, 1e-2].
    """
    rel_tol = require_real("rel_tol", rel_tol)
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
