"""Deterministic adaptive quadrature for both evaluation tiers.

``integrate_adaptive`` integrates an array integrand between x-edges, either
end of which may be infinite, as one finite integral in the compact
coordinate s in [-2, 2]:

    s = x                    for |x| <= 1,
    s = 2 sign(x) - 1/x      for |x| > 1,

so x = +-inf maps to s = +-2, and the integrand becomes f(x(s)) dx/ds with
dx/ds = 1 inside [-1, 1] and x^2 beyond.  An integrand that decays like
1/x^2 or faster stays finite as s -> +-2.  Finite and infinite ranges take
the same path; s = +-1, where dx/ds has a kink, is added as an edge when it
lies strictly inside the range.

The rule is the Gauss-Kronrod 7/15 pair (QUADPACK ``qk15``, Piessens et
al. 1983) with priority-driven bisection.  The 15 Kronrod nodes of a panel
contain the 7 Gauss nodes, so a panel costs 15 evaluations, and its error
estimate is the difference of the two rules.  Every segment between
consecutive s-edges starts as one panel, so a caller puts an edge on every
kink or change of character of the integrand; after that, the panel with
the largest error estimate is split until the summed estimate meets the
tolerance, the panel budget runs out, or the worst panel is too narrow for
the nodes of its halves to stay off their ends (the last two are reported
as unconverged).

Integrands are array-in/array-out.  ``f`` receives the x-nodes of one round
as one float64 array, panel after panel, 15 nodes each: all initial panels
in one call, then both halves of each bisection in one call.  It returns
their values as an array of the same shape.  The value at a node must not
depend on the other nodes of the call; each panel's Kronrod and Gauss sums
are then formed from its own 15 values exactly as for a lone panel, so the
result does not depend on how panels are grouped into calls.

Results are bit-reproducible: panels are refined in a deterministic order
and the final value is accumulated left to right.
"""

from __future__ import annotations

import heapq
import math
from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

__all__ = ["Integrand", "QuadResult", "integrate_adaptive"]

# QUADPACK qk15: the nonnegative Kronrod abscissae (every second one, from
# 0.949..., is a 7-point Gauss node), their Kronrod weights, and the Gauss
# weights of the nodes 0.949..., 0.741..., 0.405... and 0.
_XGK = (
    0.991455371120812639206854697526329,
    0.949107912342758524526189684047851,
    0.864864423359769072789712788640926,
    0.741531185599394439863864773280788,
    0.586087235467691130294144845693013,
    0.405845151377397166906606412076961,
    0.207784955007898467600689403773245,
    0.0,
)
_WGK = (
    0.022935322010529224963732008058970,
    0.063092092629978553290700663189204,
    0.104790010322250183839876322541518,
    0.140653259715525918745189590510238,
    0.169004726639267902826583426598550,
    0.190350578064785409913256402421014,
    0.204432940075298892414161999234649,
    0.209482141084727828012999174891714,
)
_WG = (
    0.129484966168869693270611432679082,
    0.279705391489276667901467771423780,
    0.381830050505118944950369775488975,
    0.417959183673469387755102040816327,
)
# The 15 nodes on [-1, 1] in ascending order; the Gauss nodes sit at the odd
# positions, so ``values[1::2]`` feeds the embedded 7-point rule.
KRONROD_NODES = np.array([-v for v in _XGK[:-1]] + list(_XGK[::-1]))
KRONROD_WEIGHTS = np.array(_WGK[:-1] + _WGK[::-1])
GAUSS_WEIGHTS = np.array(_WG[:-1] + _WG[::-1])
PANEL_EVALUATIONS = len(KRONROD_NODES)


@dataclass(frozen=True)
class QuadResult:
    """Value and error estimate of a numerical integral.

    ``pieces`` is the number of initial panels: the segments between the
    distinct s-edges of the range; ``panels`` is the number of panels when
    refinement stopped, so ``panels - pieces`` bisections were made.
    """

    value: float
    abs_error: float
    evaluations: int
    converged: bool
    pieces: int = 0
    panels: int = 0


_ZERO = QuadResult(0.0, 0.0, 0, True)

# maps the nodes of a round of panels (a float64 array) to the integrand
# values there, node by node
Integrand = Callable[[np.ndarray], np.ndarray]


def _compact(x: float) -> float:
    """The compact coordinate s of x (x = +-inf maps to s = +-2)."""
    if abs(x) <= 1.0:
        return x
    return math.copysign(2.0, x) - 1.0 / x


def _panels(
    f: Integrand, spans: Sequence[tuple[float, float]]
) -> list[tuple[float, float]]:
    """Kronrod-15 and embedded Gauss-7 estimates of the integral over each
    span [a, b], from one call of ``f`` on the nodes of every span."""
    ends = np.array(spans, dtype=float)
    mid = 0.5 * (ends[:, 0] + ends[:, 1])
    half = 0.5 * (ends[:, 1] - ends[:, 0])
    nodes = mid[:, None] + half[:, None] * KRONROD_NODES
    values = np.reshape(f(nodes.ravel()), nodes.shape)
    # one 15-vector product per panel, as for a lone panel: a (k, 15)
    # matrix product may sum in another order
    kronrod = half * np.vecdot(values, KRONROD_WEIGHTS)
    gauss = half * np.vecdot(values[:, 1::2], GAUSS_WEIGHTS)
    return list(zip(kronrod.tolist(), gauss.tolist()))


def _open(a: float, b: float) -> bool:
    """Whether every node of the panel [a, b] lies strictly inside it."""
    mid = 0.5 * (a + b)
    half = 0.5 * (b - a)
    return a < mid + half * KRONROD_NODES[0] and mid + half * KRONROD_NODES[-1] < b


def integrate_adaptive(
    f: Integrand,
    edges: Sequence[float] | np.ndarray,
    *,
    rel_tol: float,
    abs_tol: float = 0.0,
    max_panels: int = 800,
) -> QuadResult:
    """Integrate the array integrand ``f`` from ``edges[0]`` to ``edges[-1]``.

    ``edges`` are increasing x-values, either end of which may be infinite;
    they and x = +-1 (when strictly inside) become s-edges, and each
    segment between two distinct s-edges is one initial panel.  A range
    with ``edges[-1] <= edges[0]`` integrates to zero.  Gauss-Kronrod nodes
    are interior, so ``f`` is never evaluated at an edge; integrable
    endpoint behaviour must be handled by the caller (for example by
    substitution).
    """
    edges = np.asarray(edges, dtype=float)
    if np.any(np.isnan(edges)):
        raise ValueError("integrate_adaptive needs edges that are not NaN")
    if edges[-1] <= edges[0]:
        return _ZERO
    if not np.all(edges[1:] > edges[:-1]):
        raise ValueError("integrate_adaptive needs increasing edges")
    kinks = [x for x in (-1.0, 1.0) if edges[0] < x < edges[-1]]
    # neighbouring floats beyond |x| = 1 can share one s: keep each s once
    s_edges = sorted({_compact(float(x)) for x in (*edges, *kinks)})
    if len(s_edges) < 2:
        return _ZERO

    def h(s: np.ndarray) -> np.ndarray:
        outer = np.abs(s) > 1.0
        x = np.where(outer, np.sign(s) / (2.0 - np.abs(s)), s)
        return f(x) * np.where(outer, x * x, 1.0)

    heap: list[tuple[float, int, float, float, float, float]] = []
    seq = 0
    total = 0.0
    spans = list(zip(s_edges[:-1], s_edges[1:]))
    for (left, right), (hi, lo) in zip(spans, _panels(h, spans)):
        total += hi
        heapq.heappush(heap, (-abs(hi - lo), seq, left, right, hi, lo))
        seq += 1
    evals = len(spans) * PANEL_EVALUATIONS
    panels = len(heap)
    while True:
        error = sum(-item[0] for item in heap)
        if error <= max(abs_tol, rel_tol * abs(total)) and error < math.inf:
            converged = True
            break
        _, _, left, right, hi, _ = heap[0]
        mid = 0.5 * (left + right)
        if panels >= max_panels or not (_open(left, mid) and _open(mid, right)):
            converged = False
            break
        heapq.heappop(heap)
        (hi1, lo1), (hi2, lo2) = _panels(h, [(left, mid), (mid, right)])
        evals += 2 * PANEL_EVALUATIONS
        total += hi1 + hi2 - hi
        heapq.heappush(heap, (-abs(hi1 - lo1), seq, left, mid, hi1, lo1))
        seq += 1
        heapq.heappush(heap, (-abs(hi2 - lo2), seq, mid, right, hi2, lo2))
        seq += 1
        panels += 1
        if not math.isfinite(total):
            # inf - inf once an infinite panel is split: sum afresh
            total = sum(item[4] for item in heap)
    final = sorted(heap, key=lambda item: item[2])
    value = 0.0
    error = 0.0
    for item in final:
        value += item[4]
        error += -item[0]
    return QuadResult(value, error, evals, converged, len(s_edges) - 1, panels)
