"""Deterministic adaptive quadrature used by the exact counting engine.

Two entry points:

* ``integrate_adaptive`` — finite range given as initial panel edges,
  Gauss-Kronrod 7/15 pair (QUADPACK ``qk15``, Piessens et al. 1983) with
  priority-driven bisection.  The 15 Kronrod nodes of a panel contain the 7
  Gauss nodes, so a panel costs 15 evaluations, and its error estimate is
  the difference of the two rules.  Every segment between consecutive
  edges starts as one panel, so a caller puts an edge on every kink or
  change of character of the integrand; after that, the panel with the
  largest error estimate is split until the summed estimate meets the
  tolerance or the panel budget runs out.
* ``integrate_to_infinity`` — semi-infinite interval, covered by blocks of
  fixed geometry: the first is one unit wide, each next one twice as wide,
  at most 80 blocks of at most 400 panels each, every block integrated
  adaptively.  Truncation stops once two consecutive blocks contribute
  below threshold; the remaining tail enters the result either through a
  caller-supplied analytic estimate or through a geometric bound folded
  into the error.  Only the expansion tier uses it: ``counts`` maps the
  real line onto a finite range instead.

Integrands are array-in/array-out: ``f`` receives the 15 nodes of a panel
as one float64 array and returns their values as an array of the same
shape, so an integrand can evaluate a whole panel in one vectorised call.

Results are bit-reproducible: panels are refined in a deterministic order
and the final value is accumulated left to right.
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

__all__ = [
    "Integrand",
    "QuadResult",
    "integrate_adaptive",
    "integrate_to_infinity",
]

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

# block geometry of ``integrate_to_infinity``
_FIRST_WIDTH = 1.0
_GROWTH = 2.0
_MAX_BLOCKS = 80
_MAX_PANELS_PER_BLOCK = 400


@dataclass(frozen=True)
class QuadResult:
    """Value and error estimate of a numerical integral."""

    value: float
    abs_error: float
    evaluations: int
    converged: bool


_ZERO = QuadResult(0.0, 0.0, 0, True)

# maps the nodes of a panel (a float64 array) to the integrand values there
Integrand = Callable[[np.ndarray], np.ndarray]


def _panel(f: Integrand, a: float, b: float) -> tuple[float, float]:
    """Kronrod-15 and embedded Gauss-7 estimates of the integral over [a, b]."""
    mid = 0.5 * (a + b)
    half = 0.5 * (b - a)
    values = f(mid + half * KRONROD_NODES)
    hi = float(KRONROD_WEIGHTS @ values)
    lo = float(GAUSS_WEIGHTS @ values[1::2])
    return half * hi, half * lo


def integrate_adaptive(
    f: Integrand,
    edges: Sequence[float] | np.ndarray,
    *,
    rel_tol: float,
    abs_tol: float = 0.0,
    max_panels: int = 800,
) -> QuadResult:
    """Integrate the array integrand ``f`` from ``edges[0]`` to ``edges[-1]``.

    ``edges`` are finite, increasing panel boundaries; each segment between
    two of them is one initial panel.  A range with ``edges[-1] <=
    edges[0]`` integrates to zero.  Gauss-Kronrod nodes are interior, so
    ``f`` is never evaluated at an edge; integrable endpoint behaviour must
    be handled by the caller (for example by substitution).
    """
    edges = np.asarray(edges, dtype=float)
    if not np.all(np.isfinite(edges)):
        raise ValueError("integrate_adaptive needs finite edges")
    if edges[-1] <= edges[0]:
        return _ZERO
    if np.any(np.diff(edges) <= 0.0):
        raise ValueError("integrate_adaptive needs increasing edges")
    heap: list[tuple[float, int, float, float, float, float]] = []
    seq = 0
    evals = 0
    total = 0.0
    for left, right in zip(edges[:-1], edges[1:]):
        hi, lo = _panel(f, left, right)
        evals += PANEL_EVALUATIONS
        total += hi
        heapq.heappush(heap, (-abs(hi - lo), seq, left, right, hi, lo))
        seq += 1
    panels = len(heap)
    while True:
        error = sum(-item[0] for item in heap)
        if error <= max(abs_tol, rel_tol * abs(total)):
            converged = True
            break
        if panels >= max_panels:
            converged = False
            break
        _, _, left, right, hi, _ = heapq.heappop(heap)
        mid = 0.5 * (left + right)
        hi1, lo1 = _panel(f, left, mid)
        hi2, lo2 = _panel(f, mid, right)
        evals += 2 * PANEL_EVALUATIONS
        total += hi1 + hi2 - hi
        heapq.heappush(heap, (-abs(hi1 - lo1), seq, left, mid, hi1, lo1))
        seq += 1
        heapq.heappush(heap, (-abs(hi2 - lo2), seq, mid, right, hi2, lo2))
        seq += 1
        panels += 1
    final = sorted(heap, key=lambda item: item[2])
    value = 0.0
    error = 0.0
    for item in final:
        value += item[4]
        error += -item[0]
    return QuadResult(value, error, evals, converged)


def integrate_to_infinity(
    f: Integrand,
    t0: float,
    *,
    rel_tol: float,
    abs_tol: float = 0.0,
    tail: Callable[[float], float] | None = None,
) -> QuadResult:
    """Integrate the array integrand ``f`` over [t0, infinity).

    ``tail(T)`` should return an estimate (a float) of the integral from T
    to infinity; when provided it is added to the value (with a tenth of its
    magnitude charged to the error budget).  Without it, the truncated tail
    is bounded geometrically from the decay of the last blocks and charged
    entirely to the error.
    """
    value = 0.0
    error = 0.0
    evals = 0
    converged = True
    left = t0
    width = _FIRST_WIDTH
    history: list[float] = []
    quiet = 0
    for _ in range(_MAX_BLOCKS):
        right = left + width
        block = integrate_adaptive(
            f,
            np.linspace(left, right, 3),
            rel_tol=rel_tol,
            abs_tol=max(abs_tol, rel_tol * abs(value)) * 0.25,
            max_panels=_MAX_PANELS_PER_BLOCK,
        )
        value += block.value
        error += block.abs_error
        evals += block.evaluations
        converged = converged and block.converged
        history.append(abs(block.value))
        threshold = max(abs_tol, rel_tol * abs(value)) * 0.5
        if abs(block.value) <= threshold:
            quiet += 1
            if quiet >= 2:
                left = right
                break
        else:
            quiet = 0
        left = right
        width *= _GROWTH
    else:
        converged = False
    cutoff = left
    if tail is not None:
        tail_value = tail(cutoff)
        value += tail_value
        error += 0.1 * abs(tail_value)
    elif len(history) >= 2 and history[-2] > 0.0:
        ratio = history[-1] / history[-2]
        if ratio < 0.9:
            error += history[-1] * ratio / (1.0 - ratio)
        else:
            converged = False
    return QuadResult(value, error, evals, converged)

