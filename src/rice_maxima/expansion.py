"""Large-degree expansions of the expected maxima count, one per interval.

Each of the four interval families has a two-term expansion in the degree n
(with explicit level dependence):

    pos-tail  (1, +inf) : C1 + U1 * u / (2 (n pi)^{3/2})
    neg-tail  (-inf, -1): C2 + U2 * u / (2 pi sqrt(n pi))
    unit      (0, 1)    : L3 * ln(n^{3/2}/u) + C3 + U3 * u / (2 (n pi)^{3/2})
    neg-unit  (-1, 0)   : L4 * ln(n^{1/2}/u) + C4 + U4 * u / (2 pi sqrt(n pi))

There are two tiers of constants:

* ``h_integral`` / ``kernel_pieces`` integrate the closed-form kernel tables
  of :mod:`.kernels` and assemble (L, C, U) from them.  They exist to
  reproduce the reference constants those tables are known by, and they are
  what ``verify-constants`` checks.  Each integral over t in (0, inf) is
  one ``integrate_adaptive`` call, the same compact-coordinate integral
  the exact engine uses.  The four index sets of a family are integrated
  together on the same initial panels, with one kernel pass per quadrature
  round: ``family_kernels`` gives the four kernels at the round's nodes,
  and each integrand multiplies rows of that array.

* ``theorem_expansion`` uses the frozen constants below, which are the ones
  the exact engine (:func:`rice_maxima.counts.expected_count`) actually
  converges to.  They were obtained by deriving the continuum limit of the
  model's moment functions symbolically, integrating the resulting kernels
  at high precision, and — for the interval-interior constants of the two
  unit families — calibrating against the exact count at the u = 1 anchor
  with Richardson extrapolation in n (degrees up to 64000).  Observed
  agreement with the exact count: families 1/2 to O(n^{-1}); families 3/4
  to O(n^{-1/2}) at the anchor level.

The two tiers disagree because the kernel tables encode a different
conditional-variance convention (S = K - M^2/(4L)) than the one the count
obeys (S = K - M^2/L); the discrepancy reaches a factor ~8.4 on the
family-1 constant.  Both tiers are kept deliberately: the first is a
reference-verification artifact, the second is the working asymptotics.

Validity: the u-linear term assumes levels small against the family's
scale (u = o(n^{3/2}) on the positive side, o(sqrt(n)) on the negative
side).  For families 3/4 the interior constant also carries an O(1)
level dependence beyond the logarithmic law (roughly 0.04-0.13 per
factor two in u); predictions are sharpest near the u = 1 anchor.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache, partial

import numpy as np

from .errors import ToleranceNotMet
from .kernels import TAIL_LAWS, family_kernels
from .model import require_integer
from .quadrature import QuadResult, integrate_adaptive

__all__ = [
    "FAMILY_BOUNDS",
    "FAMILY_INTERVALS",
    "ExpansionResult",
    "h_integral",
    "kernel_pieces",
    "theorem_expansion",
]

FAMILY_INTERVALS = {1: "pos-tail", 2: "neg-tail", 3: "unit", 4: "neg-unit"}

FAMILY_BOUNDS = {
    1: (1.0, math.inf),
    2: (-math.inf, -1.0),
    3: (0.0, 1.0),
    4: (-1.0, 0.0),
}

_ALLOWED_PAIRS = {(1,), (1, 2), (1, 3), (1, 3, 4)}

_NOISE = 4.0 * np.finfo(float).eps

# relative tolerance of every kernel-product integral
_QUAD_REL_TOL = 1e-9

# Initial panel edges in t, at s = 0, 1/4, 1/2, 3/4, 1, 3/2, 2 in the compact
# coordinate of ``integrate_adaptive``; the tail subtraction starts at t = 1.
_EDGES = (0.0, 0.25, 0.5, 0.75, 1.0, 2.0, math.inf)


def _pair_integral(product, family: int, pair: tuple[int, ...]) -> QuadResult:
    """Integral over (0, inf) of the array integrand ``product``, the
    kernel product of ``pair`` in ``family``.

    For families 3 and 4 the product of the pair's kernel tail laws is
    subtracted for t >= 1.  Far out the residual is rounding noise of the
    product, which the t^2 Jacobian of the compact coordinate would
    amplify, so a residual within 4 eps of the law is set to zero.
    """
    if family in (1, 2):
        integrand = product
    else:
        power = sum(TAIL_LAWS[family, i][0] for i in pair)
        constant = math.prod(TAIL_LAWS[family, i][1] for i in pair)

        def integrand(ts: np.ndarray) -> np.ndarray:
            law = np.where(ts > 1.0, constant * ts**power, 0.0)
            residual = product(ts) - law
            return np.where(np.abs(residual) <= _NOISE * np.abs(law), 0.0, residual)

    return integrate_adaptive(integrand, _EDGES, rel_tol=_QUAD_REL_TOL, abs_tol=1e-14)


@lru_cache(maxsize=None)
def _family_integrals(family: int) -> dict[tuple[int, ...], QuadResult]:
    """The integral of every allowed pair of ``family``.

    The four pairs start from the same initial panels and often bisect the
    same ones, and each integrand call is one quadrature round: every
    initial panel, or both halves of one bisection.  The kernels of a round
    are evaluated once, as a (4, nodes) array keyed by the round's node
    bytes until this function returns, so a round another pair already made
    costs no kernel pass; a pair's integrand multiplies rows of it.
    """
    rounds: dict[bytes, np.ndarray] = {}

    def product(pair: tuple[int, ...], ts: np.ndarray) -> np.ndarray:
        key = ts.tobytes()
        rows = rounds.get(key)
        if rows is None:
            rows = rounds[key] = family_kernels(family, ts)
        value = rows[pair[0] - 1]
        for index in pair[1:]:
            value = value * rows[index - 1]
        return value

    return {
        pair: _pair_integral(partial(product, pair), family, pair)
        for pair in sorted(_ALLOWED_PAIRS)
    }


def h_integral(family: int, pair) -> float:
    """Improper integral of a product of same-family kernels over (0, inf).

    ``pair`` selects the kernel indices: (1,), (1,2), (1,3) or (1,3,4).
    For families 3 and 4 the integrand carries the standard tail
    subtraction (active for t >= 1) that makes the integral converge; the
    subtracted mass reappears in the closed-form log terms of the
    expansion.  Raises ToleranceNotMet, with the quadrature result
    attached, when the integral does not reach the relative tolerance
    ``_QUAD_REL_TOL`` = 1e-9.
    """
    if family not in (1, 2, 3, 4):
        raise ValueError(f"family must be 1..4, got {family!r}")
    key = tuple(sorted(set(int(i) for i in pair)))
    if key not in _ALLOWED_PAIRS:
        raise ValueError(f"pair must be one of (1,), (1,2), (1,3), (1,3,4); got {pair!r}")
    result = _family_integrals(family)[key]
    if not result.converged:
        raise ToleranceNotMet(
            f"h_integral{(family, key)} did not reach rel_tol={_QUAD_REL_TOL:g} "
            f"(value={result.value!r}, abs_error={result.abs_error!r})",
            result=result,
        )
    return result.value


@dataclass(frozen=True)
class ExpansionResult:
    """One family's expansion, evaluated at a degree n and level u.

    The value is the sum of three terms,

        log_term = log_coefficient * ln(n^power / u)
        constant
        u_term   = u_coefficient * u * scale(n)

    where scale(n) = 1/(2 (n pi)^{3/2}) for the families attached to +1
    (pos-tail, unit) and 1/(2 pi sqrt(n pi)) for those attached to -1, and
    power is 3/2 / 1/2 respectively; the log term is 0 for the tail
    families, which have none.  ``warned`` records that u exceeds the
    family's validity scale.
    """

    interval: str
    family: int
    log_coefficient: float
    constant: float
    u_coefficient: float
    log_term: float
    u_term: float
    value: float
    validity: str
    warned: bool


def kernel_pieces(family: int) -> tuple[float, float, float]:
    """(log_coefficient, constant, u_coefficient) assembled from the kernel
    tables — the reference-verification tier (see the module docstring)."""
    base = h_integral(family, (1,))
    damped = h_integral(family, (1, 3))
    slope = h_integral(family, (1, 2))
    slope_damped = h_integral(family, (1, 3, 4))
    quarter = 0.25 / math.pi
    constant = quarter * (base - damped)
    u_coefficient = slope - slope_damped
    if family in (1, 2):
        return 0.0, constant, u_coefficient
    if family == 3:
        a = math.sqrt(35.0) / (115.0 * math.pi)
        c = 1.0 / (23.0 * math.pi)
        # per-unit-u slopes of the two log-term arguments
        b_hat = 10.0 / (23.0 * math.pi**1.5)
        d_hat = 14.0 / (23.0 * math.pi**1.5)
        log_coefficient = (2.0 / 3.0) * (a - c)
        constant += (2.0 * a / 3.0) * math.log(a / b_hat) - (2.0 * c / 3.0) * math.log(
            c / d_hat
        )
    else:
        a = math.sqrt(3.0) / (11.0 * math.pi)
        c = 1.0 / (11.0 * math.pi)
        b_hat = 4.0 / (11.0 * math.pi**1.5)
        d_hat = 12.0 / (11.0 * math.pi**1.5)
        log_coefficient = 2.0 * (a - c)
        constant += 2.0 * a * math.log(a / b_hat) - 2.0 * c * math.log(c / d_hat)
    return log_coefficient, constant, u_coefficient


# Engine-grade expansion constants (log_coefficient, constant, u_coefficient)
# per family; see the module docstring for how they were obtained and checked.
_ENGINE_CONSTANTS: dict[int, tuple[float, float, float]] = {
    1: (0.0, 8.75765162174e-04, 0.258345902552),
    2: (0.0, 3.76835778408e-03, 0.267994526223),
    3: (4.85995419156e-03, 0.187817274, -4.11439060485),
    4: (5.82547523095e-02, 0.496346443, -0.611431959874),
}


def theorem_expansion(family: int, n: int, u: float) -> ExpansionResult:
    """Two-term large-n expansion for one interval family at level ``u``.

    Uses the frozen engine-grade constants (module docstring).  The level
    must be positive; levels beyond the family's validity scale (n^{5/4}
    for pos-tail/unit, n^{1/4} for the two negative-side families) set the
    ``warned`` flag rather than raising.
    """
    if family not in (1, 2, 3, 4):
        raise ValueError(f"family must be 1..4, got {family!r}")
    n = require_integer("n", n, 1)  # as PolynomialModel.degree
    if not u > 0.0 or not math.isfinite(u):
        raise ValueError(f"the expansion requires a finite level u > 0, got {u!r}")
    log_coefficient, constant, u_coefficient = _ENGINE_CONSTANTS[family]
    if family in (1, 3):
        scale = 1.0 / (2.0 * (n * math.pi) ** 1.5)
        power, scale_power, order = 1.5, 1.25, "5/4"
    else:
        scale = 1.0 / (2.0 * math.pi * math.sqrt(n * math.pi))
        power, scale_power, order = 0.5, 0.25, "1/4"
    log_term = 0.0
    if log_coefficient != 0.0:
        log_term = log_coefficient * math.log(n**power / u)
    u_term = u_coefficient * u * scale
    return ExpansionResult(
        interval=FAMILY_INTERVALS[family],
        family=family,
        log_coefficient=log_coefficient,
        constant=constant,
        u_coefficient=u_coefficient,
        log_term=log_term,
        u_term=u_term,
        value=constant + u_term + log_term,
        validity=f"valid for u = O(n^({order})); remainder O(n^(-1/2))",
        warned=u > n**scale_power,
    )
