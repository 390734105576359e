"""Random polynomials with cumulative Gaussian coefficients.

The polynomial is ``Q_n(x) = sum_j A_j x**j`` where the coefficients are the
running sums ``A_j = D_1 + ... + D_j`` of independent centred Gaussian
increments ``D_k ~ N(0, sigma_k**2)`` (so the coefficient sequence is a
Gaussian random walk; an optional ``D_0`` adds a random constant term).

Regrouping by increment gives ``Q_n(x) = sum_k D_k a_k(x)`` with the basis
partial power sums

    a_k(x) = sum_{j=k}^n x**j
    b_k(x) = sum_{j=k}^n j x**(j-1)        (basis of Q')
    d_k(x) = sum_{j=k}^n j (j-1) x**(j-2)  (basis of Q'')

which is what every covariance computation in this package rests on.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from .errors import DegenerateModel

__all__ = ["PolynomialModel"]


def require_integer(
    name: str, value, minimum: int, error: type = ValueError, maximum: float = np.inf
) -> int:
    """``value`` as an int, or ``error`` unless it is an integer from
    ``minimum`` to ``maximum``: numpy integers are taken, bools and floats
    are not."""
    if (
        not isinstance(value, (int, np.integer))
        or isinstance(value, bool)
        or not minimum <= value <= maximum
    ):
        bounds = f">= {minimum}" if maximum == np.inf else f"in {minimum}..{maximum}"
        raise error(f"{name} must be an integer {bounds}, got {value!r}")
    return int(value)


def require_real(name: str, value, error: type = ValueError) -> float:
    """``value`` as a float, or ``error`` unless it is a real number other
    than NaN (+-inf allowed): ints and numpy floats are taken, bools,
    strings, arrays and None are not."""
    if not isinstance(value, numbers.Real) or isinstance(value, bool):
        raise error(f"{name} must be a real number, got {value!r}")
    if math.isnan(value):
        raise error(f"{name} must not be NaN")
    return float(value)


@dataclass(frozen=True)
class PolynomialModel:
    """Degree and increment standard deviations of the random polynomial.

    ``sigma[k-1]`` is the standard deviation of increment ``D_k`` for
    k = 1..n; ``sigma0`` (default 0) is the standard deviation of the
    optional increment ``D_0`` feeding the constant coefficient ``A_0``.
    """

    degree: int
    sigma: tuple = field(default=None)
    sigma0: float = 0.0

    def __post_init__(self):
        n = require_integer("degree", self.degree, 1, DegenerateModel)
        sigma = (1.0,) * n if self.sigma is None else tuple(map(float, self.sigma))
        if len(sigma) != n:
            raise DegenerateModel(
                f"sigma must have exactly {n} entries, got {len(sigma)}"
            )
        values = np.array(sigma)
        # NaN fails both comparisons
        if not np.all((values >= 0.0) & (values < np.inf)):
            raise DegenerateModel("all sigma entries must be finite and >= 0")
        s0 = float(self.sigma0)
        if not np.isfinite(s0) or s0 < 0:
            raise DegenerateModel("sigma0 must be finite and >= 0")
        object.__setattr__(self, "degree", n)
        object.__setattr__(self, "sigma", sigma)
        object.__setattr__(self, "sigma0", s0)

    # ------------------------------------------------------------------

    @cached_property
    def effective_rank(self) -> int:
        """Number of strictly positive increment deviations (Gaussian
        degrees of freedom feeding the polynomial), counted once: the
        nonzero ones, as none is negative."""
        return int(np.count_nonzero(self.sigma)) + (1 if self.sigma0 > 0 else 0)

    def require_rank_for_density(self) -> None:
        """The joint law of (Q, Q', Q'') needs at least three independent
        Gaussian sources; otherwise its covariance is singular everywhere."""
        if self.effective_rank < 3:
            raise DegenerateModel(
                "degenerate covariance: only "
                f"{self.effective_rank} independent Gaussian sources feed "
                "(Q, Q', Q''), so their joint law is singular at every point"
            )

    def variance_weights(self) -> np.ndarray:
        """Increment variances indexed k = 0..n (entry 0 is sigma0**2), as a
        read-only array built once."""
        return self._variance_weights

    @cached_property
    def _variance_weights(self) -> np.ndarray:
        out = np.empty(self.degree + 1)
        out[0] = self.sigma0 * self.sigma0
        out[1:] = np.square(self.sigma)
        out.setflags(write=False)
        return out

    @cached_property
    def _moments_memo(self) -> dict:
        """Rows of ``moments`` already computed on this model, keyed by the
        float x (filled and bounded by ``moments``)."""
        from .moments import _Memo  # moments imports this module

        return _Memo()

