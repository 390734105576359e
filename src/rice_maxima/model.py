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

from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from .errors import DegenerateModel

__all__ = ["PolynomialModel"]


def require_integer(name: str, value, minimum: int, error: type = ValueError) -> int:
    """``value`` as an int, or ``error`` unless it is an integer of at least
    ``minimum``: numpy integers are taken, bools and floats are not."""
    if not isinstance(value, (int, np.integer)) or isinstance(value, bool) or value < minimum:
        raise error(f"{name} must be an integer >= {minimum}, got {value!r}")
    return int(value)


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
        sigma = self.sigma
        if sigma is None:
            sigma = tuple(1.0 for _ in range(n))
        else:
            sigma = tuple(float(s) for s in sigma)
        if len(sigma) != n:
            raise DegenerateModel(
                f"sigma must have exactly {n} entries, got {len(sigma)}"
            )
        if any(not np.isfinite(s) or s < 0 for s in sigma):
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
        degrees of freedom feeding the polynomial), counted once."""
        return sum(1 for s in self.sigma if s > 0) + (1 if self.sigma0 > 0 else 0)

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
        return {}

