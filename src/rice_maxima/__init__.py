"""Expected local maxima below a level for random polynomials whose
coefficients form a Gaussian random walk.

Three mutually checking evaluation paths:

- exact: closed-form crossing intensity integrated by adaptive quadrature;
- asymptotic: large-degree expansions assembled from kernel integrals;
- monte-carlo: direct simulation of sampled polynomials.

The expansion tier (``expansion``, ``reference`` and, through them, the
kernel tables of ``kernels``) and ``ScaledValue`` are imported on first use
of one of their names, so the exact and Monte Carlo paths import neither.
"""

import importlib

from .counts import CountQuery, NumericResult, expected_count, split_points
from .density import maxima_density
from .errors import (
    DegenerateCovariance,
    DegenerateModel,
    NonFiniteResult,
    RiceMaximaError,
    ToleranceNotMet,
)
from .model import PolynomialModel
from .moments import moments
from .montecarlo import (
    MCConfig,
    MCEstimate,
    count_maxima_below,
    estimate_many,
    sample_coefficients,
)

__version__ = "0.1.0"

# name -> submodule that defines it, imported lazily (PEP 562)
_LAZY = {
    "FAMILY_BOUNDS": "expansion",
    "FAMILY_INTERVALS": "expansion",
    "ExpansionResult": "expansion",
    "h_integral": "expansion",
    "theorem_expansion": "expansion",
    "VerifyRow": "reference",
    "verify_constants": "reference",
    "ScaledValue": "scaled",
}


def __getattr__(name):
    if name in _LAZY:
        value = getattr(importlib.import_module(f".{_LAZY[name]}", __name__), name)
        globals()[name] = value
        return value
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


def __dir__():
    return sorted(set(globals()) | set(_LAZY))

__all__ = [
    "CountQuery",
    "DegenerateCovariance",
    "DegenerateModel",
    "ExpansionResult",
    "FAMILY_BOUNDS",
    "FAMILY_INTERVALS",
    "MCConfig",
    "MCEstimate",
    "NonFiniteResult",
    "NumericResult",
    "PolynomialModel",
    "RiceMaximaError",
    "ScaledValue",
    "ToleranceNotMet",
    "VerifyRow",
    "__version__",
    "count_maxima_below",
    "estimate_many",
    "expected_count",
    "h_integral",
    "maxima_density",
    "moments",
    "sample_coefficients",
    "split_points",
    "theorem_expansion",
    "verify_constants",
]
