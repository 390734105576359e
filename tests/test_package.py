"""Package surface: the exported names, and the expansion tier and
``ScaledValue`` load lazily."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

import rice_maxima

SRC = str(Path(rice_maxima.__file__).resolve().parent.parent)

_PROBE = """
import sys
from rice_maxima import PolynomialModel, expected_count
print(sorted(m for m in sys.modules if m.startswith("rice_maxima.")))
import rice_maxima
rice_maxima.h_integral
print("rice_maxima.kernels" in sys.modules)
"""


def test_exact_path_import_skips_the_expansion_tier():
    env = dict(os.environ, PYTHONPATH=SRC)
    out = subprocess.run(
        [sys.executable, "-c", _PROBE], env=env, capture_output=True, text=True, check=True
    ).stdout.splitlines()
    loaded = out[0]
    for module in ("kernels", "expansion", "reference", "scaled"):
        assert f"rice_maxima.{module}'" not in loaded
    assert out[1] == "True"  # first use of a lazy name imports its module


def test_public_names_are_pinned():
    assert rice_maxima.__all__ == [
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
    for name in rice_maxima.__all__:
        assert getattr(rice_maxima, name) is not None


def test_lazy_names_resolve_and_are_listed():
    for name in ("h_integral", "theorem_expansion", "verify_constants", "VerifyRow"):
        assert name in rice_maxima.__all__
        assert name in dir(rice_maxima)
        assert getattr(rice_maxima, name) is not None
    with pytest.raises(AttributeError, match="no_such_name"):
        rice_maxima.no_such_name


_NO_MPMATH_PROBE = """
import sys
import numpy as np
import rice_maxima
from rice_maxima.kernels import KernelId, h_kernel
rice_maxima.verify_constants()
h_kernel(KernelId(1, 1), np.linspace(0.1, 10.0, 50))
print("mpmath" in sys.modules)
"""


def test_kernel_tier_runs_without_mpmath():
    env = dict(os.environ, PYTHONPATH=SRC)
    out = subprocess.run(
        [sys.executable, "-c", _NO_MPMATH_PROBE],
        env=env,
        capture_output=True,
        text=True,
        check=True,
    ).stdout
    assert out.strip() == "False"
