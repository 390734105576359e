"""Frozen reference values for the kernel tier, and the comparison routine.

Twenty-eight quantities are checked: the sixteen kernel-product integrals
(four families x four index sets) and the twelve coefficients of the
assembled expansions (log coefficient, constant and u-coefficient for each
family).  ``verify_constants`` recomputes every one of them from the kernel
tables and compares it against its frozen reference value within a per-row
absolute tolerance chosen from the number of significant digits the
reference carries (1e-6 for rows quoted to ten or more digits, 1e-5
otherwise, 1e-4 for the two assembled constants of the unit-interval
families, 1e-10 for the closed-form log coefficients).

A number of rows are known not to meet their tolerance: the kernel tables
and the tabulated reference values they are checked against are mutually
inconsistent at the 1e-5..1e-4 level for families 1-3 (see the
``expansion`` module docstring for the underlying convention difference).
``verify_constants`` reports those rows as failures rather than widening
the tolerances; the engine-grade expansion in ``expansion`` does not rest
on them.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass

from .expansion import FAMILY_INTERVALS, h_integral, kernel_pieces

__all__ = [
    "INTEGRAL_REFERENCES",
    "THEOREM_REFERENCES",
    "VerifyRow",
    "verify_constants",
]

_PAIRS = ((1,), (1, 3), (1, 2), (1, 3, 4))

# (family, pair) -> (reference value, absolute tolerance).  The tolerance is
# 1e-6 where the reference is quoted to >= 10 significant digits, else 1e-5.
INTEGRAL_REFERENCES: dict[tuple[int, tuple[int, ...]], tuple[float, float]] = {
    (1, (1,)): (0.02789960660, 1e-6),
    (1, (1, 3)): (0.02659218098, 1e-6),
    (1, (1, 2)): (0.3326450540, 1e-6),
    (1, (1, 3, 4)): (0.297579554, 1e-5),
    (2, (1,)): (0.10652624145, 1e-6),
    (2, (1, 3)): (0.090270992310, 1e-6),
    (2, (1, 2)): (0.3240703564, 1e-6),
    (2, (1, 3, 4)): (0.2243026030, 1e-6),
    (3, (1,)): (-0.2545810, 1e-5),
    (3, (1, 3)): (-0.2085374, 1e-5),
    (3, (1, 2)): (-4.808177963, 1e-6),
    (3, (1, 3, 4)): (-2.774789804, 1e-6),
    (4, (1,)): (-0.1146419848, 1e-6),
    (4, (1, 3)): (-0.0801100983, 1e-5),
    (4, (1, 2)): (-0.7769335, 1e-5),
    (4, (1, 3, 4)): (-0.1820104, 1e-5),
}

# family -> {"log" | "constant" | "u"} -> (reference value, tolerance).
# For the tail families (1, 2) the quoted constant is the numerator over
# 4*pi, so the row compares integral(h1) - integral(h1*h3) directly; the
# unit-interval constants are the fully assembled ones.  The log
# coefficients have exact closed forms.
THEOREM_REFERENCES: dict[int, dict[str, tuple[float, float]]] = {
    1: {
        "log": (0.0, 1e-10),
        "constant": (0.0013074, 1e-5),
        "u": (0.0350655, 1e-5),
    },
    2: {
        "log": (0.0, 1e-10),
        "constant": (0.0162552, 1e-5),
        "u": (0.0997677, 1e-5),
    },
    3: {
        "log": (2.0 * (math.sqrt(35.0) - 5.0) / (345.0 * math.pi), 1e-10),
        "constant": (-0.001648, 1e-4),
        "u": (-2.033388, 1e-5),
    },
    4: {
        "log": (2.0 * (math.sqrt(3.0) - 1.0) / (11.0 * math.pi), 1e-10),
        "constant": (0.081413, 1e-4),
        "u": (-0.594923, 1e-5),
    },
}


@dataclass(frozen=True)
class VerifyRow:
    """One recomputed quantity against its frozen reference."""

    name: str
    computed: float
    reference: float
    diff: float
    tolerance: float
    passed: bool


def _row(
    name: str,
    computed: float,
    reference: float,
    abs_tol: float,
    rel_tol: float | None,
) -> VerifyRow:
    if rel_tol is not None:
        tolerance = rel_tol * abs(reference) if reference != 0.0 else rel_tol
    else:
        tolerance = abs_tol
    computed = float(computed)
    diff = computed - reference
    return VerifyRow(name, computed, reference, diff, tolerance, abs(diff) <= tolerance)


def verify_constants(rel_tol: float | None = None) -> tuple[VerifyRow, ...]:
    """Recompute the twenty-eight kernel-tier quantities and compare each
    against its frozen reference.

    By default every row uses its own absolute tolerance (module
    docstring); passing ``rel_tol`` replaces them all with a relative
    tolerance of ``rel_tol * |reference|``.  Rows outside their tolerance
    are returned marked failed, never raised; the integrals are computed
    to a relative tolerance of 1e-9.  Raises ``ValueError`` unless
    ``rel_tol`` is None or a finite number > 0.
    """
    if rel_tol is not None and (
        isinstance(rel_tol, bool)
        or not isinstance(rel_tol, numbers.Real)
        or not 0.0 < rel_tol < math.inf
    ):
        raise ValueError(f"rel_tol must be a finite number > 0, got {rel_tol!r}")
    rows: list[VerifyRow] = []
    for family in (1, 2, 3, 4):
        interval = FAMILY_INTERVALS[family]
        for pair in _PAIRS:
            reference, abs_tol = INTEGRAL_REFERENCES[(family, pair)]
            computed = h_integral(family, pair)
            label = "*".join(f"h{k}" for k in pair)
            rows.append(_row(f"{interval}/{label}", computed, reference, abs_tol, rel_tol))
    for family in (1, 2, 3, 4):
        interval = FAMILY_INTERVALS[family]
        log_coefficient, constant, u_coefficient = kernel_pieces(family)
        refs = THEOREM_REFERENCES[family]
        reference, abs_tol = refs["log"]
        rows.append(
            _row(f"{interval}/log-coefficient", log_coefficient, reference, abs_tol, rel_tol)
        )
        reference, abs_tol = refs["constant"]
        if family in (1, 2):
            # the reference quotes the numerator over 4*pi
            computed = h_integral(family, (1,)) - h_integral(family, (1, 3))
            name = f"{interval}/constant*4pi"
        else:
            computed = constant
            name = f"{interval}/constant"
        rows.append(_row(name, computed, reference, abs_tol, rel_tol))
        reference, abs_tol = refs["u"]
        rows.append(
            _row(f"{interval}/u-coefficient", u_coefficient, reference, abs_tol, rel_tol)
        )
    return tuple(rows)
