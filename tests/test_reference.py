"""Tests for the frozen-reference verification tier.

``verify_constants`` recomputes the sixteen kernel-product integrals and the
twelve assembled-expansion coefficients and compares each against its frozen
reference value.  The reference table and the kernel tables are known to be
mutually inconsistent for a subset of rows, so the exact pass/fail split is
itself a regression pin: a change in either direction (a row starting to pass
or starting to fail) means the kernel tier moved and must be re-examined.
"""

import math

import pytest

from rice_maxima import VerifyRow, verify_constants
from rice_maxima.expansion import h_integral
from rice_maxima.reference import INTEGRAL_REFERENCES, THEOREM_REFERENCES

# Every row name, in output order: the sixteen integral rows grouped by
# interval, then the twelve assembled-coefficient rows (log, constant, u)
# per interval.  The tail-interval constants are quoted as numerators over
# 4*pi, hence the "constant*4pi" label.
INTERVALS = ("pos-tail", "neg-tail", "unit", "neg-unit")
PAIR_LABELS = ("h1", "h1*h3", "h1*h2", "h1*h3*h4")
EXPECTED_NAMES = tuple(
    f"{interval}/{label}" for interval in INTERVALS for label in PAIR_LABELS
) + tuple(
    f"{interval}/{label}"
    for interval in INTERVALS
    for label in (
        "log-coefficient",
        "constant*4pi" if interval in ("pos-tail", "neg-tail") else "constant",
        "u-coefficient",
    )
)

# The rows whose recomputed value does not meet the frozen reference at the
# default tolerance.  This split is stable engine behaviour, not a bug list:
# the reference module documents why these rows cannot pass.
EXPECTED_FAILING = frozenset(
    {
        "pos-tail/h1",
        "pos-tail/h1*h3",
        "pos-tail/h1*h2",
        "pos-tail/h1*h3*h4",
        "neg-tail/h1",
        "neg-tail/h1*h3",
        "unit/h1",
        "unit/h1*h3",
        "unit/h1*h2",
        "unit/h1*h3*h4",
        "pos-tail/constant*4pi",
        "pos-tail/u-coefficient",
        "unit/u-coefficient",
    }
)


@pytest.fixture(scope="module")
def default_rows():
    return verify_constants()


class TestRowTable:
    def test_twenty_eight_rows_in_fixed_order(self, default_rows):
        assert len(default_rows) == 28
        assert tuple(row.name for row in default_rows) == EXPECTED_NAMES

    def test_names_unique(self, default_rows):
        names = [row.name for row in default_rows]
        assert len(set(names)) == len(names)

    def test_rows_are_verify_rows_with_float_fields(self, default_rows):
        for row in default_rows:
            assert isinstance(row, VerifyRow)
            assert isinstance(row.computed, float)
            assert isinstance(row.reference, float)
            assert isinstance(row.diff, float)
            assert isinstance(row.tolerance, float)
            assert isinstance(row.passed, bool)

    def test_diff_and_verdict_arithmetic(self, default_rows):
        for row in default_rows:
            assert row.diff == row.computed - row.reference
            assert row.passed == (abs(row.diff) <= row.tolerance)

    def test_default_tolerances_come_from_reference_tables(self, default_rows):
        by_name = {row.name: row for row in default_rows}
        for (family, pair), (reference, abs_tol) in INTEGRAL_REFERENCES.items():
            interval = INTERVALS[family - 1]
            label = "*".join(f"h{k}" for k in pair)
            row = by_name[f"{interval}/{label}"]
            assert row.reference == reference
            assert row.tolerance == abs_tol
        for family, refs in THEOREM_REFERENCES.items():
            interval = INTERVALS[family - 1]
            row = by_name[f"{interval}/log-coefficient"]
            assert row.reference == refs["log"][0]
            assert row.tolerance == refs["log"][1]
            row = by_name[f"{interval}/u-coefficient"]
            assert row.reference == refs["u"][0]
            assert row.tolerance == refs["u"][1]

    def test_integral_rows_match_direct_quadrature(self, default_rows):
        by_name = {row.name: row for row in default_rows}
        row = by_name["neg-tail/h1*h2"]
        assert row.computed == pytest.approx(
            h_integral(2, (1, 2)), rel=1e-12
        )

    def test_log_rows_match_closed_forms(self, default_rows):
        by_name = {row.name: row for row in default_rows}
        assert by_name["pos-tail/log-coefficient"].computed == 0.0
        assert by_name["neg-tail/log-coefficient"].computed == 0.0
        assert by_name["unit/log-coefficient"].computed == pytest.approx(
            2.0 * (math.sqrt(35.0) - 5.0) / (345.0 * math.pi), rel=1e-13
        )
        assert by_name["neg-unit/log-coefficient"].computed == pytest.approx(
            2.0 * (math.sqrt(3.0) - 1.0) / (11.0 * math.pi), rel=1e-13
        )


class TestVerdictSplit:
    def test_failing_set_is_exactly_the_known_one(self, default_rows):
        failing = {row.name for row in default_rows if not row.passed}
        assert failing == EXPECTED_FAILING

    def test_fifteen_rows_pass(self, default_rows):
        assert sum(row.passed for row in default_rows) == 15


class TestRelativeToleranceOverride:
    def test_tolerance_law(self):
        rows = verify_constants(rel_tol=1e-3)
        for row in rows:
            if row.reference != 0.0:
                assert row.tolerance == 1e-3 * abs(row.reference)
            else:
                assert row.tolerance == 1e-3

    def test_tiny_rel_tol_leaves_only_closed_form_rows(self):
        rows = verify_constants(rel_tol=1e-15)
        passing = [row.name for row in rows if row.passed]
        assert passing == [
            "pos-tail/log-coefficient",
            "neg-tail/log-coefficient",
            "unit/log-coefficient",
            "neg-unit/log-coefficient",
        ]

    def test_huge_rel_tol_passes_everything(self):
        rows = verify_constants(rel_tol=1000.0)
        assert all(row.passed for row in rows)

    @pytest.mark.parametrize("rel_tol", [-1.0, 0.0, math.nan, math.inf, "1e-3", True])
    def test_rejects_a_tolerance_that_is_not_a_positive_number(self, rel_tol):
        with pytest.raises(ValueError, match="rel_tol must be a finite number > 0"):
            verify_constants(rel_tol=rel_tol)
