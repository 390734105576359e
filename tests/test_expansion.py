"""Large-degree expansions: pinned constants, assembly algebra, trends."""

import math

import pytest

from rice_maxima import (
    FAMILY_BOUNDS,
    FAMILY_INTERVALS,
    CountQuery,
    PolynomialModel,
    expected_count,
    theorem_expansion,
)
from rice_maxima.expansion import kernel_pieces

# (log_coefficient, constant, u_coefficient) pins at 12 digits, captured
# from a verified build of the kernel-table tier.
KERNEL_PIECES_PINS = {
    1: (0.0, 9.94198532982e-05, 0.0350840813952),
    2: (0.0, 0.00129369312511, 0.0997676698943),
    3: (0.00169041884924, -0.00164540294085, -2.03337799938),
    4: (0.0423670925887, 0.0814132510158, -0.594922813298),
}


class TestKernelPieces:
    @pytest.mark.parametrize("family", [1, 2, 3, 4])
    def test_pinned_values(self, family):
        log_c, const, u_c = kernel_pieces(family)
        ref_log, ref_const, ref_u = KERNEL_PIECES_PINS[family]
        if ref_log == 0.0:
            assert log_c == 0.0
        else:
            assert log_c == pytest.approx(ref_log, rel=1e-10)
        assert const == pytest.approx(ref_const, rel=1e-9)
        assert u_c == pytest.approx(ref_u, rel=1e-9)

    def test_log_coefficients_match_closed_forms(self):
        assert kernel_pieces(3)[0] == pytest.approx(
            2.0 * (math.sqrt(35.0) - 5.0) / (345.0 * math.pi), rel=1e-14
        )
        assert kernel_pieces(4)[0] == pytest.approx(
            2.0 * (math.sqrt(3.0) - 1.0) / (11.0 * math.pi), rel=1e-14
        )


class TestTheoremExpansion:
    def test_field_contract(self):
        for family in (1, 2, 3, 4):
            result = theorem_expansion(family, 50, 1.0)
            assert result.family == family
            assert result.interval == FAMILY_INTERVALS[family]
            assert not result.warned
        assert theorem_expansion(1, 50, 1.0).validity == (
            "valid for u = O(n^(5/4)); remainder O(n^(-1/2))"
        )
        assert theorem_expansion(2, 50, 1.0).validity == (
            "valid for u = O(n^(1/4)); remainder O(n^(-1/2))"
        )

    def test_leading_term(self):
        # No-log families lead with their constant; log families with the
        # logarithm of n^power / u.
        r1 = theorem_expansion(1, 64, 2.0)
        assert r1.log_coefficient == 0.0
        assert r1.log_term == 0.0
        r3 = theorem_expansion(3, 64, 2.0)
        assert r3.log_term == pytest.approx(
            r3.log_coefficient * math.log(64.0**1.5 / 2.0), rel=1e-14
        )

    @pytest.mark.parametrize("family", [1, 2, 3, 4])
    @pytest.mark.parametrize("n,u", [(10, 0.5), (100, 1.0), (1000, 3.0), (64, 2.0)])
    def test_terms_sum_to_assembled_value(self, family, n, u):
        result = theorem_expansion(family, n, u)
        terms = (result.log_term, result.constant, result.u_term)
        # bit-identical when summed in the assembly order, and to rounding in any
        assert result.constant + result.u_term + result.log_term == result.value
        assert sum(terms) == pytest.approx(result.value, rel=1e-15)

    def test_terms_require_a_positive_level(self):
        for bad_u in (0.0, -1.0):
            with pytest.raises(ValueError, match="level"):
                theorem_expansion(3, 100, bad_u)

    @pytest.mark.parametrize("bad_n", [2.5, 3.0, True, 0, -4])
    def test_degree_must_be_a_positive_integer(self, bad_n):
        # as PolynomialModel's degree: no fractions, floats or bools
        with pytest.raises(ValueError, match="n must be"):
            theorem_expansion(1, bad_n, 1.0)

    @pytest.mark.parametrize(
        "family,n,boundary", [(1, 16, 32.0), (3, 16, 32.0), (2, 16, 2.0), (4, 16, 2.0)]
    )
    def test_warned_flag_boundary(self, family, n, boundary):
        assert not theorem_expansion(family, n, boundary).warned
        assert theorem_expansion(family, n, boundary * 1.01).warned

    @pytest.mark.parametrize("family", [1, 2, 3, 4])
    @pytest.mark.parametrize("n,u", [(10, 0.5), (100, 1.0), (1000, 3.0)])
    def test_assembled_value_algebra(self, family, n, u):
        result = theorem_expansion(family, n, u)
        if family in (1, 3):
            scale, power = 1.0 / (2.0 * (n * math.pi) ** 1.5), 1.5
        else:
            scale, power = 1.0 / (2.0 * math.pi * math.sqrt(n * math.pi)), 0.5
        expected = result.constant + result.u_coefficient * u * scale
        if result.log_coefficient:
            expected += result.log_coefficient * math.log(n**power / u)
        assert result.value == pytest.approx(expected, rel=1e-14)

    def test_validation(self):
        with pytest.raises(ValueError, match="family"):
            theorem_expansion(0, 10, 1.0)
        with pytest.raises(ValueError, match="n"):
            theorem_expansion(1, 0, 1.0)
        for bad_u in (0.0, -1.0, math.inf, math.nan):
            with pytest.raises(ValueError, match="level"):
                theorem_expansion(1, 10, bad_u)


class TestConvergenceToExactCount:
    @pytest.mark.parametrize("family,ratio_bound", [(1, 0.5), (4, 0.7)])
    def test_gap_shrinks_with_degree(self, family, ratio_bound):
        lo, hi = FAMILY_BOUNDS[family]
        gaps = []
        for n in (100, 400):
            exact = expected_count(
                PolynomialModel(n), CountQuery(lo, hi, 1.0), rel_tol=1e-9
            ).value
            approx = theorem_expansion(family, n, 1.0).value
            gaps.append(abs(exact - approx))
        assert gaps[1] < gaps[0]
        assert gaps[1] / gaps[0] < ratio_bound


class TestValidityFlag:
    @pytest.mark.xfail(
        strict=True,
        reason="known defect: the flag assumes validity up to u = O(n^(5/4)), "
        "but the u-linear expansion fails far below that (ROADMAP direction 1)",
    )
    def test_unwarned_expansion_is_close_to_the_exact_count(self):
        # Measured: the expansion gives 0.233 against the exact 0.519, unwarned.
        n, u = 10_000, 100.0
        expansion = theorem_expansion(3, n, u)
        lo, hi = FAMILY_BOUNDS[3]
        exact = expected_count(PolynomialModel(n), CountQuery(lo, hi, u)).value
        assert expansion.warned or abs(expansion.value - exact) <= 1e-2


class TestFamilyTables:
    def test_bounds_and_names_are_consistent(self):
        assert set(FAMILY_BOUNDS) == set(FAMILY_INTERVALS) == {1, 2, 3, 4}
        assert len(set(FAMILY_INTERVALS.values())) == 4
        for lo, hi in FAMILY_BOUNDS.values():
            assert lo < hi
        # The four intervals tile the line outside the two unit points.
        assert FAMILY_BOUNDS[2][1] == FAMILY_BOUNDS[4][0] == -1.0
        assert FAMILY_BOUNDS[4][1] == FAMILY_BOUNDS[3][0] == 0.0
        assert FAMILY_BOUNDS[3][1] == FAMILY_BOUNDS[1][0] == 1.0
