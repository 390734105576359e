"""Exponent-scaled arithmetic: exactness and overflow immunity."""

import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from rice_maxima import ScaledValue

# Floats whose products/sums stay comfortably inside the normal float64
# range, so plain float arithmetic is a valid oracle.
moderate = st.floats(
    min_value=1e-60,
    max_value=1e60,
    allow_nan=False,
    allow_infinity=False,
).flatmap(lambda m: st.sampled_from([m, -m]))


class TestConversion:
    @given(st.floats(allow_nan=False, allow_infinity=False))
    @settings(max_examples=200, deadline=None)
    def test_round_trip_is_exact(self, value):
        assert ScaledValue.from_float(value).to_float() == value

    @given(moderate)
    @settings(max_examples=100, deadline=None)
    def test_mantissa_invariant(self, value):
        sv = ScaledValue.from_float(value)
        assert 1.0 <= abs(sv.mantissa) < 2.0

    def test_zero_representation(self):
        zero = ScaledValue.from_float(0.0)
        assert zero.mantissa == 0.0 and zero.exponent == 0
        assert zero.to_float() == 0.0

    @pytest.mark.parametrize("bad", [math.inf, -math.inf, math.nan])
    def test_non_finite_rejected(self, bad):
        with pytest.raises(ValueError):
            ScaledValue.from_float(bad)

    def test_to_float_saturates_out_of_range(self):
        assert ScaledValue(1.5, 1200).to_float() == math.inf
        assert ScaledValue(-1.5, 1200).to_float() == -math.inf
        assert ScaledValue(1.5, -1200).to_float() == 0.0


class TestArithmeticMatchesFloat:
    @given(moderate, moderate)
    @settings(max_examples=200, deadline=None)
    def test_product_exact(self, a, b):
        got = (ScaledValue.from_float(a) * ScaledValue.from_float(b)).to_float()
        assert got == a * b

    @given(moderate, moderate)
    @settings(max_examples=200, deadline=None)
    def test_quotient_exact(self, a, b):
        got = (ScaledValue.from_float(a) / ScaledValue.from_float(b)).to_float()
        assert got == a / b

    @given(moderate, moderate)
    @settings(max_examples=200, deadline=None)
    def test_sum_exact(self, a, b):
        # The scaled sum rounds the same 53-bit mantissa as float64 does, so
        # any normal-range result is bit-identical.
        total = a + b
        if total == 0.0 or not (1e-280 < abs(total) < 1e280):
            return
        got = (ScaledValue.from_float(a) + ScaledValue.from_float(b)).to_float()
        assert got == total

    @given(moderate, moderate)
    @settings(max_examples=200, deadline=None)
    def test_difference_exact(self, a, b):
        # a - b as the sum of a and -b: the cancelling branch of the sum
        diff = a - b
        if diff == 0.0 or not (1e-280 < abs(diff) < 1e280):
            return
        got = (ScaledValue.from_float(a) + ScaledValue.from_float(-b)).to_float()
        assert got == diff

    def test_mixing_with_plain_numbers(self):
        sv = ScaledValue.from_float(4.0)
        assert (sv * 2).to_float() == 8.0
        assert (sv / 2).to_float() == 2.0
        assert (sv + 1.5).to_float() == 5.5

    def test_unsupported_operand_type(self):
        with pytest.raises(TypeError):
            ScaledValue.from_float(1.0) + "nope"


class TestOverflowImmunity:
    def test_huge_intermediates_cancel(self):
        big = ScaledValue.from_float(2.0).powi(600)  # 2**600 overflows when squared
        sq = big * big
        assert sq.to_float() == math.inf  # saturation, not an exception
        assert (sq.mantissa, sq.exponent) == (1.0, 1200)
        assert (sq / sq).to_float() == 1.0
        assert (sq / (sq * 2.0)).to_float() == 0.5

    def test_tiny_intermediates_recover(self):
        tiny = ScaledValue.from_float(2.0).powi(-600)
        assert (tiny * tiny).to_float() == 0.0  # saturation on the way down
        assert ((tiny * tiny).mantissa, (tiny * tiny).exponent) == (1.0, -1200)
        assert ((tiny * tiny) / tiny.powi(2)).to_float() == 1.0

    def test_powi(self):
        two = ScaledValue.from_float(2.0)
        assert two.powi(10).to_float() == 1024.0
        assert two.powi(-3).to_float() == 0.125
        assert two.powi(0).to_float() == 1.0
        with pytest.raises(ZeroDivisionError):
            ScaledValue.from_float(0.0).powi(-1)

    def test_division_by_zero(self):
        with pytest.raises(ZeroDivisionError):
            ScaledValue.from_float(1.0) / ScaledValue.from_float(0.0)


class TestOrdering:
    def test_alignment_cutoff_absorbs_negligible_addends(self):
        # Beyond 60 binary orders of magnitude the small term cannot move
        # the large one's mantissa, and the sum short-circuits exactly.
        big = ScaledValue.from_float(2.0).powi(100)
        assert (big + 1.0) == big
        assert (big + -1.0) == big
