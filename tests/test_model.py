"""Model construction, validation and scaling."""

import math

import numpy as np
import pytest

from rice_maxima import (
    CountQuery,
    DegenerateModel,
    MCConfig,
    PolynomialModel,
    count_maxima_below,
    estimate_many,
    expected_count,
    maxima_density,
)
from rice_maxima.model import require_real
from oracles import scale_model

INF = math.inf


class TestConstruction:
    def test_defaults_are_unit_deviations(self):
        model = PolynomialModel(4)
        assert model.sigma == (1.0, 1.0, 1.0, 1.0)
        assert model.sigma0 == 0.0

    def test_explicit_sigma_is_coerced_to_floats(self):
        model = PolynomialModel(2, sigma=(1, 2))
        assert model.sigma == (1.0, 2.0)

    @pytest.mark.parametrize("degree", [0, -1, 2.5, "3", True])
    def test_bad_degree_rejected(self, degree):
        with pytest.raises(DegenerateModel):
            PolynomialModel(degree)

    def test_sigma_length_must_match_degree(self):
        with pytest.raises(DegenerateModel):
            PolynomialModel(3, sigma=(1.0, 1.0))

    @pytest.mark.parametrize(
        "bad",
        [
            (-1.0, 1.0, 1.0),
            (math.nan, 1.0, 1.0),
            (math.inf, 1.0, 1.0),
            (1.0,) * 6000 + (-1e-300,) + (1.0,) * 3999,  # deep inside n = 10^4
        ],
    )
    def test_bad_sigma_entries_rejected(self, bad):
        with pytest.raises(DegenerateModel, match="finite and >= 0"):
            PolynomialModel(len(bad), sigma=bad)

    def test_bad_sigma0_rejected(self):
        with pytest.raises(DegenerateModel):
            PolynomialModel(3, sigma0=-0.5)


class TestRank:
    def test_effective_rank_counts_positive_deviations(self):
        assert PolynomialModel(5).effective_rank == 5
        assert PolynomialModel(5, sigma=(1, 0, 1, 0, 1)).effective_rank == 3
        assert PolynomialModel(2, sigma0=1.0).effective_rank == 3

    def test_density_needs_three_sources(self):
        PolynomialModel(3).require_rank_for_density()
        PolynomialModel(2, sigma0=1.0).require_rank_for_density()
        with pytest.raises(DegenerateModel, match="degenerate covariance"):
            PolynomialModel(2).require_rank_for_density()
        with pytest.raises(DegenerateModel, match="degenerate covariance"):
            PolynomialModel(5, sigma=(1, 1, 0, 0, 0)).require_rank_for_density()

    def test_variance_weights_layout(self):
        model = PolynomialModel(3, sigma=(1.0, 2.0, 3.0), sigma0=0.5)
        assert np.allclose(model.variance_weights(), [0.25, 1.0, 4.0, 9.0])


class TestScaleModel:
    def test_scales_every_deviation(self):
        model = PolynomialModel(3, sigma=(1.0, 2.0, 0.5), sigma0=0.25)
        scaled = scale_model(model, 4.0)
        assert scaled.degree == 3
        assert scaled.sigma == (4.0, 8.0, 2.0)
        assert scaled.sigma0 == 1.0

    @pytest.mark.parametrize("c", [0.0, -1.0, math.nan, math.inf])
    def test_bad_factor_rejected(self, c):
        with pytest.raises((ValueError, DegenerateModel)):
            scale_model(PolynomialModel(3), c)


class TestRealArguments:
    """Every real scalar argument goes through ``require_real``."""

    @pytest.mark.parametrize(
        "value", [1, -3, 0.5, -INF, INF, np.float64(2.5), np.float32(0.25), np.int64(7)]
    )
    def test_takes_ints_floats_and_numpy_numbers(self, value):
        got = require_real("u", value)
        assert type(got) is float and got == value

    @pytest.mark.parametrize(
        "value", [True, np.bool_(False), "1", None, 1j, np.array([1.0, 2.0]), [1.0]]
    )
    def test_refuses_what_is_not_a_real_number(self, value):
        with pytest.raises(ValueError, match="u must be a real number"):
            require_real("u", value)

    def test_refuses_nan(self):
        with pytest.raises(ValueError, match="u must not be NaN"):
            require_real("u", math.nan)

    @pytest.mark.parametrize(
        "call",
        [
            lambda: CountQuery(0.0, 1.0, True),
            lambda: CountQuery(True, 2.0, 1.0),
            lambda: CountQuery(0, 1, "1"),
            lambda: expected_count(PolynomialModel(5), CountQuery(0.0, 1.0, 1.0), rel_tol="1e-8"),
            lambda: maxima_density(PolynomialModel(5), 0.5, None),
            lambda: maxima_density(PolynomialModel(5), 0.5, np.array([1.0, 2.0])),
            lambda: estimate_many(PolynomialModel(3), 0, 1, [True], MCConfig(10)),
            lambda: count_maxima_below(PolynomialModel(3), np.ones((2, 4)), 0, 1, [1.0, True]),
        ],
        ids=[
            "query-level-bool",
            "query-end-bool",
            "query-level-str",
            "rel-tol-str",
            "density-level-none",
            "density-level-array",
            "estimate-level-bool",
            "count-level-bool",
        ],
    )
    def test_public_calls_refuse_what_is_not_a_real_number(self, call):
        with pytest.raises(ValueError, match="must be a real number"):
            call()

    def test_int_and_numpy_arguments_still_work(self):
        query = CountQuery(0, 1, 1)
        assert (query.lo, query.hi, query.u) == (0.0, 1.0, 1.0)
        assert all(type(v) is float for v in (query.lo, query.hi, query.u))
        model = PolynomialModel(5)
        assert maxima_density(model, 0.5, 1) == maxima_density(model, 0.5, 1.0)
        got = expected_count(model, CountQuery(0.0, 1.0, np.float64(1.0)), rel_tol=np.float32(1e-6))
        assert got.value == expected_count(model, CountQuery(0.0, 1.0, 1.0), rel_tol=1e-6).value
        config = MCConfig(50, seed=3, points_per_unit=64)
        want = estimate_many(PolynomialModel(6), -INF, INF, [1.0, INF], config)
        assert estimate_many(PolynomialModel(6), -INF, INF, [1, np.float64(INF)], config) == want
        coeff = np.ones((2, 7))
        one = count_maxima_below(PolynomialModel(6), coeff, -INF, INF, 1, points_per_unit=64)
        many = count_maxima_below(PolynomialModel(6), coeff, -INF, INF, np.array([1.0]))
        assert one.shape == (2, 1) and np.array_equal(one, many)
