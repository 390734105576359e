"""Model construction, validation and scaling."""

import math

import numpy as np
import pytest

from rice_maxima import DegenerateModel, PolynomialModel
from oracles import scale_model


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
