"""Pointwise maxima density: oracle spot checks, limits, invariances."""

import math

import mpmath
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from rice_maxima import (
    DegenerateCovariance,
    DegenerateModel,
    PolynomialModel,
    maxima_density,
    moments,
)
from rice_maxima.density import _bracket
from oracles import density_mp, density_split, oracle_density, scale_model

nonzero_x = st.one_of(
    st.floats(min_value=0.05, max_value=3.0),
    st.floats(min_value=-3.0, max_value=-0.05),
)
levels = st.one_of(
    st.floats(min_value=-5.0, max_value=5.0),
    st.sampled_from([math.inf, -math.inf]),
)

# (degree, x, u) cells spread over both tails, both unit-interval sides and
# all level regimes; the full acceptance grid lives in test_acceptance.
SPOT_CELLS = [
    (3, 0.5, 1.0),
    (3, 1.05, 0.0),
    (5, -0.8, math.inf),
    (5, 2.5, -1.0),
    (8, -1.1, 0.5),
    (8, 0.3, 2.0),
]

# Far-tail points, where rho is within 1e-14 to 1e-44 of -1 and the two terms
# of the bracket cancel to ~1 - rho^2.
FAR_TAIL = [
    (3, 1e9),
    (3, 1e12),
    (10, 1e6),
    (10, 1e13),
    (10, -1e13),
    (100, 1e20),
    (1000, -1e7),
    (10_000, 1e7),
]


class TestAgainstOracle:
    @pytest.mark.parametrize("n,x,u", SPOT_CELLS)
    def test_matches_direct_quadrature(self, n, x, u):
        got = maxima_density(PolynomialModel(n), x, u)
        ref = oracle_density(PolynomialModel(n), x, u)
        assert got == pytest.approx(ref, rel=1e-7)


class TestLimits:
    @pytest.mark.parametrize("n,x", [(3, 0.5), (5, -1.2), (8, 1.05), (12, -0.7)])
    def test_level_infinity_counts_all_maxima(self, n, x):
        model = PolynomialModel(n)
        got = maxima_density(model, x, math.inf)
        swb = moments(model, x).sigma_w_over_b[0]
        assert got == swb / (2.0 * math.pi)
        # A level far above every reachable value is the same thing.
        assert maxima_density(model, x, 40.0) == pytest.approx(got, rel=1e-12)

    @pytest.mark.parametrize("n,x", [(3, 0.5), (8, -1.1)])
    def test_level_minus_infinity_is_zero(self, n, x):
        assert maxima_density(PolynomialModel(n), x, -math.inf) == 0.0

    @pytest.mark.parametrize("n,x", [(3, 0.5), (5, -0.8), (8, 1.1), (12, 2.0)])
    def test_monotone_in_level(self, n, x):
        model = PolynomialModel(n)
        grid = [-math.inf, -3.0, -1.0, 0.0, 0.5, 1.5, 4.0, math.inf]
        values = [maxima_density(model, x, u) for u in grid]
        for lower, higher in zip(values, values[1:]):
            assert lower <= higher
        assert values[0] == 0.0
        assert values[-1] > 0.0


class TestInvariances:
    @given(
        st.integers(min_value=3, max_value=10),
        nonzero_x,
        levels,
    )
    @settings(max_examples=150, deadline=None)
    def test_nonnegative_and_finite(self, n, x, u):
        value = maxima_density(PolynomialModel(n), x, u)
        assert value >= 0.0
        assert math.isfinite(value)

    @given(
        st.integers(min_value=3, max_value=10),
        nonzero_x,
        st.floats(min_value=-3.0, max_value=3.0),
        st.floats(min_value=0.1, max_value=10.0),
    )
    @settings(max_examples=100, deadline=None)
    def test_scale_covariance(self, n, x, u, factor):
        # Scaling every increment by c scales paths by c, so counting maxima
        # below c*u in the scaled model is the same event.
        model = PolynomialModel(n)
        base = maxima_density(model, x, u)
        # Below ~1e-50 the erfc bracket amplifies one-ulp input differences
        # past any fixed relative tolerance; the property is vacuous there.
        assume(base > 1e-50)
        scaled = maxima_density(scale_model(model, factor), x, factor * u)
        assert scaled == pytest.approx(base, rel=1e-9, abs=0.0)

    def test_far_tail_evaluates_continuously(self):
        # 1 - rho^2 ~ 7.5e-19 here.
        value = maxima_density(PolynomialModel(3), 1e9, math.inf)
        expected = float(density_mp(PolynomialModel(3), 1e9, math.inf))
        assert value == pytest.approx(expected, rel=1e-13, abs=0.0)


class TestFarTail:
    @pytest.mark.parametrize("n,x", FAR_TAIL)
    @pytest.mark.parametrize("u", [-1.0, 0.0, 1.0, math.inf])
    def test_matches_closed_form_in_mpmath(self, n, x, u):
        expected = float(density_mp(PolynomialModel(n), x, u))
        got = maxima_density(PolynomialModel(n), x, u)
        assert got == pytest.approx(expected, rel=1e-13, abs=0.0)

    @pytest.mark.parametrize("x", [1e300, -1e300, 1.7e308])
    @pytest.mark.parametrize("u", [-1.0, 0.0, 1.0, math.inf])
    def test_huge_points_are_finite(self, x, u):
        # 1/x^2 underflows: sigma_W / B, 1 - rho^2 and the density (~1/x^2
        # and smaller) are all 0 in float64.
        assert maxima_density(PolynomialModel(10), x, u) == 0.0


class TestSplitDiagnostic:
    @pytest.mark.parametrize("n,x", [(3, 0.5), (5, -0.8), (5, 1.1), (8, -1.2), (8, 2.0)])
    @pytest.mark.parametrize("u", [-0.5, 0.0, 1.0, 3.0])
    def test_conditional_terms_sum_to_density(self, n, x, u):
        model = PolynomialModel(n)
        base, correction = density_split(model, x, u)
        # at (3, 0.5, -0.5) the density is 3.5e-48, and the split's
        # erf(.) + 1 loses all of it (oracle docstring): both terms read 0
        assert base + correction == pytest.approx(
            maxima_density(model, x, u), rel=1e-10, abs=1e-40
        )

    def test_combined_convention_is_different(self):
        model = PolynomialModel(5)
        base, correction = density_split(model, 0.5, 1.0, s_convention="combined")
        reference = maxima_density(model, 0.5, 1.0)
        assert abs(base + correction - reference) > 1e-6 * reference

    def test_rejects_infinite_level(self):
        with pytest.raises(ValueError):
            density_split(PolynomialModel(5), 0.5, math.inf)
        with pytest.raises(ValueError):
            density_split(PolynomialModel(5), 0.5, -math.inf)

    def test_rejects_unknown_convention(self):
        with pytest.raises(ValueError, match="s_convention"):
            density_split(PolynomialModel(5), 0.5, 1.0, s_convention="marginal")


class TestDegeneracies:
    def test_two_coefficient_model_refused(self):
        with pytest.raises(DegenerateModel, match="degenerate covariance"):
            maxima_density(PolynomialModel(2), 0.5, 1.0)

    def test_origin_without_constant_term(self):
        with pytest.raises(DegenerateCovariance):
            maxima_density(PolynomialModel(5), 0.0, 1.0)

    def test_constant_term_heals_the_origin(self):
        value = maxima_density(PolynomialModel(5, sigma0=1.0), 0.0, 1.0)
        assert value > 0.0

    @pytest.mark.parametrize("n,x", [(10, 1e13), (10_000, 1e7), (100_000, 1e5)])
    def test_density_beyond_the_covariance_wall(self, n, x):
        # Past |x| ~ 1e12 / n^1.5 a peeled basis with shared leading terms
        # cancels every digit of 1 - rho^2; the covariance itself is regular.
        value = maxima_density(PolynomialModel(n), x, 1.0)
        expected = float(density_mp(PolynomialModel(n), x, 1.0))
        assert value == pytest.approx(expected, rel=1e-12, abs=0.0)


class TestBracket:
    @pytest.mark.xfail(
        strict=True,
        reason="for q/s < -1 the bracket keeps erfc(-q g) + rho exp(-q^2/2) "
        "erfc(rho q g), whose two terms cancel as rho -> -1: 5.5e-8 off at "
        "q = -1 and 3.5e-9 at q = -0.5",
    )
    @pytest.mark.parametrize("q", [-1.0, -0.5])
    def test_cancelling_terms_near_rho_minus_one(self, q):
        rho = -0.9995
        one_minus_rho_sq = (1.0 - rho) * (1.0 + rho)  # s = 0.0316, q/s < -1
        with mpmath.workdps(80):
            q_mp, rho_mp = mpmath.mpf(q), mpmath.mpf(rho)
            g = 1 / mpmath.sqrt(2 * mpmath.mpf(one_minus_rho_sq))
            expected = float(
                mpmath.erfc(-q_mp * g)
                + rho_mp * mpmath.exp(-q_mp * q_mp / 2) * mpmath.erfc(rho_mp * q_mp * g)
            )
        value = _bracket(q, rho, one_minus_rho_sq)
        # abs=0.0: the values are 1.6e-225 and 9.9e-62
        assert value == pytest.approx(expected, rel=1e-12, abs=0.0)
