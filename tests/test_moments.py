"""Conditional moments against a direct-summation oracle, plus invariants."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from rice_maxima import (
    CountQuery,
    DegenerateCovariance,
    DegenerateModel,
    PolynomialModel,
    expected_count,
    maxima_density,
    moments,
)
from oracles import (
    brute_force_covariance,
    conditional_moments,
    conditional_pair_cov,
    moments_mp,
    quadratic_form,
    scale_model,
)

DEGREES = (3, 5, 8, 12)
POINTS = (0.5, -0.5, 0.9, -0.9, 1.0, -1.0, 1.1, -1.1, 2.0, -3.0)
FIELDS = ("sigma_w_over_b", "rho", "one_minus_rho_sq", "log_sigma_u")

# The peeled side from just past |x| = 1 out beyond |x| ~ 1e12 / n^1.5,
# where a peeled basis with shared leading terms cancels, and the inner side
# from just inside |x| = 1 in to |x| = 1e-13, where a basis with shared
# leading terms cancels as 1 - rho^2 ~ x^2, at three degrees and both signs.
DIRECT_SUM_POINTS = [
    (n, sign * x)
    for n in (10, 1000, 10_000)
    for x in (1.0 + 1.0 / n, 1.01, 2.0, 50.0, 1e3, 1e7, 1e13)
    + (0.5, 1.0 - 1.0 / n, 1e-3, 1e-9, 1e-13)
    for sign in (1.0, -1.0)
] + [(100_000, 1e5), (3, 1e9), (3, 1e12)]

nonzero_x = st.one_of(
    st.floats(min_value=0.05, max_value=3.0),
    st.floats(min_value=-3.0, max_value=-0.05),
)


def one_row(model, x, **kwargs):
    """(sigma_U, sigma_W / B, rho, 1 - rho^2) of ``moments`` at one point,
    with sigma_U formed in float64 (fine at these degrees)."""
    rows = moments(model, x, **kwargs)
    sigma_u = math.exp(rows.log_sigma_u[0])
    return sigma_u, rows.sigma_w_over_b[0], rows.rho[0], rows.one_minus_rho_sq[0]


class TestAgainstBruteForce:
    @pytest.mark.parametrize("n", DEGREES)
    @pytest.mark.parametrize("x", POINTS)
    def test_second_moments(self, n, x):
        # The conditional covariance of (Q, Q'') given Q' = 0, rebuilt from
        # the engine's outputs, against conditioning the direct sums.
        sigma_u, swb, rho, _ = one_row(PolynomialModel(n), x)
        cov = brute_force_covariance(PolynomialModel(n), x)
        pair = conditional_pair_cov(cov)
        sigma_w = swb * math.sqrt(cov[1, 1])
        got = [sigma_u**2, sigma_w**2, rho * sigma_u * sigma_w]
        for value, expected in zip(got, [pair[0, 0], pair[1, 1], pair[0, 1]]):
            assert value == pytest.approx(expected, rel=1e-10)

    @pytest.mark.parametrize("n", DEGREES)
    @pytest.mark.parametrize("x", (0.5, -0.9, 1.1, 2.0))
    def test_determinant(self, n, x):
        # det(Sigma) = B^4 sigma_U^2 (sigma_W / B)^2 (1 - rho^2), a product
        # of the engine's residual norms.
        sigma_u, swb, _, omr = one_row(PolynomialModel(n), x)
        cov = brute_force_covariance(PolynomialModel(n), x)
        det = np.linalg.det(cov)
        # The oracle determinant itself loses digits on near-collinear
        # covariances, so the tolerance is its, not the engine's.
        assert cov[1, 1] ** 2 * (sigma_u * swb) ** 2 * omr == pytest.approx(det, rel=1e-6)

    @pytest.mark.parametrize("n", DEGREES)
    @pytest.mark.parametrize("x", POINTS)
    def test_quadratic_form_coefficients(self, n, x):
        # Index 0 of the conditional pair is the value Q, index 1 the
        # curvature Q''; k multiplies the curvature coordinate.
        sigma_u, swb, rho, omr = one_row(PolynomialModel(n), x)
        k, l, m, _ = quadratic_form(PolynomialModel(n), x)
        sigma_w = swb * math.sqrt(brute_force_covariance(PolynomialModel(n), x)[1, 1])
        assert k == pytest.approx(1.0 / (2.0 * sigma_w**2 * omr), rel=1e-7)
        assert l == pytest.approx(1.0 / (2.0 * sigma_u**2 * omr), rel=1e-7)
        assert m == pytest.approx(-rho / (2.0 * sigma_u * sigma_w * omr), rel=1e-7)

    @pytest.mark.parametrize("n", DEGREES)
    @pytest.mark.parametrize("x", POINTS)
    def test_conditional_scales(self, n, x):
        got = one_row(PolynomialModel(n), x)
        sigma_u, swb, rho, omr = conditional_moments(PolynomialModel(n), x)
        assert got[0] == pytest.approx(sigma_u, rel=1e-10)
        assert got[1] == pytest.approx(swb, rel=1e-10)
        assert got[2] == pytest.approx(rho, rel=1e-10)
        # The oracle forms 1 - rho^2 by cancellation (it reads ~3e-12 off
        # where rho is near -1), so the absolute tolerance is its.
        assert got[3] == pytest.approx(omr, rel=1e-10, abs=1e-11)


class TestInternalIdentities:
    @pytest.mark.parametrize("n", DEGREES)
    @pytest.mark.parametrize("x", POINTS)
    def test_completed_square_relations(self, n, x):
        # Completing the square in the curvature coordinate: k - m^2 / l is
        # the reciprocal of twice the variance of Q'' given Q' = 0.
        _, swb, rho, omr = one_row(PolynomialModel(n), x)
        k, l, m, _ = quadratic_form(PolynomialModel(n), x)
        b2 = brute_force_covariance(PolynomialModel(n), x)[1, 1]
        assert k - m**2 / l == pytest.approx(1.0 / (2.0 * swb**2 * b2), rel=1e-9)
        assert rho**2 + omr == pytest.approx(1.0, abs=1e-12)

    @given(st.integers(min_value=3, max_value=12), nonzero_x)
    @settings(max_examples=120, deadline=None)
    def test_cauchy_schwarz_and_positivity(self, n, x):
        model = PolynomialModel(n)
        rows = moments(model, x)
        assert math.isfinite(rows.log_sigma_u[0]) and rows.sigma_w_over_b[0] > 0.0
        assert 0.0 <= rows.one_minus_rho_sq[0] <= 1.0
        assert abs(rows.rho[0]) < 1.0
        expected = float(moments_mp(model, x).log_sigma_u)
        assert rows.log_sigma_u[0] == pytest.approx(expected, rel=1e-12, abs=1e-12)

    @given(
        st.integers(min_value=3, max_value=10),
        nonzero_x,
        st.floats(min_value=0.1, max_value=10.0),
    )
    @settings(max_examples=80, deadline=None)
    def test_scale_covariance(self, n, x, factor):
        base = moments(PolynomialModel(n), x)
        scaled = moments(scale_model(PolynomialModel(n), factor), x)
        # sigma_U scales with the deviations; the ratios are invariant.
        assert scaled.log_sigma_u[0] == pytest.approx(
            math.log(factor) + base.log_sigma_u[0], abs=1e-12
        )
        for name in ("sigma_w_over_b", "rho", "one_minus_rho_sq"):
            got, ref = getattr(scaled, name)[0], getattr(base, name)[0]
            assert got == pytest.approx(ref, rel=1e-12), name

    def test_huge_degree_far_point_stays_finite(self):
        # The covariance entries (~x**(2n)) and det(Sigma) (~x**(6n)) would
        # overflow float64; the rows carry ln sigma_U.
        model = PolynomialModel(400)
        rows = moments(model, 3.0)
        for name in FIELDS:
            assert np.isfinite(getattr(rows, name)).all(), name
        expected = float(moments_mp(model, 3.0).log_sigma_u)
        assert rows.log_sigma_u[0] == pytest.approx(expected, rel=1e-14)


def assert_matches_direct_sums(model, x, rho_abs=0.0):
    rows = moments(model, x)
    ref = moments_mp(model, x)
    for name in ("sigma_w_over_b", "rho", "one_minus_rho_sq"):
        expected = float(getattr(ref, name))
        abs_tol = rho_abs if name == "rho" else 0.0
        assert getattr(rows, name)[0] == pytest.approx(expected, rel=1e-12, abs=abs_tol), name
    expected = float(ref.log_sigma_u)
    assert rows.log_sigma_u[0] == pytest.approx(expected, rel=1e-12, abs=1e-12)


class TestAgainstDirectSums:
    @pytest.mark.parametrize("n,x", DIRECT_SUM_POINTS)
    def test_matches_to_1e12(self, n, x):
        # The oracle conditions exact integer Gram sums; 1 - rho^2 falls to
        # 4e-34 at (10^4, 1e13) and to 1e-26 at 1e-13, and is still
        # resolved to 1e-12.
        assert_matches_direct_sums(PolynomialModel(n), x)

    @pytest.mark.parametrize("x", (1e-9, -1e-9, 0.0))
    def test_constant_term_matches_to_1e12(self, x):
        # With a constant term the origin is regular and takes plain rows;
        # at x = 0 rho is 0 exactly, so it is held to an absolute 1e-15.
        assert_matches_direct_sums(PolynomialModel(10, sigma0=1.0), x, rho_abs=1e-15)

    @pytest.mark.parametrize("x", (1e-9, 1e-13))
    def test_inner_rows_near_the_origin(self, x):
        # Near-origin rows (basis triangular in x) resolve 1 - rho^2 ~ x^2,
        # and a count from there evaluates.
        model = PolynomialModel(10)
        result = expected_count(model, CountQuery(x, 10.0 * x, 1.0))
        assert math.isfinite(result.value) and result.value >= 0.0
        assert_matches_direct_sums(model, x)

    def test_tiny_points_evaluate(self):
        # Down to the smallest subnormal: sigma_U ~ x^2 lives in its log,
        # and 1 - rho^2 ~ x^2 underflows to 0 with rho = -1, the limit.
        xs = np.array([1e-200, -5e-324, 1e-300])
        model = PolynomialModel(10)
        rows = moments(model, xs)
        for name in FIELDS:
            assert np.isfinite(getattr(rows, name)).all(), name
        assert ((rows.one_minus_rho_sq >= 0.0) & (rows.one_minus_rho_sq <= 1.0)).all()
        assert rows.rho == pytest.approx(-1.0, abs=1e-15)
        expected = [float(moments_mp(model, x).log_sigma_u) for x in xs.tolist()]
        assert rows.log_sigma_u == pytest.approx(expected, rel=1e-12)
        # sigma_U -> 0: every maximum lies below u > 0, none below u < 0,
        # and sigma_W / B -> 2 (Q'' = 2 A_2 given A_1 = 0), so 1 / pi
        for x in xs.tolist():
            assert maxima_density(model, x, 1.0) == pytest.approx(1.0 / math.pi, rel=1e-12)
            assert maxima_density(model, x, -1.0) == 0.0

    @pytest.mark.parametrize("n", (3, 10, 10_000))
    def test_huge_points_evaluate(self, n):
        # Past |x| ~ 1e154, y^2 = 1/x^2 underflows: rho = -1 and
        # 1 - rho^2 = 0 in float64, and nothing raises.
        xs = np.array([1e154, -1e200, 1e300, -1e300, 1.7e308])
        model = PolynomialModel(n)
        rows = moments(model, xs)
        for name in FIELDS:
            assert np.isfinite(getattr(rows, name)).all(), name
        expected = [float(moments_mp(model, x).log_sigma_u) for x in xs.tolist()]
        assert rows.log_sigma_u == pytest.approx(expected, rel=1e-12)
        assert (rows.one_minus_rho_sq[1:] == 0.0).all()
        assert rows.rho[1:] == pytest.approx(-1.0, abs=1e-15)


class TestDegeneracies:
    def test_fewer_than_three_sources(self):
        with pytest.raises(DegenerateModel, match="only 2 independent"):
            moments(PolynomialModel(2), 0.7)
        with pytest.raises(DegenerateModel, match="only 2 independent"):
            moments(PolynomialModel(5, sigma=(1, 0, 0, 1, 0)), 0.7)

    def test_origin_without_constant_term(self):
        # Every A_j has zero mean contribution at x = 0, so Q(0) = 0 a.s.;
        # with a constant term Q(0) = D_0 given Q'(0) = D_0 + D_1 = 0 has
        # variance 1/2.
        for x in (0.0, -0.0):
            with pytest.raises(DegenerateCovariance, match="deterministic"):
                moments(PolynomialModel(5), x)
            rows = moments(PolynomialModel(5, sigma0=1.0), x)
            assert rows.log_sigma_u[0] == pytest.approx(0.5 * math.log(0.5), rel=1e-15)

    def test_non_finite_x(self):
        with pytest.raises(ValueError):
            moments(PolynomialModel(5), math.inf)
        with pytest.raises(ValueError):
            moments(PolynomialModel(5), math.nan)
