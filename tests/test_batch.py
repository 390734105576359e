"""The batched moments/density kernel against its one-point views."""

import math
from dataclasses import replace

import numpy as np
import pytest

from rice_maxima import (
    DegenerateCovariance,
    PolynomialModel,
    maxima_density,
    moments,
    split_points,
)
from rice_maxima.moments import _CHUNK_ELEMENTS
from rice_maxima.quadrature import KRONROD_NODES
from oracles import density_mp, moments_mp

INF = math.inf
DEGREES = (3, 10, 100, 1000, 10_000)
LEVELS = (-0.5, 1.0, INF)


def layer_width(n):
    """Half-width of the innermost layer around +-1 that ``split_points``
    cuts out: 10/n, capped at 1/2."""
    return min(0.5, 10.0 / n)


def six_piece_nodes(n):
    """Two points in each of six regions of the line, from the far negative
    tail to the far positive tail: the tails beyond the layers, the layers
    within ``layer_width(n)`` of -1 and +1, and either side of 0 between."""
    d = layer_width(n)
    return np.array(
        [
            -1e4, -1.0 - 4.0 * d,  # negative tail
            -1.0 - 0.7 * d, -1.0 + 0.2 * d,  # layer around -1
            0.6 * (-1.0 + d), -1e-3,  # (-1 + d, 0)
            2e-3, 0.4 * (1.0 - d),  # (0, 1 - d)
            1.0 - 0.1 * d, 1.0 + 0.9 * d,  # layer around +1
            1.0 + 1.5 * d, 7e3,  # positive tail
        ]
    )


def straddling_panel(n, centre):
    """The 15 Kronrod nodes of a layer panel centred on ``centre`` = +-1."""
    return centre + 0.5 * layer_width(n) * KRONROD_NODES


def test_layer_width_is_the_innermost_cut():
    for n in DEGREES:
        d = layer_width(n)
        assert min(c for c in split_points(n) if c > 1.0) == pytest.approx(1.0 + d)


def assert_matches_scalar(model, xs, u):
    batch = maxima_density(model, xs, u)
    assert batch.shape == xs.shape
    for x, value in zip(xs.tolist(), batch.tolist()):
        # a fresh model, so the point is computed and not read from the memo
        alone = maxima_density(replace(model), x, u)
        assert type(alone) is float
        assert value == pytest.approx(alone, rel=1e-15, abs=0.0)


@pytest.mark.parametrize("n", DEGREES)
@pytest.mark.parametrize("u", LEVELS)
def test_batch_matches_scalar_in_all_six_pieces(n, u):
    assert_matches_scalar(PolynomialModel(n), six_piece_nodes(n), u)


@pytest.mark.parametrize("n", DEGREES)
@pytest.mark.parametrize("centre", (-1.0, 1.0))
def test_panel_straddling_the_unit_circle(n, centre):
    xs = straddling_panel(n, centre)
    assert (np.abs(xs) < 1.0).any() and (np.abs(xs) > 1.0).any()
    assert_matches_scalar(PolynomialModel(n), xs, 1.0)


@pytest.mark.parametrize("n", (1000, 10_000))
def test_batch_split_into_chunks(n):
    xs = np.concatenate([six_piece_nodes(n), straddling_panel(n, 1.0)])
    rows_per_chunk = max(1, _CHUNK_ELEMENTS // (n + 1))
    assert len(xs) > rows_per_chunk  # the kernel really works chunk by chunk
    assert_matches_scalar(PolynomialModel(n), xs, 1.0)


@pytest.mark.parametrize("n", DEGREES)
def test_moments_view_is_bit_equal_to_the_batch(n):
    # plain, peeled and near-origin rows (|x| < 2^-10) in one batch
    model = PolynomialModel(n)
    near_origin = [5e-4, -3e-7, 1e-300]
    xs = np.concatenate([six_piece_nodes(n), straddling_panel(n, -1.0), near_origin])
    rows = moments(model, xs)
    for i, x in enumerate(xs.tolist()):
        one = moments(PolynomialModel(n), x)
        for name, column in one._asdict().items():
            assert column.tolist() == [getattr(rows, name)[i]], name


@pytest.mark.parametrize("n,x", [(10, 0.4), (100, -2.5), (1000, 1.02), (10_000, 1.3)])
def test_level_ratio_matches_scaled_arithmetic(n, x):
    # At n = 10^4 and x = 1.3, sigma_U ~ 1e1139 overflows float64; the rows
    # carry ln sigma_U, and the density forms q = u / sigma_U from it, the
    # oracles in mpmath.
    model = PolynomialModel(n)
    rows = moments(model, x)
    log_sigma_u = moments_mp(model, x).log_sigma_u
    assert rows.log_sigma_u[0] == pytest.approx(float(log_sigma_u), rel=1e-14, abs=1e-12)
    for u in (-3.0, 0.0, 0.5, 1e300):
        expected = float(density_mp(model, x, u))
        assert maxima_density(model, x, u) == pytest.approx(expected, rel=1e-12, abs=0.0)


class TestFailures:
    def test_failing_batch_names_a_failing_node(self):
        # A model without constant term is degenerate at x = 0 only: far
        # points evaluate, and the error names x = 0.
        xs = np.array([0.3, 3e12, 0.0, 0.5, 1e300])
        with pytest.raises(DegenerateCovariance, match="deterministic") as info:
            maxima_density(PolynomialModel(5), xs, 1.0)
        assert info.value.x == 0.0
        values = maxima_density(PolynomialModel(5), xs[xs != 0.0], 1.0)
        assert np.isfinite(values).all() and (values >= 0.0).all()

    def test_first_failing_node_in_batch_order(self):
        # Both -0.0 and 0.0 fail; the error names the first in batch order,
        # told apart by its sign, and the scalar path fails there too.
        xs = np.array([2.0, 3e12, -0.0, 5.0, 0.0, 1e12])
        with pytest.raises(DegenerateCovariance, match="deterministic") as info:
            maxima_density(PolynomialModel(3), xs, INF)
        assert info.value.x == 0.0
        assert math.copysign(1.0, info.value.x) == -1.0
        with pytest.raises(DegenerateCovariance):
            maxima_density(PolynomialModel(3), info.value.x, INF)

    def test_non_finite_node_rejected(self):
        with pytest.raises(ValueError, match="finite"):
            maxima_density(PolynomialModel(5), np.array([0.5, np.nan]), 1.0)

    def test_two_dimensional_batch_rejected(self):
        with pytest.raises(ValueError, match="1-D"):
            moments(PolynomialModel(5), np.full((2, 2), 0.5))
