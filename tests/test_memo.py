"""The per-model memo of ``moments`` rows: reuse without moving a result."""

import importlib
import math
import sys
from concurrent.futures import ThreadPoolExecutor
from functools import partial

import numpy as np
import pytest

from rice_maxima import (
    CountQuery,
    DegenerateCovariance,
    PolynomialModel,
    expected_count,
    moments,
)

moments_module = importlib.import_module("rice_maxima.moments")

INF = math.inf
# a level sweep on the whole line, then nested intervals at u = 1
SWEEP_THEN_NESTED = [
    CountQuery(-INF, INF, -0.5),
    CountQuery(-INF, INF, 1.0),
    CountQuery(-INF, INF, INF),
    CountQuery(1.0, INF, 1.0),
    CountQuery(0.0, 1.0, 1.0),
]


def summary(result):
    meta = result.metadata
    return result.value, result.abs_error, meta["evaluations"], meta["panels"]


@pytest.mark.parametrize("n", (10, 1000))
@pytest.mark.parametrize("order", ("forward", "reversed"))
def test_counts_on_a_warm_model_equal_counts_on_fresh_ones(n, order):
    queries = SWEEP_THEN_NESTED[:: 1 if order == "forward" else -1]
    model = PolynomialModel(n)
    evaluations = 0
    for query in queries:
        warm = expected_count(model, query)
        assert summary(warm) == summary(expected_count(PolynomialModel(n), query))
        evaluations += warm.metadata["evaluations"]
    # the counts really shared nodes
    assert len(model._moments_memo) < evaluations / 2


def test_failing_batch_stores_nothing_and_fails_again():
    model = PolynomialModel(3)
    moments(model, 0.5)
    xs = np.array([0.5, 2.0, 0.0, 3.0])
    with pytest.raises(DegenerateCovariance) as first:
        moments(model, xs)
    assert len(model._moments_memo) == 1
    with pytest.raises(DegenerateCovariance) as again:
        moments(model, xs)
    assert again.value.x == first.value.x == 0.0
    assert str(again.value) == str(first.value)
    assert len(model._moments_memo) == 1


def test_memo_stops_at_its_cap(monkeypatch):
    monkeypatch.setattr(moments_module, "_MEMO_ROWS", 4)
    model = PolynomialModel(100)
    xs = np.linspace(-3.0, 3.0, 13)  # no node at 0, where the model is singular
    xs = xs[xs != 0.0]
    for half in (xs[::2], xs[1::2]):
        rows = moments(model, half)
        assert len(model._moments_memo) == 4
        fresh = moments(PolynomialModel(100), half)
        for name, column in rows._asdict().items():
            assert column.tolist() == getattr(fresh, name).tolist(), name
    again = moments(model, xs)
    assert len(model._moments_memo) == 4
    assert again.rho.tolist() == moments(PolynomialModel(100), xs).rho.tolist()


def test_signed_zeros_share_one_row():
    model = PolynomialModel(5, sigma0=1.0)
    plus = moments(model, 0.0)
    minus = moments(model, -0.0)
    assert len(model._moments_memo) == 1
    fresh = moments(PolynomialModel(5, sigma0=1.0), -0.0)
    for name in plus._fields:
        column = getattr(plus, name).tolist()
        assert column == getattr(minus, name).tolist() == getattr(fresh, name).tolist()
        assert all(math.isfinite(v) for v in column)


def test_threads_sharing_a_model_store_only_right_rows():
    # four threads switching often: overlapping batches race to store the
    # same points while the table grows
    batches = [np.linspace(0.05 + 0.01 * (i % 5), 2.5, 40 + i) for i in range(16)]
    points = np.concatenate(batches)
    fresh = moments(PolynomialModel(100), points)
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for _ in range(10):
            model = PolynomialModel(100)
            with ThreadPoolExecutor(4) as pool:
                list(pool.map(partial(moments, model), batches, timeout=120))
            assert len(model._moments_memo) == len(set(points.tolist()))
            warm = moments(model, points)
            for name in warm._fields:
                assert getattr(warm, name).tolist() == getattr(fresh, name).tolist(), name
    finally:
        sys.setswitchinterval(interval)
