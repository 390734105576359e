"""Boundary-layer kernels: precision cross-checks, tails, spot values."""

import math

import numpy as np
import pytest

from oracles import bracket_names, bracket_taylor, bracket_value, bracket_value_mp
from rice_maxima.kernels import (
    _BRACKETS,
    _DD_LIMIT,
    _SERIES_CUTOFF,
    _SERIES_TERMS,
    TAIL_LAWS,
    KernelId,
    all_kernels,
    h_kernel,
)

SWEEP = (0.01, 0.1, 0.3, 0.4499, 0.45, 0.4501, 0.55, 1.0, 3.0, 10.0, 40.0)

ALL_KERNELS = [KernelId(f, i) for f in (1, 2, 3, 4) for i in (1, 2, 3, 4)]

# Regression pins (12 digits captured from a verified build): H_{f,1..4} at
# nodes in each bracket regime, the same for every bracket — t = 0.1 is in
# the series regime, t = 1 and t = 3 in the double-double regime and t = 20
# in the float regime.
SPOT_VALUES = {
    0.1: {
        1: (1.030862600280e-02, 2.142110594925e01, 9.331826078174e-01, 1.998980351206e01),
        2: (6.389969159170e-02, 3.957082950461e00, 7.825823595359e-01, 3.096743312251e00),
        3: (1.099053882641e-02, 2.275229938012e01, 9.309148345253e-01, 2.118045301251e01),
        4: (1.486812986967e-01, 4.906824805579e-01, 1.445640902629e-01, 7.093506640978e-02),
    },
    1.0: {
        1: (7.561640971898e-03, 1.612371618863e01, 9.432010585771e-01, 1.520790617732e01),
        2: (3.733148738284e-02, 3.346055007513e00, 8.284329810784e-01, 2.771982324726e00),
        3: (1.431742624000e-02, 2.949531614733e01, 9.205448371974e-01, 2.715176100093e01),
        4: (1.574717128367e-01, 2.976076253721e00, 5.624858506239e-01, 1.674000783096e00),
    },
    3.0: {
        1: (3.419121372424e-03, 7.874774893718e00, 9.634781403257e-01, 7.587173470083e00),
        2: (9.349743002401e-03, 2.016986539592e00, 9.244025419113e-01, 1.864507484199e00),
        3: (2.198231329994e-02, 4.944135923040e01, 8.964738616002e-01, 4.432288623204e01),
        4: (2.038279486523e-01, 6.015634103941e00, 6.220521990626e-01, 3.742038423113e00),
    },
    20.0: {
        1: (1.616799741787e-05, 1.077343663409e-04, 9.987906388912e-01, 1.076040765882e-04),
        2: (1.493051434550e-05, 1.117064275086e-05, 9.988977859955e-01, 1.115833031198e-05),
        3: (1.028879487286e-02, 5.291509145422e02, 8.451546391543e-01, 4.472143502381e02),
        4: (3.149183286650e-02, 1.549193338463e01, 5.773502691749e-01, 8.944271909656e00),
    },
}


class TestBrackets:
    @pytest.mark.parametrize("name", bracket_names())
    def test_float_matches_arbitrary_precision(self, name):
        # Covers the series, double-double and float-row regimes.
        for t in SWEEP:
            f = bracket_value(name, t)
            m = float(bracket_value_mp(name, t, dps=60))
            if m == 0.0:
                assert abs(f) < 1e-20
            else:
                assert f == pytest.approx(m, rel=1e-11, abs=0.0), (name, t)

    @pytest.mark.parametrize("name", bracket_names())
    def test_double_double_rows_match_arbitrary_precision(self, name):
        # The rows cancel by up to ~1e16 between the series cutoff and the
        # switch to plain float rows; here they are summed in double-double,
        # for every bracket over the whole window.
        ts = np.linspace(_SERIES_CUTOFF, _DD_LIMIT, 122)[1:-1]
        got = bracket_value(name, ts)
        want = np.array([float(bracket_value_mp(name, t, dps=60)) for t in ts])
        np.testing.assert_allclose(got, want, rtol=1e-13, atol=0.0)

    @pytest.mark.parametrize("name", bracket_names())
    def test_float_rows_match_arbitrary_precision(self, name):
        # The calibration of _DD_LIMIT: from it on, every bracket's plain
        # float64 rows are accurate to ~1e-14.
        ts = np.linspace(_DD_LIMIT, 300.0, 80)
        got = bracket_value(name, ts)
        want = np.array([float(bracket_value_mp(name, t, dps=60)) for t in ts])
        np.testing.assert_allclose(got, want, rtol=2e-14, atol=0.0)

    @pytest.mark.parametrize("name", bracket_names())
    def test_continuous_across_both_regime_switches(self, name):
        for switch in (_SERIES_CUTOFF, _DD_LIMIT):
            ts = np.array([np.nextafter(switch, 0), switch, np.nextafter(switch, 9)])
            below, at, above = bracket_value(name, ts)
            assert at == pytest.approx(below, rel=1e-12, abs=0.0), (name, switch)
            assert above == pytest.approx(at, rel=1e-12, abs=0.0), (name, switch)

    @pytest.mark.parametrize("name", bracket_names())
    def test_series_coefficients_round_the_exact_fractions(self, name):
        exact = bracket_taylor(name, _SERIES_TERMS)
        bracket = _BRACKETS[name]
        assert all(c == 0 for c in exact[: bracket.lead])
        assert exact[bracket.lead] != 0
        assert bracket.series == tuple(float(c) for c in exact[bracket.lead :])

    @pytest.mark.parametrize("name", bracket_names())
    def test_value_at_a_node_does_not_depend_on_the_others(self, name):
        # One pass evaluates every bracket at every node of a round; a node
        # alone, in a shuffled subset or among 360 nodes (as many as a
        # kernel-tier round has) gets the same bits, in each regime.
        ts = np.geomspace(4.0**-9, 256.0, 360)
        regimes = (
            ts <= _SERIES_CUTOFF,
            (ts > _SERIES_CUTOFF) & (ts < _DD_LIMIT),
            ts >= _DD_LIMIT,
        )
        assert all(regime.any() for regime in regimes)
        whole = bracket_value(name, ts)
        alone = np.array([bracket_value(name, t) for t in ts])
        subset = np.random.default_rng(7).permutation(ts.size)[: ts.size // 3]
        np.testing.assert_array_equal(alone, whole)
        np.testing.assert_array_equal(bracket_value(name, ts[subset]), whole[subset])

    def test_unknown_bracket_name(self):
        with pytest.raises(KeyError):
            bracket_value("not-a-bracket", 1.0)


class TestKernelEvaluation:
    @pytest.mark.parametrize("family", [1, 2, 3, 4])
    def test_spot_values_at_one(self, family):
        for index, expected in zip((1, 2, 3, 4), SPOT_VALUES[1.0][family]):
            got = h_kernel(KernelId(family, index), 1.0)
            assert got == pytest.approx(expected, rel=1e-11), (family, index)

    @pytest.mark.parametrize("t", [t for t in sorted(SPOT_VALUES) if t != 1.0])
    def test_spot_values(self, t):
        for family, row in SPOT_VALUES[t].items():
            for index, expected in zip((1, 2, 3, 4), row):
                got = h_kernel(KernelId(family, index), t)
                assert got == pytest.approx(expected, rel=1e-11), (t, family, index)

    @pytest.mark.parametrize("kid", ALL_KERNELS, ids=str)
    def test_continuous_across_regime_switch(self, kid):
        lo = h_kernel(kid, _SERIES_CUTOFF - 1e-9)
        hi = h_kernel(kid, _SERIES_CUTOFF + 1e-9)
        assert hi == pytest.approx(lo, rel=1e-7, abs=1e-30)

    @pytest.mark.parametrize("kid", ALL_KERNELS, ids=str)
    def test_nonnegative_on_sweep(self, kid):
        for t in SWEEP:
            assert h_kernel(kid, t) >= 0.0

    def test_domain_validation(self):
        kid = KernelId(1, 1)
        for bad in (0.0, -1.0, math.inf, math.nan):
            with pytest.raises(ValueError):
                h_kernel(kid, bad)

    @pytest.mark.parametrize("bad", [0.0, math.nan, -2.0, math.inf])
    def test_array_domain_validation(self, bad):
        ts = np.array([0.5, bad, 2.0])
        with pytest.raises(ValueError, match="positive and finite"):
            h_kernel(KernelId(3, 1), ts)
        with pytest.raises(ValueError, match="positive and finite"):
            all_kernels(ts)
        # a 2-D t is refused as by moments and maxima_density
        with pytest.raises(ValueError, match="a float or a 1-D array"):
            h_kernel(KernelId(1, 1), np.full((2, 2), 2.0))
        with pytest.raises(ValueError, match="a float or a 1-D array"):
            all_kernels(np.full((2, 3), 2.0))

    @pytest.mark.parametrize("kid", ALL_KERNELS, ids=str)
    def test_array_matches_scalar_calls(self, kid):
        # Nodes in all three bracket regimes, in no particular order.
        ts = np.concatenate([np.geomspace(1e-6, 500.0, 40), [7.0, 0.45, 1.3, 0.451]])
        got = h_kernel(kid, ts)
        assert got.shape == ts.shape
        want = np.array([h_kernel(kid, float(t)) for t in ts])
        np.testing.assert_allclose(got, want, rtol=1e-15, atol=0.0)
        table = all_kernels(ts)
        assert table.shape == (4, 4, ts.size)
        np.testing.assert_array_equal(table[kid.family - 1, kid.index - 1], got)

    def test_float_in_gives_float_out(self):
        kid = KernelId(2, 3)
        for t in (1.0, np.float64(1.0), 1):
            value = h_kernel(kid, t)
            assert type(value) is float
            assert value == h_kernel(kid, np.array([1.0]))[0]

    def test_kernel_id_validation(self):
        with pytest.raises(ValueError, match="family"):
            KernelId(0, 1)
        with pytest.raises(ValueError, match="family"):
            KernelId(5, 2)
        with pytest.raises(ValueError, match="index"):
            KernelId(3, 0)
        with pytest.raises(ValueError, match="index"):
            KernelId(2, 7)
        # integers only, as for the degree: no bools, no floats
        with pytest.raises(ValueError, match="family"):
            KernelId(True, 2)
        with pytest.raises(ValueError, match="family"):
            KernelId(1.0, 2)
        with pytest.raises(ValueError, match="index"):
            KernelId(1, 2.0)
        with pytest.raises(ValueError, match="index"):
            KernelId(1, False)
        assert KernelId(np.int64(2), np.int64(3)) == KernelId(2, 3)


class TestTails:
    @pytest.mark.parametrize(
        "key", [k for k, law in sorted(TAIL_LAWS.items()) if law is not None], ids=str
    )
    def test_algebraic_tail_law(self, key):
        power, const = TAIL_LAWS[key]
        kid = KernelId(*key)
        # Constant: the two t^{-7/2} leads approach their law like 1 + c/t
        # with c ~ 3.3, the rest are converged to ~1e-4 by t = 500.
        slack = 0.01 if key in ((1, 1), (2, 1)) else 1e-3
        ratio = h_kernel(kid, 500.0) / (const * 500.0**power)
        assert ratio == pytest.approx(1.0, abs=slack)
        # Exponent, measured independently of the constant.
        measured = math.log(h_kernel(kid, 400.0) / h_kernel(kid, 100.0)) / math.log(4.0)
        assert measured == pytest.approx(power, abs=0.02)

    @pytest.mark.parametrize(
        "key", [k for k, law in sorted(TAIL_LAWS.items()) if law is None], ids=str
    )
    def test_exponential_decay(self, key):
        kid = KernelId(*key)
        assert h_kernel(kid, 40.0) <= h_kernel(kid, 20.0) * math.exp(-16.0)
        assert h_kernel(kid, 80.0) <= h_kernel(kid, 40.0) * math.exp(-16.0)
        assert h_kernel(kid, 80.0) < 1e-25
