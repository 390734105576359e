"""Improper kernel-product integrals: frozen pins and input validation."""

import numpy as np
import pytest

from rice_maxima import ToleranceNotMet, expansion, h_integral
from rice_maxima.kernels import all_kernels
from rice_maxima.reference import verify_constants

# 12-digit regression pins captured from a verified build (quadrature
# rel_tol 1e-9; the pin tolerance leaves room for node-level jitter only).
FROZEN = {
    (1, (1,)): 0.0278729677888,
    (1, (1, 3)): 0.0266236210659,
    (1, (1, 2)): 0.332766509605,
    (1, (1, 3, 4)): 0.29768242821,
    (2, (1,)): 0.10653154391,
    (2, (1, 3)): 0.0902745166386,
    (2, (1, 2)): 0.324070144999,
    (2, (1, 3, 4)): 0.224302475105,
    (3, (1,)): -0.25463857348,
    (3, (1, 3)): -0.208625255669,
    (3, (1, 2)): -4.80806147334,
    (3, (1, 3, 4)): -2.77468347396,
    (4, (1,)): -0.114641416055,
    (4, (1, 3)): -0.0801099545699,
    (4, (1, 2)): -0.776933227956,
    (4, (1, 3, 4)): -0.182010414658,
}


def integral_at(family: int, pair, rel_tol: float) -> float:
    """``h_integral`` with the kernel products integrated to ``rel_tol``
    instead of 1e-9; the cache of integrals is left empty."""
    expansion._integrals.cache_clear()
    try:
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(expansion, "_QUAD_REL_TOL", rel_tol)
            return h_integral(family, pair)
    finally:
        expansion._integrals.cache_clear()


class TestFrozenValues:
    @pytest.mark.parametrize("family,pair", sorted(FROZEN), ids=str)
    def test_pinned_to_twelve_digits(self, family, pair):
        assert h_integral(family, pair) == pytest.approx(
            FROZEN[(family, pair)], rel=1e-10
        )

    @pytest.mark.parametrize("family", [1, 2, 3, 4])
    def test_tolerance_consistency(self, family):
        # A much looser quadrature tolerance must land on the same value
        # well within its own (coarser) accuracy claim.
        for pair in ((1,), (1, 2), (1, 3), (1, 3, 4)):
            coarse = integral_at(family, pair, 1e-6)
            assert coarse == pytest.approx(h_integral(family, pair), rel=1e-5)

    @pytest.mark.parametrize("family,pair", sorted(FROZEN), ids=str)
    def test_converges_at_the_tightest_tolerance(self, family, pair):
        # h_integral raises ToleranceNotMet when its integral does not
        # converge.  The graded initial panels resolve every kernel product
        # well past the default rel_tol 1e-9: the worst gap to the rel_tol
        # 1e-12 value is ~3e-13 (family 1, pair (1, 3)).
        tight = integral_at(family, pair, 1e-12)
        assert h_integral(family, pair) == pytest.approx(tight, rel=1e-12, abs=0.0)

    def test_returns_a_plain_float(self):
        assert type(h_integral(1, (1,))) is float

    def test_pair_order_and_duplicates_are_normalized(self):
        assert h_integral(1, (3, 1)) == h_integral(1, (1, 3))
        assert h_integral(2, (1, 1, 3)) == h_integral(2, (1, 3))

    def test_signs_by_family(self):
        # Tail families integrate a nonnegative kernel product; the
        # unit-interval families are dominated by their tail subtraction.
        for pair in ((1,), (1, 2), (1, 3), (1, 3, 4)):
            assert h_integral(1, pair) > 0.0
            assert h_integral(2, pair) > 0.0
            assert h_integral(3, pair) < 0.0
            assert h_integral(4, pair) < 0.0


def test_unconverged_integral_raises(monkeypatch):
    # Without the rounding-noise floor on the tail residual, the family-3
    # damped-slope integral refines towards t = inf and cannot converge.
    monkeypatch.setattr(expansion, "_NOISE", 0.0)
    with pytest.raises(ToleranceNotMet, match="rel_tol=1e-12") as info:
        integral_at(3, (1, 3, 4), 1e-12)
    assert not info.value.result.converged


class TestValidation:
    def test_bad_family(self):
        with pytest.raises(ValueError, match="family"):
            h_integral(0, (1,))
        with pytest.raises(ValueError, match="family"):
            h_integral(5, (1,))
        # integers only, as for the degree: no bools, no floats
        with pytest.raises(ValueError, match="family"):
            h_integral(True, (1,))
        with pytest.raises(ValueError, match="family"):
            h_integral(1.0, (1,))

    @pytest.mark.parametrize(
        "pair", [(), (2,), (1, 4), (2, 3), (1, 2, 3, 4), (1, 3.7), (1.0,), (True,), 1]
    )
    def test_bad_pair(self, pair):
        with pytest.raises(ValueError, match="pair"):
            h_integral(1, pair)


class TestKernelCache:
    @staticmethod
    def kernel_calls(monkeypatch, compute, rel_tol=None):
        """The t-node arrays ``all_kernels`` receives while ``compute()``
        runs on an empty cache of integrals (at ``rel_tol``, if given),
        and what ``compute()`` returned."""
        calls = []

        def recorded(ts):
            calls.append(ts.copy())
            return all_kernels(ts)

        monkeypatch.setattr(expansion, "all_kernels", recorded)
        if rel_tol is not None:
            monkeypatch.setattr(expansion, "_QUAD_REL_TOL", rel_tol)
        expansion._integrals.cache_clear()
        try:
            return calls, compute()
        finally:
            expansion._integrals.cache_clear()

    @pytest.mark.parametrize("family", [1, 2, 3, 4])
    def test_one_kernel_pass_serves_every_family(self, family, monkeypatch):
        # whichever family is asked for first, its integral makes the one
        # pass of the initial round, on which all sixteen converge without
        # bisection
        def compute():
            h_integral(family, (1,))
            for other in (1, 2, 3, 4):
                for pair in ((1,), (1, 2), (1, 3), (1, 3, 4)):
                    h_integral(other, pair)
            return expansion._integrals()

        calls, results = self.kernel_calls(monkeypatch, compute)
        pieces = len(expansion._EDGES) - 1
        assert [len(ts) for ts in calls] == [15 * pieces]
        assert len(results) == 16
        assert all(r.pieces == r.panels == pieces for r in results.values())

    def test_verify_constants_makes_one_kernel_pass(self, monkeypatch):
        calls, rows = self.kernel_calls(monkeypatch, verify_constants)
        assert len(rows) == 28
        assert [len(ts) for ts in calls] == [15 * (len(expansion._EDGES) - 1)]

    @pytest.mark.parametrize("family", [1, 2, 3, 4])
    def test_every_node_evaluated_once_in_whole_rounds(self, family, monkeypatch):
        # at rel_tol 1e-12 the integrals bisect, this family's among them,
        # some of them the same panels
        calls, results = self.kernel_calls(
            monkeypatch, expansion._integrals, rel_tol=1e-12
        )
        nodes = np.concatenate(calls)
        assert len(np.unique(nodes)) == len(nodes)
        # one call for the initial round all sixteen share, then at most
        # one per bisection
        bisections = sum(r.panels - r.pieces for r in results.values())
        own = [r for (f, _), r in results.items() if f == family]
        assert sum(r.panels - r.pieces for r in own) > 0
        assert len(calls[0]) == 15 * results[family, (1,)].pieces
        assert all(len(ts) == 30 for ts in calls[1:])
        assert 1 < len(calls) <= 1 + bisections
