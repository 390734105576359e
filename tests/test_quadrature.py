"""Adaptive quadrature primitives against closed-form integrals.

Integrands are array callables: each call receives the nodes of one round
of Gauss-Kronrod panels (every initial panel, or both halves of a
bisection), 15 per panel.
"""

import math

import numpy as np
import pytest

from rice_maxima.quadrature import (
    GAUSS_WEIGHTS,
    KRONROD_NODES,
    KRONROD_WEIGHTS,
    QuadResult,
    integrate_adaptive,
)


class TestKronrodRule:
    @staticmethod
    def monomial_integral(k):
        return 2.0 / (k + 1) if k % 2 == 0 else 0.0

    @pytest.mark.parametrize("k", range(23))
    def test_kronrod_15_exact_to_degree_22(self, k):
        got = float(KRONROD_WEIGHTS @ KRONROD_NODES**k)
        assert got == pytest.approx(self.monomial_integral(k), abs=1e-15)

    @pytest.mark.parametrize("k", range(14))
    def test_embedded_gauss_7_exact_to_degree_13(self, k):
        got = float(GAUSS_WEIGHTS @ KRONROD_NODES[1::2] ** k)
        assert got == pytest.approx(self.monomial_integral(k), abs=1e-15)

    def test_kronrod_15_is_not_exact_beyond_degree_23(self):
        # degree 24 is the first the rule misses (odd degrees vanish by symmetry)
        got = float(KRONROD_WEIGHTS @ KRONROD_NODES**24)
        assert abs(got - self.monomial_integral(24)) > 1e-12

    def test_embedded_rule_is_gauss_legendre_7(self):
        nodes, weights = np.polynomial.legendre.leggauss(7)
        assert np.max(np.abs(KRONROD_NODES[1::2] - nodes)) <= 1e-15
        assert np.max(np.abs(GAUSS_WEIGHTS - weights)) <= 1e-15

    def test_nodes_are_symmetric_and_interior(self):
        assert np.all(np.diff(KRONROD_NODES) > 0.0)
        assert np.array_equal(KRONROD_NODES, -KRONROD_NODES[::-1])
        assert np.array_equal(KRONROD_WEIGHTS, KRONROD_WEIGHTS[::-1])
        assert -1.0 < KRONROD_NODES[0] and KRONROD_NODES[-1] < 1.0


class TestFiniteInterval:
    @pytest.mark.parametrize(
        "f,a,b,exact",
        [
            (lambda x: x * x, 0.0, 3.0, 9.0),
            (np.sin, 0.0, math.pi, 2.0),
            (lambda x: np.exp(-x), 0.0, 5.0, 1.0 - math.exp(-5.0)),
            # Sharp interior peak forces genuine refinement.
            (lambda x: 1.0 / (1e-4 + (x - 0.3) ** 2), 0.0, 1.0, None),
        ],
    )
    def test_known_integrals(self, f, a, b, exact):
        if exact is None:
            w = 1e-2
            exact = (math.atan((b - 0.3) / w) - math.atan((a - 0.3) / w)) / w
        result = integrate_adaptive(f, np.linspace(a, b, 5), rel_tol=1e-10)
        assert result.converged
        assert result.value == pytest.approx(exact, rel=1e-10)
        assert abs(result.value - exact) <= 10.0 * max(result.abs_error, 1e-15)
        assert result.evaluations >= 4 * 15

    def test_endpoints_never_evaluated(self):
        def f(x):
            if np.any((x == 0.0) | (x == 1.0)):
                raise AssertionError("endpoint evaluated")
            return 1.0 / np.sqrt(x)  # integrable singularity at 0

        result = integrate_adaptive(
            f, np.linspace(0.0, 1.0, 5), rel_tol=1e-6, max_panels=4000
        )
        assert result.value == pytest.approx(2.0, rel=1e-4)

    def test_empty_interval_is_zero(self):
        result = integrate_adaptive(np.sin, np.linspace(2.0, 2.0, 5), rel_tol=1e-8)
        assert result == QuadResult(0.0, 0.0, 0, True)
        empty = integrate_adaptive(np.sin, np.linspace(3.0, 2.0, 5), rel_tol=1e-8)
        assert empty.value == 0.0

    def test_nan_edge_rejected(self):
        with pytest.raises(ValueError, match="NaN"):
            integrate_adaptive(np.sin, [0.0, math.nan, 1.0], rel_tol=1e-8)

    def test_decreasing_edges_rejected(self):
        with pytest.raises(ValueError, match="increasing"):
            integrate_adaptive(np.sin, [0.0, 2.0, 1.0, 3.0], rel_tol=1e-8)

    def test_refinement_stops_before_an_edge_is_evaluated(self):
        # the singularity at x = 1 needs panels narrower than a float step
        # there; refinement must stop unconverged instead of landing on it
        result = integrate_adaptive(
            lambda x: 1.0 / np.sqrt(1.0 - x), [0.0, 1.0], rel_tol=1e-12, max_panels=4000
        )
        assert not result.converged
        assert math.isfinite(result.value) and math.isfinite(result.abs_error)
        assert result.value == pytest.approx(2.0, rel=1e-6)

    def test_infinite_value_is_not_converged(self):
        # inf at a Kronrod-only node (the first) of the one initial panel
        # [0, 1] makes the error estimate inf as well; with no budget to
        # bisect, an infinite estimate must not pass the tolerance test
        node = 0.5 + 0.5 * KRONROD_NODES[0]
        result = integrate_adaptive(
            lambda x: np.where(x == node, np.inf, 1.0),
            [0.0, 1.0],
            rel_tol=1e-8,
            max_panels=1,
        )
        assert result.pieces == result.panels == 1
        assert result.abs_error == math.inf
        assert not result.converged

    def test_infinite_panel_split_keeps_the_relative_test(self):
        # Splitting the initial panel, whose Kronrod estimate is inf, must
        # not leave a NaN running total (inf + (finite - inf)) behind: the
        # relative test would then read rel_tol * nan and refine to the
        # budget.  Once the inf node is gone, sqrt converges as it does alone.
        node = 0.5 + 0.5 * KRONROD_NODES[0]
        result = integrate_adaptive(
            lambda x: np.where(x == node, np.inf, np.sqrt(x)), [0.0, 1.0], rel_tol=1e-6
        )
        plain = integrate_adaptive(np.sqrt, [0.0, 1.0], rel_tol=1e-6)
        assert result.converged
        assert result.panels == plain.panels == 7
        assert result.value == plain.value

    def test_result_holds_plain_floats(self):
        result = integrate_adaptive(np.sin, [0.0, 1.0, math.inf], rel_tol=1e-3)
        assert type(result.value) is float
        assert type(result.abs_error) is float

    def test_budget_exhaustion_reported_not_hidden(self):
        f = lambda x: 1.0 / (1e-8 + (x - 0.37) ** 2)  # noqa: E731
        result = integrate_adaptive(
            f, np.linspace(0.0, 1.0, 5), rel_tol=1e-12, max_panels=6
        )
        assert not result.converged
        assert result.abs_error > 0.0
        assert result.panels == 6

    def test_kink_on_an_edge_is_exact_on_the_initial_panels(self):
        # |x - 0.3| is linear on either side of the edge at 0.3
        f = lambda x: np.abs(x - 0.3)  # noqa: E731
        result = integrate_adaptive(f, [0.0, 0.3, 1.0], rel_tol=1e-12)
        assert result.converged
        assert result.evaluations == 2 * 15
        assert result.pieces == result.panels == 2
        assert result.value == pytest.approx(0.045 + 0.245, abs=1e-15)

    def test_panels_count_the_bisections(self):
        # each bisection adds one panel and costs two panel evaluations
        f = lambda x: 1.0 / (1e-4 + (x - 0.3) ** 2)  # noqa: E731
        result = integrate_adaptive(f, [0.0, 0.5, 1.0], rel_tol=1e-10)
        assert result.converged
        assert result.pieces == 2
        assert result.panels > result.pieces
        assert result.evaluations == 15 * (2 * result.panels - result.pieces)

    def test_deterministic(self):
        f = lambda x: np.exp(-x * x) * np.cos(7.0 * x)  # noqa: E731
        edges = np.linspace(-2.0, 2.0, 5)
        first = integrate_adaptive(f, edges, rel_tol=1e-11)
        second = integrate_adaptive(f, edges, rel_tol=1e-11)
        assert first == second


class TestInfiniteEdges:
    def test_exponential_tail(self):
        result = integrate_adaptive(lambda t: np.exp(-t), [0.0, math.inf], rel_tol=1e-10)
        assert result.converged
        assert result.value == pytest.approx(1.0, rel=1e-9)

    def test_gaussian_tail_from_offset(self):
        result = integrate_adaptive(
            lambda t: np.exp(-t * t), [1.0, math.inf], rel_tol=1e-10
        )
        exact = 0.5 * math.sqrt(math.pi) * math.erfc(1.0)
        assert result.converged
        assert result.value == pytest.approx(exact, rel=1e-9)

    def test_algebraic_tail(self):
        result = integrate_adaptive(lambda t: t**-3.5, [1.0, math.inf], rel_tol=1e-10)
        assert result.converged
        assert result.value == pytest.approx(0.4, rel=1e-9)

    def test_whole_line(self):
        result = integrate_adaptive(
            lambda x: 1.0 / (1.0 + x * x), [-math.inf, math.inf], rel_tol=1e-10
        )
        assert result.converged
        assert result.pieces == 3  # s-edges -2, -1, 1, 2
        assert result.value == pytest.approx(math.pi, rel=1e-9)

    def test_slow_decay_flagged_unconverged(self):
        # the integral of 1/t over [1, inf) diverges
        result = integrate_adaptive(lambda t: 1.0 / t, [1.0, math.inf], rel_tol=1e-8)
        assert not result.converged
        assert math.isfinite(result.value)


def panel_by_panel(f):
    """``f`` evaluated on one 15-node panel at a time, as a lone-panel rule
    would call it."""
    return lambda x: np.concatenate([f(x[i : i + 15]) for i in range(0, len(x), 15)])


def counted(f, calls):
    def g(x):
        calls.append(len(x))
        return f(x)

    return g


class TestOneCallPerRound:
    CASES = {
        "finite": (lambda x: 1.0 / (1e-4 + (x - 0.3) ** 2), [0.0, 0.5, 1.0], {}),
        "whole-line": (
            lambda x: np.exp(-0.1 * x * x) * np.cos(3.0 * x),
            [-math.inf, 0.0, math.inf],
            {},
        ),
        "budget-exhausted": (
            lambda x: 1.0 / (1e-8 + (x - 0.37) ** 2),
            np.linspace(0.0, 1.0, 5),
            {"max_panels": 6},
        ),
    }

    @pytest.mark.parametrize("case", sorted(CASES))
    def test_bit_identical_to_panel_by_panel(self, case):
        f, edges, options = self.CASES[case]
        batched = integrate_adaptive(f, edges, rel_tol=1e-12, **options)
        alone = integrate_adaptive(panel_by_panel(f), edges, rel_tol=1e-12, **options)
        assert batched.panels > batched.pieces
        assert batched == alone

    def test_each_panel_summed_as_a_lone_15_vector(self):
        # a (k, 15) matrix product may sum a panel in another order
        f = lambda x: np.exp(np.sin(7.0 * x))  # noqa: E731
        edges = [0.0, 0.3, 0.7, 1.0]
        result = integrate_adaptive(f, edges, rel_tol=1e-2)
        assert result.pieces == result.panels == 3
        value = error = 0.0
        for a, b in zip(edges[:-1], edges[1:]):
            mid, half = 0.5 * (a + b), 0.5 * (b - a)
            v = f(mid + half * KRONROD_NODES)
            hi = half * float(KRONROD_WEIGHTS @ v)
            value += hi
            error += abs(hi - half * float(GAUSS_WEIGHTS @ v[1::2]))
        assert (result.value, result.abs_error) == (value, error)

    @pytest.mark.parametrize("case", sorted(CASES))
    def test_one_call_for_the_initial_panels_and_one_per_bisection(self, case):
        f, edges, options = self.CASES[case]
        calls = []
        result = integrate_adaptive(counted(f, calls), edges, rel_tol=1e-12, **options)
        bisections = result.panels - result.pieces
        assert calls == [15 * result.pieces] + [30] * bisections
        assert sum(calls) == result.evaluations
