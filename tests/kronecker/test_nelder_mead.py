"""``_nelder_mead`` against ``scipy.optimize.minimize(method="Nelder-Mead")``.

KronMom's refinement stage runs an in-module copy of scipy's Nelder–Mead
on Python floats.  It must reproduce scipy bit for bit: the same
sequence of evaluated points (hence the same branch taken at every
iteration), the same final vertex and the same reported minimum.  The
objectives below cover random KronMom fits and each branch of the
algorithm — expansion, both contractions, shrink — plus tied and NaN
vertex values, which reach the ``np.argsort`` reordering.
"""

from __future__ import annotations

import math

import numpy as np
import pytest
import scipy.optimize

from repro.kronecker import kronmom
from repro.kronecker.kronmom import KronMomEstimator, _nelder_mead, _simplex_order
from repro.kronecker.moments import expected_feature_vector
from repro.stats.counts import MatchingStatistics

OPTIONS = {"xatol": 1e-6, "fatol": 1e-10, "maxiter": 2000}


def _run_both(objective, start, options=OPTIONS):
    """Both optimizers on ``objective``: ((x, fun, trace), (x, fun, trace))."""
    ours_trace: list[tuple] = []
    scipy_trace: list[tuple] = []

    def ours_fn(point):
        value = objective(list(point))
        ours_trace.append((tuple(point), value))
        return value

    def scipy_fn(point):
        value = objective(point.tolist())
        scipy_trace.append((tuple(point.tolist()), value))
        return value

    x, fun = _nelder_mead(ours_fn, list(start), **options)
    result = scipy.optimize.minimize(
        scipy_fn, np.array(start, dtype=np.float64), method="Nelder-Mead",
        options=options,
    )
    return (x, fun, ours_trace), (result.x.tolist(), float(result.fun), scipy_trace)


def _same_float(a: float, b: float) -> bool:
    return (math.isnan(a) and math.isnan(b)) or (a == b and math.copysign(1, a) ==
                                                 math.copysign(1, b))


def _assert_identical(ours, theirs):
    x, fun, trace = ours
    expected_x, expected_fun, expected_trace = theirs
    assert len(trace) == len(expected_trace)
    for (point, value), (expected_point, expected_value) in zip(trace, expected_trace):
        assert point == expected_point
        assert _same_float(value, expected_value)
    assert x == expected_x
    assert _same_float(fun, expected_fun)


def _kronmom_objective(observed: list[float], k: int):
    """The refinement objective KronMom builds (default Dist/Norm)."""
    dist = kronmom.DISTANCES["squared"]
    norm = kronmom.NORMALIZATIONS["observed_squared"]

    def objective(params):
        x, y, z = params
        a, b, c = (min(max(v, 0.0), 1.0) for v in (x, y, z))
        penalty = abs(x - a) + abs(y - b) + abs(z - c)
        expected = expected_feature_vector(a, b, c, k, kronmom.DEFAULT_FEATURES)
        total = 0.0
        for obs, exp in zip(observed, expected):
            total += dist(obs, exp) / max(abs(norm(obs, exp)), 1e-12)
        return total + penalty * 1e3

    return objective


class TestAgainstScipy:
    @pytest.mark.parametrize("seed", range(8))
    def test_random_kronmom_fits(self, seed):
        rng = np.random.default_rng(seed)
        a, b, c = sorted(rng.random(3), reverse=True)
        k = int(rng.integers(8, 16))
        truth = expected_feature_vector(a, b, c, k, kronmom.DEFAULT_FEATURES)
        observed = (np.array(truth) * rng.uniform(0.7, 1.3, 4)).tolist()
        objective = _kronmom_objective(observed, k)
        for start in (rng.random(3), np.array([rng.random(), 0.0, rng.random()])):
            _assert_identical(*_run_both(objective, start.tolist()))

    def test_expansion_on_a_linear_objective(self):
        """A descent direction that never ends: reflections improve on
        the best vertex and expansions improve further, until maxiter."""
        _assert_identical(*_run_both(lambda p: p[0] + 2.0 * p[1] - p[2],
                                     [0.3, 0.2, 0.1], dict(OPTIONS, maxiter=60)))

    def test_contractions_on_a_quadratic(self):
        """Converging on a bowl takes both outside and inside contractions."""
        def bowl(p):
            return (p[0] - 0.7) ** 2 + 3.0 * (p[1] - 0.1) ** 2 + 0.5 * p[2] ** 2

        _assert_identical(*_run_both(bowl, [0.2, 0.9, 0.4]))

    def test_shrink_and_ties_on_a_spike(self):
        """Only the start scores 0; everything else ties at 1.  No
        reflection or contraction improves the worst vertex, so every
        iteration shrinks (N + 2 = 5 evaluations) and every reordering
        sorts tied values through ``np.argsort``."""
        start = [0.4, 0.5, 0.6]

        def spike(p):
            return 0.0 if p == start else 1.0

        ours, theirs = _run_both(spike, start, dict(OPTIONS, maxiter=40))
        _assert_identical(ours, theirs)
        assert len(ours[2]) == 4 + 5 * 39

    def test_nan_vertices(self):
        """A NaN vertex sorts last under argsort until a finite point
        replaces it (the start's y-step lands in the hole)."""
        def holed(p):
            if p[1] > 0.52:
                return float("nan")
            return (p[0] - 0.3) ** 2 + (p[1] - 0.5) ** 2 + (p[2] - 0.2) ** 2

        _assert_identical(*_run_both(holed, [0.3, 0.5, 0.2]))

    def test_nan_minimum(self):
        """NaN everywhere but the start: no NaN comparison succeeds, so
        every iteration shrinks, and the reported minimum is NaN, as
        ``np.min`` over the final values makes it."""
        start = [0.4, 0.5, 0.6]

        def desert(p):
            return 0.0 if p == start else float("nan")

        ours, theirs = _run_both(desert, start, dict(OPTIONS, maxiter=30))
        _assert_identical(ours, theirs)
        assert ours[0] == start
        assert math.isnan(ours[1])


class TestSimplexOrder:
    def test_distinct_values_sort_ascending(self):
        assert _simplex_order([3.0, 1.0, 2.0, 0.5]) == [3, 1, 2, 0]

    @pytest.mark.parametrize("values", [
        [1.0, 1.0, 0.0, 1.0],
        [2.0, 2.0, 2.0, 2.0],
        [0.0, -0.0, 1.0, 2.0],
        [float("nan"), 1.0, 0.0, 3.0],
    ])
    def test_ties_and_nan_follow_numpy_argsort(self, values):
        assert _simplex_order(values) == np.argsort(np.array(values)).tolist()

    def test_every_four_value_pattern(self):
        """All 4⁴ patterns over four values: the 24 distinct ones take
        the ``sorted`` path, every tie pattern the argsort fallback."""
        patterns = np.array(np.meshgrid(*[range(4)] * 4)).reshape(4, -1).T
        for pattern in patterns.astype(np.float64):
            assert _simplex_order(pattern.tolist()) == np.argsort(pattern).tolist()


class TestKronMomRefinement:
    def test_fit_statistics_match_a_scipy_refinement(self, monkeypatch):
        """A whole KronMom fit, on the default engine, equals one whose
        refinement runs the numpy oracle with scipy's Nelder–Mead."""
        observed = MatchingStatistics(23628.0, 584162.0, 14041912.0, 1822.0)
        estimator = KronMomEstimator()
        ours = estimator.fit_statistics(observed, 13)
        # The compiled engine calls _nelder_mead only for flagged restarts.
        monkeypatch.setenv("REPRO_KERNEL_BACKEND", "numpy")

        def scipy_nelder_mead(func, x0, *, xatol, fatol, maxiter):
            result = scipy.optimize.minimize(
                lambda p: func(p.tolist()), np.array(x0), method="Nelder-Mead",
                options={"xatol": xatol, "fatol": fatol, "maxiter": maxiter},
            )
            return result.x.tolist(), result.fun

        monkeypatch.setattr(kronmom, "_nelder_mead", scipy_nelder_mead)
        theirs = estimator.fit_statistics(observed, 13)
        assert ours == theirs
