"""Equivalence of KronMom's Nelder–Mead refinement kernel and its oracle.

:meth:`KronMomEstimator._refine_stage` runs its restarts on the compiled
kernel of :mod:`repro.native.kronmom`; its oracle,
:class:`repro.reference.kronmom.ReferenceKronMomEstimator`, runs every
restart on ``kronmom._nelder_mead`` over the float objective.  Both
evaluate the same expressions in the same order on the same cubes, so ``fit_statistics`` must return the same
initiator, objective and restart count — over every distance ×
normalisation, feature subsets, k = 1..64, grid and restart variants,
noisy, floored and negative observations, and restarts whose vertex
values tie (which the kernel hands back to the oracle).  The engines
are named ``numpy`` (the oracle) and ``cext`` (the kernel).
"""

from __future__ import annotations

import ctypes
import itertools
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.estimator import PrivateKroneckerEstimator
from repro.errors import KernelUnavailableError, ValidationError
from repro.kronecker import kronmom
from repro.kronecker.initiator import Initiator
from repro.kronecker.kronmom import (
    DEFAULT_FEATURES,
    DISTANCES,
    MAX_K,
    NORMALIZATIONS,
    KronMomEstimator,
)
from repro.kronecker.moments import expected_statistics
from repro.native import kronmom as native_kronmom
from repro.native.kronmom import KRONMOM_KERNEL
from repro.reference.kronmom import ReferenceKronMomEstimator
from repro.stats.counts import MatchingStatistics

NATIVE = ("cext",)


def _on(backend, estimator):
    """``estimator`` itself (``cext``), or its oracle twin (``numpy``)."""
    if backend == "cext":
        return estimator
    return ReferenceKronMomEstimator(
        distance=estimator.distance, normalization=estimator.normalization,
        features=estimator.features, grid_points=estimator.grid_points,
        n_refinements=estimator.n_refinements,
    )


def _fit(backend, estimator, observed, k):
    return _on(backend, estimator).fit_statistics(observed, k)


def _same_float(a: float, b: float) -> bool:
    return (math.isnan(a) and math.isnan(b)) or (
        a == b and math.copysign(1.0, a) == math.copysign(1.0, b)
    )


def _assert_same_fit(got, expected) -> None:
    assert got.initiator == expected.initiator
    assert _same_float(got.objective, expected.objective)
    assert got.n_restarts == expected.n_restarts
    assert got.observed == expected.observed


def _assert_engines_agree(backend, estimator, observed, k) -> None:
    expected = _fit("numpy", estimator, observed, k)
    got = _fit(backend, estimator, observed, k)
    _assert_same_fit(got, expected)


def _noisy_expectation(theta, k: int, seed: int, spread: float = 0.2) -> MatchingStatistics:
    """The expected statistics of ``theta`` at order ``k``, each scaled by
    a random factor in ``[1 − spread, 1 + spread]``."""
    rng = np.random.default_rng(seed)
    exact = np.array(expected_statistics(Initiator(*theta), k))
    return MatchingStatistics(*(exact * rng.uniform(1 - spread, 1 + spread, 4)).tolist())


AS20_RELEASE = MatchingStatistics(25199.21271269496, 499247.97515609174,
                                  14045579.427426348, 1532.639331576157)
FEATURE_SUBSETS = [
    DEFAULT_FEATURES,
    ("edges",),
    ("triangles",),
    ("edges", "hairpins"),
    ("tripins", "edges"),
    ("triangles", "hairpins", "edges"),
]


class TestObjectiveMatrix:
    @pytest.mark.parametrize("backend", NATIVE)
    @pytest.mark.parametrize(
        "distance,normalization", list(itertools.product(DISTANCES, NORMALIZATIONS))
    )
    def test_distance_by_normalization(self, backend, distance, normalization):
        estimator = KronMomEstimator(distance=distance, normalization=normalization)
        _assert_engines_agree(backend, estimator, AS20_RELEASE, 13)

    @pytest.mark.parametrize("backend", NATIVE)
    @pytest.mark.parametrize("features", FEATURE_SUBSETS, ids="-".join)
    def test_feature_subsets(self, backend, features):
        estimator = KronMomEstimator(features=features)
        observed = _noisy_expectation((0.9, 0.5, 0.3), 11, seed=len(features))
        _assert_engines_agree(backend, estimator, observed, 11)

    @pytest.mark.parametrize("backend", NATIVE)
    @pytest.mark.parametrize("k", range(1, MAX_K + 1))
    def test_every_order(self, backend, k):
        rng = np.random.default_rng(k)
        theta = sorted(rng.uniform(0.05, 1.0, 3).tolist(), reverse=True)
        observed = _noisy_expectation(theta, k, seed=k)
        estimator = KronMomEstimator(
            distance=("squared", "absolute")[k % 2],
            normalization=list(NORMALIZATIONS)[k % 4],
        )
        _assert_engines_agree(backend, estimator, observed, k)

    @pytest.mark.parametrize("backend", NATIVE)
    @pytest.mark.parametrize("grid_points,n_refinements", [(3, 1), (5, 2), (11, 9), (31, 5)])
    def test_grid_and_restart_variants(self, backend, grid_points, n_refinements):
        estimator = KronMomEstimator(grid_points=grid_points, n_refinements=n_refinements)
        _assert_engines_agree(backend, estimator, AS20_RELEASE, 13)


class TestObservations:
    @pytest.mark.parametrize("backend", NATIVE)
    @pytest.mark.parametrize("dataset", ["as20", "ca-grqc"])
    def test_private_releases(self, monkeypatch, backend, dataset):
        """Algorithm 1's own noisy statistics, end to end."""
        from repro.graphs.datasets import load_dataset

        graph = load_dataset(dataset)
        for seed in range(3):
            estimator = PrivateKroneckerEstimator(0.2, 0.01, seed=seed)
            with monkeypatch.context() as patch:
                patch.setattr(estimator, "_matcher", _on("numpy", estimator._matcher))
                expected = estimator.fit(graph)
            got = estimator.fit(graph)
            _assert_same_fit(got.moment_result, expected.moment_result)

    @pytest.mark.parametrize("backend", NATIVE)
    @pytest.mark.parametrize("observed", [
        MatchingStatistics(-5.0, -1e4, 0.5, -3.0),  # every value floored
        MatchingStatistics(1200.0, -40.0, 9.0e5, 0.0),  # some floored
        MatchingStatistics(1.0, 1.0, 1.0, 1.0),
        MatchingStatistics(3e30, 1e12, 5e40, 2e9),  # far from any fit
    ])
    def test_floored_and_negative(self, backend, observed):
        _assert_engines_agree(backend, KronMomEstimator(), observed, 10)

    @pytest.mark.parametrize("backend", NATIVE)
    @settings(max_examples=25, deadline=None)
    @given(
        values=st.lists(
            st.floats(min_value=-1e3, max_value=1e30), min_size=4, max_size=4
        ),
        k=st.integers(min_value=1, max_value=MAX_K),
        distance=st.sampled_from(sorted(DISTANCES)),
        normalization=st.sampled_from(sorted(NORMALIZATIONS)),
    )
    def test_generated_statistics(self, backend, values, k, distance, normalization):
        estimator = KronMomEstimator(distance=distance, normalization=normalization,
                                     grid_points=7, n_refinements=3)
        _assert_engines_agree(backend, estimator, MatchingStatistics(*values), k)


class TestTieFallback:
    @pytest.mark.parametrize("backend", NATIVE)
    def test_real_ties_are_flagged_and_still_match(self, backend):
        """Edges alone at k = 1 depend on b only, so simplex vertices that
        differ in a or c tie: the kernel flags those restarts and the
        oracle reruns them."""
        runs = native_kronmom.refine_restarts(
            KRONMOM_KERNEL.kernel(), [[0.5, 0.25, 0.0]], [100.0], 1,
            ("edges",), "squared", "observed_squared", xatol=1e-6, fatol=1e-10,
            maxiter=2000,
        )
        assert runs == [None]
        estimator = KronMomEstimator(features=("edges",))
        _assert_engines_agree(backend, estimator,
                              MatchingStatistics(0.3, 1, 1, 1), 1)

    @pytest.mark.parametrize("backend", NATIVE)
    @pytest.mark.parametrize("flagged", [(0,), (1, 3), (0, 1, 2, 3, 4)])
    def test_forced_flags_rerun_on_the_oracle(self, monkeypatch, backend, flagged):
        estimator = KronMomEstimator()
        expected = _fit("numpy", estimator, AS20_RELEASE, 13)
        real_refine = kronmom.refine_restarts
        oracle_calls = []
        real_nelder_mead = kronmom._nelder_mead

        def flagging_refine(*args, **kwargs):
            runs = real_refine(*args, **kwargs)
            return [None if index in flagged else run for index, run in enumerate(runs)]

        def counting_nelder_mead(*args, **kwargs):
            oracle_calls.append(args[1])
            return real_nelder_mead(*args, **kwargs)

        monkeypatch.setattr(kronmom, "refine_restarts", flagging_refine)
        monkeypatch.setattr(kronmom, "_nelder_mead", counting_nelder_mead)
        got = _fit(backend, estimator, AS20_RELEASE, 13)
        _assert_same_fit(got, expected)
        assert len(oracle_calls) == len(flagged)


class TestCubes:
    def test_batched_power_matches_per_triple_power(self):
        """The kernel's cubes come from one ``np.power`` over every
        pending point; the oracle cubes each point's triple on its own."""
        rng = np.random.default_rng(5)
        points = rng.uniform(0.0, 1.0, (700, 4, 3))
        points[0, 0] = (-0.0, 0.0, 1.0)
        batched = np.power(points, 3, np.empty_like(points))
        per_triple = np.array(
            [np.power(np.array(tuple(triple)), 3) for triple in points.reshape(-1, 3).tolist()]
        ).reshape(points.shape)
        assert batched.tobytes() == per_triple.tobytes()


class TestValidation:
    @pytest.mark.parametrize("backend", ["numpy", *NATIVE])
    @pytest.mark.parametrize("field", MatchingStatistics._fields)
    @pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
    def test_non_finite_observations_rejected(self, backend, field, value):
        observed = MatchingStatistics(10.0, 10.0, 10.0, 10.0)._replace(**{field: value})
        with pytest.raises(ValidationError, match=f"observed {field} must be finite"):
            _fit(backend, KronMomEstimator(), observed, 10)

    @pytest.mark.parametrize("backend", ["numpy", *NATIVE])
    @pytest.mark.parametrize("field", MatchingStatistics._fields)
    @pytest.mark.parametrize("value", [1.4e154, 1e160, 1e308])
    def test_observations_whose_square_overflows_rejected(
        self, backend, field, value
    ):
        """Squaring such a value overflows, which made every objective NaN
        and the fit a silent Initiator(0, 0, 0)."""
        observed = MatchingStatistics(10.0, 10.0, 10.0, 10.0)._replace(**{field: value})
        with pytest.raises(ValidationError, match=f"observed {field} = .* too large"):
            _fit(backend, KronMomEstimator(), observed, 64)

    @pytest.mark.parametrize("backend", ["numpy", *NATIVE])
    def test_largest_squarable_and_huge_negative_observations_fit(
        self, backend
    ):
        """1.3e154 still squares to a finite double; a huge negative value
        floors to 1 before anything squares it."""
        fit = _fit(backend, KronMomEstimator(), MatchingStatistics(*[1.3e154] * 4), 64)
        assert fit.objective == 4.0
        fit = _fit(backend, KronMomEstimator(), MatchingStatistics(10.0, -1e160, 10.0, 10.0), 10)
        assert math.isfinite(fit.objective)
        assert fit.observed.hairpins == 1.0

    @pytest.mark.parametrize("backend", ["numpy", *NATIVE])
    @pytest.mark.parametrize("k", [MAX_K + 1, 600])
    def test_orders_past_the_bound_rejected(self, backend, k):
        with pytest.raises(ValidationError, match=f"k must be <= {MAX_K}"):
            _fit(backend, KronMomEstimator(), MatchingStatistics(10.0, 10.0, 10.0, 10.0), k)

    @pytest.mark.parametrize("backend", NATIVE)
    def test_the_bound_reaches_the_largest_bases(self, backend):
        """Matching the all-ones initiator at k = MAX_K drives the search
        to the box corner, where every closed-form base is largest (16,
        for the tripin rows): no power overflows on either engine."""
        observed = expected_statistics(Initiator(1.0, 1.0, 1.0), MAX_K)
        expected = _fit("numpy", KronMomEstimator(), observed, MAX_K)
        assert math.isfinite(expected.objective)
        _assert_same_fit(_fit(backend, KronMomEstimator(), observed, MAX_K),
                         expected)


class TestProbe:
    def test_naming_an_unavailable_cext_fails_loudly(self, monkeypatch):
        """A fit of the as20 release without the kernel raises the
        structured error; no Python refinement runs in its place."""
        monkeypatch.setattr(KRONMOM_KERNEL, "state", (None, "no compiler"))
        with pytest.raises(KernelUnavailableError, match="no compiler"):
            KronMomEstimator().fit_statistics(AS20_RELEASE, 13)

    @pytest.mark.parametrize("backend", NATIVE)
    def test_smoke_test_passes_on_the_compiled_kernel(self, backend):
        native_kronmom._smoke_test(KRONMOM_KERNEL.kernel())

    @pytest.mark.parametrize("backend", NATIVE)
    def test_smoke_test_catches_a_wrong_objective(self, backend):
        kernel = KRONMOM_KERNEL.kernel()
        kept = []

        def wrong_normalization(n, config, *buffers):
            # Divides by the expected value where the observed one is asked for.
            wrong = np.ctypeslib.as_array(ctypes.cast(config, ctypes.POINTER(ctypes.c_int64)),
                                          (6,)).copy()
            wrong[2] = native_kronmom.NORMALIZATION_CODES["expected"]
            kept.append(wrong)
            return kernel(n, wrong.ctypes.data, *buffers)

        with pytest.raises(RuntimeError, match="kronmom kernel self-check"):
            native_kronmom._smoke_test(wrong_normalization)
