"""Tests for the KronMom moment-matching estimator."""

from __future__ import annotations

import hashlib

import numpy as np
import pytest

from repro.core.estimator import PrivateKroneckerEstimator
from repro.errors import EstimationError, ValidationError
from repro.graphs import Graph
from repro.graphs.datasets import load_dataset
from repro.kronecker.initiator import Initiator
from repro.kronecker.kronmom import (
    DISTANCES,
    NORMALIZATIONS,
    KronMomEstimator,
    MomentMatchResult,
)
from repro.kronecker.moments import expected_statistics
from repro.kronecker.sampling import sample_skg
from repro.stats.counts import MatchingStatistics


class TestNoiselessRecovery:
    """Feeding exact expected statistics must recover the generator almost
    exactly — the strongest possible correctness check for the solver."""

    @pytest.mark.parametrize(
        "theta",
        [
            Initiator(0.99, 0.45, 0.25),
            Initiator(0.9, 0.6, 0.1),
            Initiator(0.8, 0.5, 0.4),
        ],
    )
    def test_recovers_generator(self, theta):
        k = 12
        stats = expected_statistics(theta, k)
        result = KronMomEstimator().fit_statistics(stats, k)
        assert result.initiator.distance(theta) < 0.02

    def test_core_periphery_recovery(self):
        # c = 0 corner (the AS20 shape in the paper's Table 1).
        theta = Initiator(1.0, 0.6, 0.0)
        stats = expected_statistics(theta, 12)
        result = KronMomEstimator().fit_statistics(stats, 12)
        assert result.initiator.distance(theta) < 0.03


class TestFitOnSampledGraphs:
    def test_sampled_graph_recovery(self):
        theta = Initiator(0.99, 0.45, 0.25)
        graph = sample_skg(theta, 12, seed=0)
        result = KronMomEstimator().fit(graph)
        assert result.initiator.distance(theta) < 0.12

    def test_k_inferred_from_padding(self):
        graph = Graph(5, [(0, 1), (1, 2), (2, 3), (3, 4), (0, 2)])
        result = KronMomEstimator(grid_points=11).fit(graph)
        assert result.k == 3

    def test_too_small_graph_rejected(self):
        with pytest.raises(EstimationError):
            KronMomEstimator().fit(Graph(1))


class TestObjectiveOptions:
    @pytest.mark.parametrize("distance", sorted(DISTANCES))
    @pytest.mark.parametrize("normalization", sorted(NORMALIZATIONS))
    def test_all_combinations_run(self, distance, normalization):
        theta = Initiator(0.9, 0.5, 0.2)
        stats = expected_statistics(theta, 8)
        estimator = KronMomEstimator(
            distance=distance, normalization=normalization, grid_points=11,
            n_refinements=2,
        )
        result = estimator.fit_statistics(stats, 8)
        assert isinstance(result, MomentMatchResult)
        assert result.initiator.distance(theta) < 0.25

    def test_feature_subsets(self):
        theta = Initiator(0.9, 0.5, 0.2)
        stats = expected_statistics(theta, 10)
        estimator = KronMomEstimator(features=("edges", "hairpins", "triangles"))
        result = estimator.fit_statistics(stats, 10)
        assert result.features == ("edges", "hairpins", "triangles")
        assert result.initiator.distance(theta) < 0.1

    def test_unknown_distance_rejected(self):
        with pytest.raises(ValidationError):
            KronMomEstimator(distance="manhattan")

    def test_unknown_normalization_rejected(self):
        with pytest.raises(ValidationError):
            KronMomEstimator(normalization="max")

    def test_empty_features_rejected(self):
        with pytest.raises(ValidationError):
            KronMomEstimator(features=())


class TestRobustness:
    def test_negative_statistics_floored(self):
        # DP noise can push counts negative; the solver must stay sane.
        stats = MatchingStatistics(
            edges=500.0, hairpins=2000.0, tripins=4000.0, triangles=-50.0
        )
        result = KronMomEstimator().fit_statistics(stats, 10)
        assert result.observed.triangles == 1.0
        theta = result.initiator
        assert 0.0 <= theta.c <= theta.a <= 1.0

    def test_result_canonical(self):
        stats = expected_statistics(Initiator(0.2, 0.5, 0.9), 8)
        result = KronMomEstimator().fit_statistics(stats, 8)
        assert result.initiator.a >= result.initiator.c

    def test_objective_nonnegative(self):
        stats = expected_statistics(Initiator(0.9, 0.5, 0.2), 8)
        result = KronMomEstimator().fit_statistics(stats, 8)
        assert result.objective >= 0.0

    def test_noiseless_objective_near_zero(self):
        stats = expected_statistics(Initiator(0.9, 0.5, 0.2), 8)
        result = KronMomEstimator().fit_statistics(stats, 8)
        assert result.objective < 1e-6

    def test_deterministic(self):
        stats = expected_statistics(Initiator(0.9, 0.5, 0.2), 9)
        first = KronMomEstimator().fit_statistics(stats, 9)
        second = KronMomEstimator().fit_statistics(stats, 9)
        assert first.initiator == second.initiator


def _fit_digest(results) -> str:
    """sha256 of the fits' exact initiators and objectives, via their reprs.

    ``Initiator.__repr__`` rounds to four places, so the raw floats are
    hashed instead.
    """
    observed = [
        (result.initiator.a, result.initiator.b, result.initiator.c, result.objective)
        for result in results
    ]
    return hashlib.sha256(repr(observed).encode()).hexdigest()[:16]


def _noisy_statistics(k: int, seed: int) -> MatchingStatistics:
    """Expected statistics of a fixed initiator, perturbed multiplicatively."""
    exact = expected_statistics(Initiator(0.95, 0.55, 0.2), k)
    noise = 1.0 + 0.3 * np.random.default_rng(seed).standard_normal(4)
    return MatchingStatistics(*(float(value) * float(factor)
                                for value, factor in zip(exact, noise)))


class TestFitGoldens:
    """Whole-fit goldens: every distance/normalization pair, two feature
    sets, three Kronecker orders, and Algorithm 1 end to end on two
    datasets.  Pins that the Nelder–Mead refinement's objective returns
    the same bits however it is evaluated."""

    KS = (8, 13, 18)
    FEATURE_SETS = (None, ("edges", "hairpins", "triangles"))
    GOLDENS = {
        ("absolute", "expected"): "2f63575ff1ae8575",
        ("absolute", "expected_squared"): "61dbc052d48f6a72",
        ("absolute", "observed"): "fc271d89dee8c345",
        ("absolute", "observed_squared"): "41b5d5f75331d247",
        ("squared", "expected"): "55b148749b51e0b5",
        ("squared", "expected_squared"): "3a7e89caf28ca83e",
        ("squared", "observed"): "27f200b1c93dc0d2",
        ("squared", "observed_squared"): "c7592458782cfd68",
    }
    PRIVATE_GOLDENS = {"ca-grqc": "e5c929528ec5b1c1", "as20": "cbe0ca60b23d8b84"}

    @pytest.mark.parametrize("distance, normalization", sorted(GOLDENS))
    def test_fit_statistics(self, distance, normalization):
        results = []
        for features in self.FEATURE_SETS:
            options = {} if features is None else {"features": features}
            estimator = KronMomEstimator(
                distance=distance, normalization=normalization, **options
            )
            for k in self.KS:
                results.append(estimator.fit_statistics(_noisy_statistics(k, seed=k), k))
        assert _fit_digest(results) == self.GOLDENS[(distance, normalization)]

    @pytest.mark.parametrize("dataset", sorted(PRIVATE_GOLDENS))
    def test_private_estimator(self, dataset):
        graph = load_dataset(dataset)
        results = [
            PrivateKroneckerEstimator(0.2, 0.01, seed=seed).fit(graph).moment_result
            for seed in (1, 2, 3)
        ]
        assert _fit_digest(results) == self.PRIVATE_GOLDENS[dataset]
