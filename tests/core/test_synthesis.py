"""Tests for ensemble synthesis."""

from __future__ import annotations

import numpy as np
import pytest

from repro.core.baseline import DPDegreeSequenceSynthesizer
from repro.core.protocols import FixedInitiatorModel
from repro.core.synthesis import (
    ensemble_matching_statistics,
    sample_ensemble,
    sample_statistics,
)
from repro.errors import ValidationError
from repro.graphs.generators import barabasi_albert_graph
from repro.kronecker.initiator import Initiator
from repro.kronecker.moments import expected_statistics
from repro.stats.counts import matching_statistics


class TestSampleEnsemble:
    def test_count(self):
        graphs = sample_ensemble(Initiator(0.9, 0.5, 0.2), 6, 5, seed=0)
        assert len(graphs) == 5

    def test_reproducible(self):
        a = sample_ensemble(Initiator(0.9, 0.5, 0.2), 6, 4, seed=3)
        b = sample_ensemble(Initiator(0.9, 0.5, 0.2), 6, 4, seed=3)
        assert all(x == y for x, y in zip(a, b))

    def test_members_differ(self):
        graphs = sample_ensemble(Initiator(0.9, 0.5, 0.2), 6, 3, seed=1)
        assert graphs[0] != graphs[1]

    def test_zero_count(self):
        assert sample_ensemble(Initiator(0.9, 0.5, 0.2), 6, 0, seed=0) == []


class TestSampleStatistics:
    """One sample's row equals counting ``model.sample_graph`` on the
    same draws, whether the model counts in the sampler kernel (SKG) or
    through a graph (the DPDegree configuration model)."""

    @pytest.mark.parametrize(
        "model",
        [
            FixedInitiatorModel(Initiator(1.0, 0.537, 0.218), 9),
            DPDegreeSequenceSynthesizer(epsilon=1.0, seed=0).fit(
                barabasi_albert_graph(200, 3, seed=0)
            ),
        ],
        ids=["skg", "dpdegree"],
    )
    def test_equals_counting_the_sampled_graph(self, model):
        rng_a = np.random.default_rng(11)
        rng_b = np.random.default_rng(11)
        graph = model.sample_graph(seed=rng_a)
        row = sample_statistics(model, seed=rng_b)
        assert row == (graph.n_nodes, graph.n_edges, matching_statistics(graph))
        assert rng_a.bit_generator.state == rng_b.bit_generator.state


class TestEnsembleStatistics:
    def test_mean_tracks_expectation(self):
        theta = Initiator(0.9, 0.5, 0.2)
        k = 7
        means = ensemble_matching_statistics(theta, k, 200, seed=0)
        expected = expected_statistics(theta, k)
        assert means.edges == pytest.approx(expected.edges, rel=0.05)
        assert means.hairpins == pytest.approx(expected.hairpins, rel=0.15)

    @pytest.mark.parametrize("count", [0, -1])
    def test_empty_ensemble_rejected(self, count):
        with pytest.raises(ValidationError, match="count must be >= 1"):
            ensemble_matching_statistics(Initiator(0.9, 0.5, 0.2), 6, count)

    def test_deterministic(self):
        theta = Initiator(0.9, 0.5, 0.2)
        reference = ensemble_matching_statistics(theta, 6, 5, seed=4)
        assert ensemble_matching_statistics(theta, 6, 5, seed=4) == reference
        assert ensemble_matching_statistics(theta, 6, 5, seed=5) != reference

    @pytest.mark.parametrize("n_jobs", [1, 2])
    @pytest.mark.parametrize("seed", [0, 7])
    @pytest.mark.parametrize("k", [6, 13])
    def test_equals_counting_sample_ensemble(self, k, seed, n_jobs):
        """Counting in the sampler kernel gives, bit for bit, the mean of
        counting the graphs ``sample_ensemble`` builds from the same seed."""
        theta = Initiator(0.99, 0.45, 0.25)
        graphs = sample_ensemble(theta, k, 5, seed=seed)
        rows = np.array([tuple(matching_statistics(g)) for g in graphs], dtype=np.float64)
        means = ensemble_matching_statistics(theta, k, 5, seed=seed, n_jobs=n_jobs)
        assert tuple(means) == tuple(float(mean) for mean in rows.mean(axis=0))


class TestEnsembleStatisticsParallelism:
    """The per-realization trials run through the trial engine."""

    def test_bit_identical_across_n_jobs(self):
        theta = Initiator(0.9, 0.5, 0.2)
        serial = ensemble_matching_statistics(theta, 6, 6, seed=2, n_jobs=1)
        parallel = ensemble_matching_statistics(theta, 6, 6, seed=2, n_jobs=3)
        assert serial == parallel

    def test_honours_repro_n_jobs_env(self, monkeypatch):
        theta = Initiator(0.9, 0.5, 0.2)
        reference = ensemble_matching_statistics(theta, 6, 4, seed=2)
        monkeypatch.setenv("REPRO_N_JOBS", "2")
        assert ensemble_matching_statistics(theta, 6, 4, seed=2) == reference

