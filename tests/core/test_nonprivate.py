"""Tests for the uniform estimator front door."""

from __future__ import annotations

import pytest

from repro.core.nonprivate import (
    EstimatorResult,
    fit_kronfit,
    fit_kronmom,
    fit_private,
)
from repro.kronecker.initiator import Initiator
from repro.kronecker.sampling import sample_skg


@pytest.fixture(scope="module")
def graph():
    return sample_skg(Initiator(0.9, 0.5, 0.2), 8, seed=2)


class TestFrontDoor:
    def test_kronmom(self, graph):
        result = fit_kronmom(graph)
        assert isinstance(result, EstimatorResult)
        assert result.method == "KronMom"
        assert result.k == 8

    def test_kronfit(self, graph):
        result = fit_kronfit(
            graph, n_iterations=3, warmup_swaps=50, n_permutation_samples=1,
            sample_spacing=20, seed=0,
        )
        assert result.method == "KronFit"
        assert 0.0 <= result.initiator.c <= result.initiator.a <= 1.0

    def test_private(self, graph):
        result = fit_private(graph, epsilon=1.0, delta=0.01, seed=0)
        assert result.method == "Private"
        assert result.details.epsilon == 1.0

    def test_sample_graph_from_result(self, graph):
        result = fit_kronmom(graph)
        synthetic = result.sample_graph(seed=0)
        assert synthetic.n_nodes == 2**result.k

    def test_all_methods_agree_on_k(self, graph):
        mom = fit_kronmom(graph)
        private = fit_private(graph, epsilon=1.0, delta=0.01, seed=0)
        assert mom.k == private.k == 8
