"""Tests for the KronFit estimator."""

from __future__ import annotations

import hashlib

import numpy as np
import pytest

from repro.errors import EstimationError, KernelUnavailableError
from repro.graphs import Graph
from repro.kronecker.initiator import Initiator
from repro.kronecker.kronfit import KronFitEstimator
from repro.kronecker.sampling import sample_skg
from repro.native.chain import MULTICHAIN_KERNEL

from chain_engines import BACKENDS, kronfit


class TestKronFit:
    @pytest.fixture(scope="class")
    def fitted(self):
        graph = sample_skg(Initiator(0.95, 0.45, 0.2), 9, seed=5)
        estimator = KronFitEstimator(
            n_iterations=25,
            warmup_swaps=800,
            n_permutation_samples=3,
            sample_spacing=120,
            seed=0,
        )
        return estimator.fit(graph)

    def test_parameter_recovery(self, fitted):
        truth = Initiator(0.95, 0.45, 0.2)
        assert fitted.initiator.distance(truth) < 0.25

    def test_result_is_canonical(self, fitted):
        assert fitted.initiator.a >= fitted.initiator.c

    def test_k_matches_graph(self, fitted):
        assert fitted.k == 9

    def test_log_likelihoods_finite(self, fitted):
        assert all(np.isfinite(v) for v in fitted.log_likelihoods)

    def test_likelihood_improves_overall(self, fitted):
        values = fitted.log_likelihoods
        assert max(values[-5:]) >= values[0]

    def test_acceptance_rate_in_range(self, fitted):
        assert 0.0 < fitted.acceptance_rate < 1.0

    def test_trajectory_length(self, fitted):
        assert len(fitted.trajectory) == 25


class TestKronFitEdgeCases:
    def test_empty_graph_rejected(self):
        with pytest.raises(EstimationError):
            KronFitEstimator(n_iterations=1).fit(Graph(4))

    def test_pads_non_power_of_two(self):
        graph = Graph(5, [(0, 1), (1, 2), (2, 3), (3, 4), (0, 4)])
        result = KronFitEstimator(
            n_iterations=2, warmup_swaps=10, n_permutation_samples=1,
            sample_spacing=5, seed=0
        ).fit(graph)
        assert result.k == 3

    def test_deterministic_given_seed(self):
        graph = sample_skg(Initiator(0.9, 0.5, 0.2), 6, seed=1)
        config = dict(
            n_iterations=4, warmup_swaps=50, n_permutation_samples=2,
            sample_spacing=20,
        )
        first = KronFitEstimator(seed=3, **config).fit(graph)
        second = KronFitEstimator(seed=3, **config).fit(graph)
        assert first.initiator == second.initiator

    def test_parameters_stay_in_bounds(self):
        graph = sample_skg(Initiator(0.9, 0.5, 0.2), 6, seed=2)
        result = KronFitEstimator(
            n_iterations=6, warmup_swaps=50, n_permutation_samples=1,
            sample_spacing=20, learning_rate=1.0, seed=0
        ).fit(graph)
        for a, b, c in result.trajectory:
            assert 0.0 < a < 1.0
            assert 0.0 < b < 1.0
            assert 0.0 < c < 1.0

    def test_unavailable_backend_fails_loudly(self, monkeypatch):
        """A fit on a host without the chain kernel raises the structured
        error naming the compiler's message; nothing else fits instead."""
        monkeypatch.setattr(MULTICHAIN_KERNEL, "state", (None, "no C compiler found"))
        graph = Graph(4, [(0, 1), (2, 3)])
        with pytest.raises(KernelUnavailableError, match="no C compiler found"):
            KronFitEstimator(n_iterations=1).fit(graph)


class TestAcceptanceRateOnTinyGraphs:
    """KronFitResult.acceptance_rate bounds where proposal counting is
    most fragile: with 2 nodes every draw collides at probability 1/2 and
    must be resampled into the single distinct pair."""

    @pytest.mark.parametrize(
        "graph, expected_k",
        [
            (Graph(2, [(0, 1)]), 1),
            (Graph(4, [(0, 1), (1, 2)]), 2),
            (Graph(3, [(0, 1)]), 2),  # padded: isolated padding node
        ],
    )
    def test_rate_is_a_valid_fraction(self, graph, expected_k):
        result = KronFitEstimator(
            n_iterations=3, warmup_swaps=20, n_permutation_samples=2,
            sample_spacing=10, seed=0,
        ).fit(graph)
        assert result.k == expected_k
        assert 0.0 <= result.acceptance_rate <= 1.0

    def test_two_node_graph_always_accepts(self):
        # n=2: the only proposal swaps the two ids, and swapping back and
        # forth leaves the single-edge profile unchanged (delta = 0), so
        # every proposal is accepted.
        result = KronFitEstimator(
            n_iterations=2, warmup_swaps=10, n_permutation_samples=1,
            sample_spacing=5, seed=1,
        ).fit(Graph(2, [(0, 1)]))
        assert result.acceptance_rate == 1.0


def _multi_start_trial(rng, *, graph, config):
    """A 3-start fit as a trial (module-level so pool workers can run it);
    the fit's own seed is in ``config``, so the trial stream is unused."""
    del rng
    return KronFitEstimator(**config, n_starts=3).fit(graph)


class TestMultiStart:
    """Multi-start KronFit: determinism, selection, and metadata.

    The winner (and its whole trajectory) is bit-identical whether the
    fit runs in-process or inside a pool trial,
    n_starts=1 is the historical single-chain path, and log-likelihood
    ties resolve to the lowest start index.
    """

    CONFIG = dict(
        n_iterations=3, warmup_swaps=50, n_permutation_samples=2,
        sample_spacing=20, seed=11,
    )

    @pytest.fixture(scope="class")
    def graph(self):
        return sample_skg(Initiator(0.9, 0.5, 0.2), 6, seed=4)

    def test_n_starts_1_is_the_single_chain_fit(self, graph):
        default = KronFitEstimator(**self.CONFIG).fit(graph)
        explicit = KronFitEstimator(**self.CONFIG, n_starts=1).fit(graph)
        assert default == explicit
        assert explicit.n_starts == 1
        assert explicit.start == 0
        assert explicit.start_log_likelihoods == ()

    @pytest.mark.parametrize("n_jobs", [1, 2])
    def test_winner_bit_identical_inside_pool_trials(self, graph, n_jobs):
        from repro.runtime import TrialSpec, run_trials

        reference = KronFitEstimator(**self.CONFIG, n_starts=3).fit(graph)
        specs = [
            TrialSpec(
                fn=_multi_start_trial,
                params={"graph": graph, "config": self.CONFIG},
                index=index,
            )
            for index in range(2)
        ]
        report = run_trials(specs, seed=0, n_jobs=n_jobs)
        for result in report.results:
            assert result == reference
            assert result.trajectory == reference.trajectory
            assert result.log_likelihoods == reference.log_likelihoods

    def test_winner_has_best_final_log_likelihood(self, graph):
        result = KronFitEstimator(**self.CONFIG, n_starts=3).fit(graph)
        assert result.n_starts == 3
        assert len(result.start_log_likelihoods) == 3
        assert result.log_likelihoods[-1] == max(result.start_log_likelihoods)
        assert (
            result.start_log_likelihoods[result.start]
            == result.log_likelihoods[-1]
        )

    def test_starts_explore_different_modes(self, graph):
        result = KronFitEstimator(**self.CONFIG, n_starts=3).fit(graph)
        assert len(set(result.start_log_likelihoods)) > 1

    def test_n_starts_validated(self):
        with pytest.raises(Exception):
            KronFitEstimator(n_starts=0)


def _fit_digest(result) -> str:
    """sha256 of the fit's observable numbers, via their exact reprs."""
    observed = (
        result.initiator,
        result.log_likelihoods,
        result.trajectory,
        result.acceptance_rate,
        result.start_log_likelihoods,
    )
    return hashlib.sha256(repr(observed).encode()).hexdigest()[:16]


class TestFitGoldens:
    """Fit-level goldens: whole KronFitResults pinned as digests.

    Captured from the single-chain kernel and the pool-era fit paths, so
    they pin that routing every fit through the batched multichain path
    changed no number — including, for a Generator seed, how far the
    caller's stream advanced.
    """

    CONFIG = dict(
        n_iterations=3, warmup_swaps=50, n_permutation_samples=2,
        sample_spacing=20,
    )
    GOLDENS = {
        "single-int-seed": "de88be8e2c5ddf75",
        "single-generator-seed": "40baeb0f0eae597c",
        "three-starts": "5dc1bfb9010177eb",
    }
    GENERATOR_NEXT_DRAW = 1204194536240269616

    @pytest.fixture(scope="class")
    def graph(self):
        return sample_skg(Initiator(0.9, 0.5, 0.2), 6, seed=4)

    @pytest.mark.parametrize("backend", BACKENDS)
    def test_single_start_int_seed(self, graph, backend):
        result = kronfit(backend, **self.CONFIG, seed=11).fit(graph)
        assert _fit_digest(result) == self.GOLDENS["single-int-seed"]

    @pytest.mark.parametrize("backend", BACKENDS)
    def test_single_start_generator_seed(self, graph, backend):
        rng = np.random.default_rng(77)
        result = kronfit(backend, **self.CONFIG, seed=rng).fit(graph)
        assert _fit_digest(result) == self.GOLDENS["single-generator-seed"]
        assert int(rng.integers(0, 2**63 - 1)) == self.GENERATOR_NEXT_DRAW

    @pytest.mark.parametrize("backend", BACKENDS)
    def test_three_starts(self, graph, backend):
        result = kronfit(backend, **self.CONFIG, seed=11, n_starts=3).fit(graph)
        assert _fit_digest(result) == self.GOLDENS["three-starts"]


class TestStartSelection:
    """The deterministic tie-break of the best-start rule."""

    def make_result(self, final_ll: float) -> "KronFitResult":
        from repro.kronecker.kronfit import KronFitResult

        return KronFitResult(
            initiator=Initiator(0.9, 0.5, 0.2),
            k=4,
            log_likelihoods=(final_ll - 1.0, final_ll),
            acceptance_rate=0.5,
            trajectory=((0.9, 0.5, 0.2),),
        )

    def test_best_wins(self):
        from repro.kronecker.kronfit import select_best_start

        results = [self.make_result(v) for v in (-10.0, -5.0, -7.0)]
        assert select_best_start(results) == 1

    def test_exact_tie_resolves_to_lowest_start(self):
        from repro.kronecker.kronfit import select_best_start

        results = [self.make_result(v) for v in (-5.0, -5.0, -5.0)]
        assert select_best_start(results) == 0

    def test_tie_with_later_better(self):
        from repro.kronecker.kronfit import select_best_start

        results = [self.make_result(v) for v in (-8.0, -5.0, -5.0)]
        assert select_best_start(results) == 1

    def test_empty_rejected(self):
        from repro.kronecker.kronfit import select_best_start

        with pytest.raises(EstimationError):
            select_best_start([])


class TestPerturbedInitialSigma:
    """The deterministic per-start correspondence perturbations."""

    @pytest.fixture(scope="class")
    def graph(self):
        from repro.graphs.operations import pad_to_power_of_two

        raw = sample_skg(Initiator(0.9, 0.5, 0.2), 5, seed=9)
        padded, _k = pad_to_power_of_two(raw)
        return padded

    def test_start_zero_is_degree_matched(self, graph):
        from repro.kronecker.kronfit import perturbed_initial_sigma
        from repro.kronecker.likelihood import degree_matched_initial_sigma

        assert np.array_equal(
            perturbed_initial_sigma(graph, 5, 0),
            degree_matched_initial_sigma(graph, 5),
        )

    def test_perturbations_are_permutations(self, graph):
        from repro.kronecker.kronfit import perturbed_initial_sigma

        for start in range(4):
            sigma = perturbed_initial_sigma(graph, 5, start)
            assert np.array_equal(np.sort(sigma), np.arange(graph.n_nodes))

    def test_deterministic_per_start(self, graph):
        from repro.kronecker.kronfit import perturbed_initial_sigma

        for start in range(3):
            a = perturbed_initial_sigma(graph, 5, start)
            b = perturbed_initial_sigma(graph, 5, start)
            assert np.array_equal(a, b)

    def test_starts_differ(self, graph):
        from repro.kronecker.kronfit import perturbed_initial_sigma

        sigmas = [perturbed_initial_sigma(graph, 5, s) for s in range(3)]
        assert not np.array_equal(sigmas[0], sigmas[1])
        assert not np.array_equal(sigmas[1], sigmas[2])
