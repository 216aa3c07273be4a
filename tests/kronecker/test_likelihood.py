"""Tests for the KronFit likelihood machinery."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import ValidationError
from repro.graphs import Graph
from repro.kronecker.initiator import Initiator
from repro.kronecker.likelihood import (
    MultiChainSampler,
    PermutationSampler,
    ProfileLikelihood,
    _LogTables,
    clamped_rows,
    degree_matched_initial_sigma,
    edge_profiles,
    exact_log_likelihood,
    profile_histogram,
    profile_log_likelihoods,
)
from repro.kronecker.sampling import sample_skg
from repro.native.chain import MULTICHAIN_KERNEL
from repro.native.registry import NATIVE_BACKENDS


@pytest.fixture
def small_skg() -> Graph:
    return sample_skg(Initiator(0.9, 0.5, 0.2), 5, seed=3)


class TestEdgeProfiles:
    def test_identity_permutation_profiles(self):
        graph = Graph(4, [(0, 3), (1, 2)])
        z, x, o = edge_profiles(graph, np.arange(4), k=2)
        # (0,3): bits 00 vs 11 -> z=0, x=2, o=0; (1,2): 01 vs 10 -> x=2.
        np.testing.assert_array_equal(z, [0, 0])
        np.testing.assert_array_equal(x, [2, 2])
        np.testing.assert_array_equal(o, [0, 0])

    def test_profiles_sum_to_k(self, small_skg):
        k = 5
        z, x, o = edge_profiles(small_skg, np.arange(small_skg.n_nodes), k)
        np.testing.assert_array_equal(z + x + o, np.full(small_skg.n_edges, k))

    def test_wrong_size_graph_rejected(self):
        with pytest.raises(ValidationError):
            edge_profiles(Graph(3, [(0, 1)]), np.arange(3), k=2)

    def test_wrong_sigma_shape_rejected(self, small_skg):
        with pytest.raises(ValidationError):
            edge_profiles(small_skg, np.arange(4), k=5)

    def test_histogram_total_is_edge_count(self, small_skg):
        k = 5
        z, x, o = edge_profiles(small_skg, np.arange(small_skg.n_nodes), k)
        histogram = profile_histogram(z, x, o, k)
        assert histogram.sum() == small_skg.n_edges


class TestProfileLikelihoodValue:
    def test_matches_exact_on_sparse_graph(self, small_skg):
        # The Taylor approximation of the non-edge term is accurate when
        # all P_uv are small; compare against the O(N^2) exact likelihood.
        theta = Initiator(0.6, 0.3, 0.1)
        k = 5
        sigma = np.arange(small_skg.n_nodes)
        z, x, o = edge_profiles(small_skg, sigma, k)
        likelihood = ProfileLikelihood(profile_histogram(z, x, o, k), k)
        approximate = likelihood.log_likelihood(theta)
        exact = exact_log_likelihood(theta, small_skg, sigma, k)
        assert approximate == pytest.approx(exact, rel=0.02)

    def test_histogram_shape_validated(self):
        with pytest.raises(ValidationError):
            ProfileLikelihood(np.zeros((3, 4)), k=3)

    def test_likelihood_finite_at_extreme_parameters(self, small_skg):
        k = 5
        sigma = np.arange(small_skg.n_nodes)
        z, x, o = edge_profiles(small_skg, sigma, k)
        likelihood = ProfileLikelihood(profile_histogram(z, x, o, k), k)
        assert np.isfinite(likelihood.log_likelihood(Initiator(1.0, 1.0, 1.0)))
        assert np.isfinite(likelihood.log_likelihood(Initiator(0.0, 0.0, 0.0)))


class TestProfileLikelihoodGradient:
    def test_matches_finite_differences(self, small_skg):
        theta = Initiator(0.7, 0.4, 0.2)
        k = 5
        sigma = np.arange(small_skg.n_nodes)
        z, x, o = edge_profiles(small_skg, sigma, k)
        likelihood = ProfileLikelihood(profile_histogram(z, x, o, k), k)
        gradient = likelihood.gradient(theta)
        step = 1e-6
        for index, name in enumerate("abc"):
            params = {"a": theta.a, "b": theta.b, "c": theta.c}
            params[name] += step
            bumped = Initiator(**params)
            numeric = (
                likelihood.log_likelihood(bumped) - likelihood.log_likelihood(theta)
            ) / step
            assert gradient[index] == pytest.approx(numeric, rel=1e-3, abs=1e-2)


_UNIT = st.floats(0.0, 1.0)


class TestStackedLikelihood:
    @given(
        k=st.integers(1, 15),
        thetas=st.lists(st.tuples(_UNIT, _UNIT, _UNIT), min_size=1, max_size=4),
        n_samples=st.integers(1, 3),
        seed=st.integers(0, 2**32 - 1),
    )
    @settings(max_examples=100, deadline=None)
    def test_rows_equal_single_row_calls(self, k, thetas, n_samples, seed):
        """Row (p, s) of a stacked call is bit for bit the P = S = 1 call
        on that row, which is what makes chain s of a multi-start fit
        equal the solo fit of start s.  Θ spans the clamp's edges."""
        thetas = [Initiator(*theta) for theta in thetas]
        z, o = np.divmod(np.arange((k + 1) ** 2), k + 1)
        feasible = z + o <= k
        rng = np.random.default_rng(seed)
        histograms = (
            rng.integers(0, 2_000, size=(n_samples, len(thetas), feasible.size)) * feasible
        ).astype(np.float64)
        values, gradients = profile_log_likelihoods(
            _LogTables.stack(thetas, k), clamped_rows(thetas), histograms
        )
        assert values.shape == (n_samples, len(thetas))
        assert gradients.shape == (n_samples, len(thetas), 3)
        for p in range(n_samples):
            for s, theta in enumerate(thetas):
                solo = ProfileLikelihood(histograms[p, s].reshape(k + 1, k + 1), k)
                value = np.float64(solo.log_likelihood(theta))
                assert value.tobytes() == values[p, s].tobytes()
                assert solo.gradient(theta).tobytes() == gradients[p, s].tobytes()


class TestPermutationSampler:
    def test_swap_delta_matches_full_recompute(self, small_skg):
        theta = Initiator(0.7, 0.4, 0.2)
        sampler = PermutationSampler(small_skg, 5, theta)
        rng = np.random.default_rng(0)
        for _ in range(25):
            i = int(rng.integers(0, small_skg.n_nodes))
            j = int(rng.integers(0, small_skg.n_nodes))
            if i == j:
                continue
            before = sampler.edge_term()
            delta = sampler._swap_delta(i, j)
            sampler.sigma[i], sampler.sigma[j] = sampler.sigma[j], sampler.sigma[i]
            after = sampler.edge_term()
            sampler.sigma[i], sampler.sigma[j] = sampler.sigma[j], sampler.sigma[i]
            assert delta == pytest.approx(after - before, rel=1e-9, abs=1e-9)

    def test_sigma_stays_a_permutation(self, small_skg):
        sampler = PermutationSampler(small_skg, 5, Initiator(0.7, 0.4, 0.2))
        sampler.run(500, np.random.default_rng(1))
        assert sorted(sampler.sigma.tolist()) == list(range(small_skg.n_nodes))

    def test_acceptance_counting(self, small_skg):
        # Every draw-contract proposal is a real swap (i == j is resampled
        # away), so `proposed` counts exactly the requested steps.
        sampler = PermutationSampler(small_skg, 5, Initiator(0.7, 0.4, 0.2))
        sampler.run(300, np.random.default_rng(2))
        assert sampler.proposed == 300
        assert 0 <= sampler.accepted <= sampler.proposed

    def test_one_proposal_runs_count_every_proposal(self, small_skg):
        """``run(1, rng)`` is the single-proposal step: fifty of them count
        fifty proposals, each accepted at most once."""
        sampler = PermutationSampler(small_skg, 5, Initiator(0.7, 0.4, 0.2))
        rng = np.random.default_rng(4)
        outcomes = []
        for _ in range(50):
            before = sampler.accepted
            sampler.run(1, rng)
            outcomes.append(sampler.accepted - before)
        assert sampler.proposed == 50
        assert set(outcomes) <= {0, 1}
        assert sampler.accepted == sum(outcomes)

    def test_histogram_maintained_incrementally(self, small_skg):
        from repro.kronecker.likelihood import edge_profiles, profile_histogram

        sampler = PermutationSampler(small_skg, 5, Initiator(0.7, 0.4, 0.2))
        sampler.run(400, np.random.default_rng(6))
        z, x, o = edge_profiles(small_skg, sampler.sigma, 5)
        np.testing.assert_array_equal(
            sampler.histogram(), profile_histogram(z, x, o, 5)
        )

    def test_histogram_total_stays_edge_count(self, small_skg):
        sampler = PermutationSampler(small_skg, 5, Initiator(0.7, 0.4, 0.2))
        sampler.run(200, np.random.default_rng(8))
        assert sampler.histogram().sum() == small_skg.n_edges

    def test_set_sigma_rebuilds_histogram(self, small_skg):
        sampler = PermutationSampler(small_skg, 5, Initiator(0.7, 0.4, 0.2))
        sampler.run(100, np.random.default_rng(9))
        fresh = np.arange(small_skg.n_nodes, dtype=np.int64)
        sampler.set_sigma(fresh)
        other = PermutationSampler(small_skg, 5, Initiator(0.7, 0.4, 0.2), sigma=fresh)
        np.testing.assert_array_equal(sampler.histogram(), other.histogram())

    def test_set_theta_rebuilds_the_score_table(self, small_skg):
        sampler = PermutationSampler(small_skg, 5, Initiator(0.7, 0.4, 0.2))
        sampler.run(100, np.random.default_rng(11))
        theta = Initiator(0.9, 0.5, 0.2)
        sampler.set_theta(theta)
        fresh = PermutationSampler(small_skg, 5, theta, sigma=sampler.sigma)
        assert sampler.theta == theta
        assert sampler.edge_term() == fresh.edge_term()
        assert sampler._swap_delta(0, 1) == fresh._swap_delta(0, 1)

    def test_wrong_graph_size_rejected(self):
        with pytest.raises(ValidationError):
            PermutationSampler(Graph(3, [(0, 1)]), 2, Initiator(0.5, 0.5, 0.5))

    def test_negative_steps_rejected(self, small_skg):
        sampler = PermutationSampler(small_skg, 5, Initiator(0.7, 0.4, 0.2))
        with pytest.raises(ValidationError):
            sampler.run(-1, np.random.default_rng(0))


class TestInitialSigma:
    def test_is_permutation(self, small_skg):
        sigma = degree_matched_initial_sigma(small_skg, 5)
        assert sorted(sigma.tolist()) == list(range(32))

    def test_is_permutation_across_families(self):
        from repro.graphs.generators import complete_graph, star_graph

        for graph, k in (
            (star_graph(16), 4),
            (complete_graph(8), 3),
            (Graph(8, [(0, 1)]), 3),
            (Graph(4), 2),  # no edges: all degrees tie
        ):
            sigma = degree_matched_initial_sigma(graph, k)
            assert sorted(sigma.tolist()) == list(range(graph.n_nodes))

    def test_highest_degree_gets_fewest_one_bits(self, small_skg):
        sigma = degree_matched_initial_sigma(small_skg, 5)
        top_node = int(np.argmax(small_skg.degrees))
        assert sigma[top_node] == 0  # id 0 has popcount 0: highest expected degree

    def test_popcount_rank_breaks_id_ties_by_value(self):
        # All degrees equal (clique): nodes rank by index, so node i gets
        # the i-th id in (popcount, value) order — 0; 1, 2, 4; 3, 5, 6; 7.
        from repro.graphs.generators import complete_graph

        sigma = degree_matched_initial_sigma(complete_graph(8), 3)
        assert sigma.tolist() == [0, 1, 2, 4, 3, 5, 6, 7]

    def test_duplicate_degrees_rank_stably_by_node_index(self):
        # Leaves of a star all tie: the stable sort must hand them ids in
        # node order, and repeated calls must agree exactly.
        from repro.graphs.generators import star_graph

        graph = star_graph(8)
        sigma = degree_matched_initial_sigma(graph, 3)
        assert sigma[0] == 0  # the hub takes the highest-expected-degree id
        leaves = sigma[1:]
        assert leaves.tolist() == [1, 2, 4, 3, 5, 6, 7]
        np.testing.assert_array_equal(
            sigma, degree_matched_initial_sigma(star_graph(8), 3)
        )


def _backend_params() -> list:
    params = [pytest.param("numpy")]
    for name in NATIVE_BACKENDS:
        if MULTICHAIN_KERNEL.available(name):
            params.append(pytest.param(name))
        else:
            reason = f"{name} backend unavailable: {MULTICHAIN_KERNEL.error(name)}"
            params.append(pytest.param(name, marks=pytest.mark.skip(reason=reason)))
    return params


class TestSigmaValidation:
    """Only a permutation of 0 .. 2^k − 1 reaches an engine: an id outside
    it would index outside the profile cells (the C kernel would write
    past ``counts``), and a repeated id is not a correspondence."""

    PATH = Graph(4, [(0, 1), (1, 2), (2, 3)])
    THETA = Initiator(0.9, 0.5, 0.2)
    BAD = {
        "out-of-range": [0, 1, 2, 7],
        "negative": [0, -1, 2, 3],
        "duplicate": [0, 1, 1, 3],
        "float": [0.0, 1.0, 2.0, 3.0],
        "short": [0, 1, 2],
    }

    @pytest.mark.parametrize("backend", _backend_params())
    @pytest.mark.parametrize("bad", sorted(BAD))
    def test_bad_sigma_refused_before_any_run(self, backend, bad):
        sigma = np.array(self.BAD[bad])
        with pytest.raises(ValidationError, match="not a permutation"):
            MultiChainSampler(self.PATH, 2, [self.THETA], sigmas=[sigma], backend=backend)
        with pytest.raises(ValidationError, match="not a permutation"):
            PermutationSampler(self.PATH, 2, self.THETA, sigma=sigma, backend=backend)
        sampler = MultiChainSampler(self.PATH, 2, [self.THETA] * 2, backend=backend)
        before = sampler._sigma.copy(), sampler.histograms()
        with pytest.raises(ValidationError, match="not a permutation"):
            sampler.set_sigma(1, sigma)
        with pytest.raises(ValidationError, match="not a permutation"):
            sampler.chain(0).set_sigma(sigma)
        np.testing.assert_array_equal(sampler._sigma, before[0])
        np.testing.assert_array_equal(sampler.histograms(), before[1])
        sampler.run(200, [np.random.default_rng(0), np.random.default_rng(1)])
        assert sampler.histograms().sum(axis=(1, 2)).tolist() == [3, 3]
