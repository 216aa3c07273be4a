"""Tests for the exact SKG samplers (grass-hopping vs naive)."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import ValidationError
from repro.kronecker.initiator import Initiator
from repro.kronecker.moments import expected_edges, expected_statistics
from repro.kronecker.sampling import (
    pair_probability,
    profile_class_size,
    sample_skg,
    sample_skg_statistics_batch,
)
from repro.reference.sampling import sample_skg_naive
from repro.stats.counts import matching_statistics


class TestProfileClasses:
    @given(k=st.integers(min_value=1, max_value=20))
    @settings(max_examples=20)
    def test_class_sizes_partition_all_pairs(self, k):
        total = sum(
            profile_class_size(k, z, x, k - z - x)
            for z in range(k + 1)
            for x in range(k - z + 1)
        )
        n = 2**k
        assert total == n * (n - 1) // 2

    def test_x_zero_classes_are_empty(self):
        # x = 0 means u = v: the diagonal, not a pair.
        assert profile_class_size(4, 4, 0, 0) == 0
        assert profile_class_size(4, 0, 0, 4) == 0

    def test_hand_counted_class(self):
        # k=2, z=1, x=1, o=0: choose the differing level (2 ways), one
        # orientation after the u<v canonicalization -> 2 pairs.
        assert profile_class_size(2, 1, 1, 0) == 2

    def test_profile_sum_mismatch_rejected(self):
        with pytest.raises(ValidationError):
            profile_class_size(3, 1, 1, 0)

    def test_pair_probability(self):
        assert pair_probability((0.9, 0.5, 0.2), 2, 1, 1) == pytest.approx(
            0.9**2 * 0.5 * 0.2
        )


class TestSamplerAgreement:
    """The two samplers must draw from the same distribution."""

    def test_per_pair_frequencies_match_probabilities(self):
        # k=2 (4 nodes, 6 pairs): empirical edge frequency per pair must
        # match the corresponding entry of Theta^{(2)}.
        from repro.kronecker.kronpower import edge_probability_matrix

        theta = Initiator(0.9, 0.5, 0.2)
        probabilities = edge_probability_matrix(theta, 2)
        n_samples = 4000
        counts = np.zeros((4, 4))
        for seed in range(n_samples):
            graph = sample_skg(theta, 2, seed=seed)
            for u, v in graph.edges():
                counts[u, v] += 1
        for u in range(4):
            for v in range(u + 1, 4):
                frequency = counts[u, v] / n_samples
                assert frequency == pytest.approx(
                    probabilities[u, v], abs=4 * np.sqrt(0.25 / n_samples)
                )

    def test_expected_counts_match_closed_forms(self):
        theta = Initiator(0.9, 0.5, 0.2)
        k = 6
        stats = expected_statistics(theta, k)
        rows = np.array(
            [
                tuple(matching_statistics(sample_skg(theta, k, seed=seed)))
                for seed in range(400)
            ]
        )
        means = rows.mean(axis=0)
        assert means[0] == pytest.approx(stats.edges, rel=0.05)
        assert means[1] == pytest.approx(stats.hairpins, rel=0.12)
        assert means[2] == pytest.approx(stats.tripins, rel=0.20)
        assert means[3] == pytest.approx(stats.triangles, rel=0.35)

    def test_naive_expected_edge_count(self):
        theta = Initiator(0.9, 0.5, 0.2)
        k = 5
        target = float(expected_edges(*theta, k))
        counts = [sample_skg_naive(theta, k, seed=s).n_edges for s in range(300)]
        standard_error = np.std(counts) / np.sqrt(len(counts))
        assert abs(np.mean(counts) - target) < 4 * standard_error + 1e-9

    def test_two_samplers_same_mean_edges(self):
        theta = Initiator(0.7, 0.4, 0.3)
        k = 5
        fast = np.mean([sample_skg(theta, k, seed=s).n_edges for s in range(250)])
        naive = np.mean(
            [sample_skg_naive(theta, k, seed=1000 + s).n_edges for s in range(250)]
        )
        # Both unbiased for the same target; allow Monte-Carlo slack.
        assert fast == pytest.approx(naive, rel=0.1)


class TestSamplerProperties:
    def test_node_count(self):
        assert sample_skg((0.9, 0.5, 0.2), 7, seed=0).n_nodes == 128

    def test_deterministic_given_seed(self):
        a = sample_skg((0.9, 0.5, 0.2), 8, seed=11)
        b = sample_skg((0.9, 0.5, 0.2), 8, seed=11)
        assert a == b

    def test_different_seeds_differ(self):
        a = sample_skg((0.9, 0.5, 0.2), 8, seed=1)
        b = sample_skg((0.9, 0.5, 0.2), 8, seed=2)
        assert a != b

    def test_zero_initiator_empty_graph(self):
        assert sample_skg((0.0, 0.0, 0.0), 6, seed=0).n_edges == 0

    def test_all_ones_initiator_complete_graph(self):
        graph = sample_skg((1.0, 1.0, 1.0), 4, seed=0)
        assert graph.n_edges == 16 * 15 // 2

    def test_b_zero_keeps_bit_profiles(self):
        # With b = 0, only pairs with x = 0 could appear - but x >= 1 for
        # every off-diagonal pair, so the graph must be empty.
        graph = sample_skg((1.0, 0.0, 1.0), 6, seed=0)
        assert graph.n_edges == 0

    @pytest.mark.parametrize("k", [32, 70])
    def test_order_past_kernel_bound_refused_before_any_draw(self, k):
        rng = np.random.default_rng(0)
        state = rng.bit_generator.state
        with pytest.raises(ValidationError, match="k must be <= 31"):
            sample_skg((0.9, 0.5, 0.2), k, seed=rng)
        with pytest.raises(ValidationError, match="k must be <= 31"):
            sample_skg_statistics_batch((0.9, 0.5, 0.2), k, [rng])
        assert rng.bit_generator.state == state

    def test_naive_size_guard(self):
        with pytest.raises(ValidationError):
            sample_skg_naive((0.9, 0.5, 0.2), 13)

    def test_large_k_fast(self):
        # The grass-hopper must handle paper-scale k quickly and exactly.
        graph = sample_skg(Initiator(0.99, 0.45, 0.25), 14, seed=0)
        expected = float(expected_edges(0.99, 0.45, 0.25, 14))
        assert graph.n_nodes == 2**14
        assert 0.8 * expected < graph.n_edges < 1.2 * expected

    @pytest.mark.parametrize(
        "sampler, k", [(sample_skg, 9), (sample_skg_naive, 6)]
    )
    def test_output_is_canonical(self, sampler, k):
        # Both samplers feed the trusted Graph constructor, so the arrays
        # they hand over must already satisfy the canonical invariants.
        graph = sampler((0.9, 0.5, 0.3), k, seed=3)
        u, v = graph.edge_arrays
        assert u.size == graph.n_edges > 0
        assert np.all(u < v)
        keys = u * graph.n_nodes + v
        assert np.all(np.diff(keys) > 0)
        rebuilt = type(graph).from_edge_arrays(graph.n_nodes, u, v)
        assert rebuilt == graph


class TestDistributionalEquality:
    """Stronger check: full per-class edge-count distributions agree."""

    @pytest.mark.parametrize("theta", [(0.9, 0.5, 0.2), (0.6, 0.6, 0.6)])
    def test_edge_count_distribution(self, theta):
        k = 4
        fast = np.array([sample_skg(theta, k, seed=s).n_edges for s in range(800)])
        naive = np.array(
            [sample_skg_naive(theta, k, seed=5000 + s).n_edges for s in range(800)]
        )
        from repro.stats.comparison import ks_distance

        # Two samples from the same discrete distribution: KS should be
        # small (crit value at alpha=0.001 for n=800 each is ~0.097).
        assert ks_distance(fast, naive) < 0.097
