"""Empirical differential-privacy checks on the mechanisms.

These tests verify the *defining inequality* of DP on concrete adjacent
inputs by histogram comparison: for outputs binned into B,

    P[M(x) ∈ B] ≤ e^ε · P[M(x') ∈ B] + slack,

with Monte-Carlo slack.  They cannot prove privacy, but they catch the
classic calibration bugs (wrong sensitivity, ε/scale inversions) that
unit tests on moments miss.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.graphs.generators import erdos_renyi_graph
from repro.privacy.degree_release import release_sorted_degrees
from repro.privacy.mechanisms import laplace_noise


def _histogram_ratio_ok(
    samples_a: np.ndarray,
    samples_b: np.ndarray,
    epsilon: float,
    *,
    n_bins: int = 30,
) -> bool:
    """Check the DP inequality on shared bins with 4-sigma Monte-Carlo slack."""
    low = min(samples_a.min(), samples_b.min())
    high = max(samples_a.max(), samples_b.max())
    bins = np.linspace(low, high, n_bins + 1)
    count_a, _ = np.histogram(samples_a, bins)
    count_b, _ = np.histogram(samples_b, bins)
    n = samples_a.size
    p_a = count_a / n
    p_b = count_b / n
    # Monte-Carlo slack: the error of the right-hand side e^eps * p_b is
    # amplified by e^eps, and the Laplace inequality is *tight* in the
    # tails, so both error terms must enter at full scale.
    sigma_a = np.sqrt(p_a / n) + 1e-12
    sigma_b = np.sqrt(p_b / n) + 1e-12
    amplification = np.exp(epsilon)
    ok_forward = np.all(
        p_a <= amplification * p_b + 4 * (sigma_a + amplification * sigma_b)
    )
    ok_backward = np.all(
        p_b <= amplification * p_a + 4 * (sigma_b + amplification * sigma_a)
    )
    return bool(ok_forward and ok_backward)


class TestLaplaceNoiseDP:
    """Adjacent counts (sensitivity 1) released as ``count +
    laplace_noise(1 / epsilon, ...)``, the path both releases draw through."""

    @pytest.mark.parametrize("epsilon", [0.5, 1.0])
    def test_adjacent_counts_indistinguishable(self, epsilon):
        n = 120_000
        rng_a = np.random.default_rng(0)
        rng_b = np.random.default_rng(1)
        samples_a = 0.0 + laplace_noise(1.0 / epsilon, n, seed=rng_a)
        samples_b = 1.0 + laplace_noise(1.0 / epsilon, n, seed=rng_b)
        assert _histogram_ratio_ok(samples_a, samples_b, epsilon)

    def test_wrong_calibration_is_detected(self):
        # Sanity check on the checker itself: noise calibrated for
        # epsilon = 4 must NOT pass the test at epsilon = 0.5.
        n = 120_000
        samples_a = 0.0 + laplace_noise(1.0 / 4.0, n, seed=0)
        samples_b = 1.0 + laplace_noise(1.0 / 4.0, n, seed=1)
        assert not _histogram_ratio_ok(samples_a, samples_b, 0.5)


class TestDegreeReleaseDP:
    def test_neighboring_graphs_indistinguishable_on_summary(self):
        # Full-vector histograms are infeasible; test the DP inequality on
        # a 1-D post-processed summary (sum of released degrees), which by
        # post-processing must satisfy the same epsilon.
        epsilon = 1.0
        graph = erdos_renyi_graph(30, 0.2, seed=0)
        neighbor = graph.with_edge_flipped(0, 1)
        n = 4000
        sums_a = np.array(
            [
                release_sorted_degrees(graph, epsilon, seed=s).degrees.sum()
                for s in range(n)
            ]
        )
        sums_b = np.array(
            [
                release_sorted_degrees(neighbor, epsilon, seed=s + n).degrees.sum()
                for s in range(n)
            ]
        )
        assert _histogram_ratio_ok(sums_a, sums_b, epsilon, n_bins=12)
