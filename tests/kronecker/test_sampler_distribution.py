"""Distributional lock for the grass-hopping sampler.

The equivalence matrix (``test_sampler_equivalence.py``) proves the three
engines agree with each other bit for bit; this module proves the thing
they agree *on* is the right distribution.  Over thousands of draws:

* **Profile-class chi-square** — per-class edge counts of both
  :func:`sample_skg` and :func:`sample_skg_naive` against the exact
  Binomial(class size, a^z b^x c^o) law, and the two samplers against
  each other.  The class decomposition is the sampler's whole structure,
  so this is the sharpest aggregate test the distribution admits.
* **CLT bounds** — total edge counts against the closed-form expectation
  and per-node degrees against the rows of Θ^{⊗k}.
* **Property tests** (hypothesis) for the combinatorial layer —
  :func:`profile_class_size` against brute-force pair enumeration and
  the degenerate corners (k=1, a=0, b=0, c=1, all-ones).

All statistical thresholds sit at roughly the 10⁻⁶ quantile of the null
and every draw is fixed-seed, so the suite is deterministic: a failure
means the distribution moved, not bad luck.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.kronecker.initiator import Initiator
from repro.kronecker.kronpower import edge_probability_matrix
from repro.kronecker.moments import expected_edges
from repro.kronecker.sampling import (
    pair_probability,
    profile_class_size,
    sample_skg,
)
from repro.reference.sampling import sample_skg_naive

THETA = Initiator(0.9, 0.5, 0.2)
K = 4
N_DRAWS = 2000


def _popcount(values: np.ndarray, k: int) -> np.ndarray:
    counts = np.zeros_like(values)
    for bit in range(k):
        counts += (values >> bit) & 1
    return counts


def _classes(k: int) -> list[tuple[int, int, int]]:
    """All non-empty profile classes (z, x, o) in ascending (z, x) order."""
    return [
        (z, x, k - z - x)
        for z in range(k + 1)
        for x in range(1, k - z + 1)
    ]


def _class_counts(graph, k: int) -> dict[tuple[int, int], int]:
    """Edges of one draw bucketed by profile class."""
    u, v = graph.edge_arrays
    x = _popcount(u ^ v, k)
    o = _popcount(u & v, k)
    z = k - x - o
    counts: dict[tuple[int, int], int] = {}
    for zi, xi in zip(z.tolist(), x.tolist()):
        counts[(zi, xi)] = counts.get((zi, xi), 0) + 1
    return counts


def _total_class_counts(sampler, k: int, n_draws: int, seed0: int) -> np.ndarray:
    classes = _classes(k)
    index = {(z, x): i for i, (z, x, _) in enumerate(classes)}
    totals = np.zeros(len(classes), dtype=np.int64)
    for draw in range(n_draws):
        for (z, x), count in _class_counts(sampler(seed0 + draw), k).items():
            totals[index[(z, x)]] += count
    return totals


@pytest.fixture(scope="module")
def fast_totals() -> np.ndarray:
    return _total_class_counts(
        lambda seed: sample_skg(THETA, K, seed=seed), K, N_DRAWS, 10_000
    )


@pytest.fixture(scope="module")
def naive_totals() -> np.ndarray:
    return _total_class_counts(
        lambda seed: sample_skg_naive(THETA, K, seed=seed), K, N_DRAWS, 50_000
    )


def _chi_square_against_exact(totals: np.ndarray) -> float:
    """Σ z² of per-class totals against Binomial(M·size, p) — ~χ²(C)."""
    stat = 0.0
    for i, (z, x, o) in enumerate(_classes(K)):
        size = profile_class_size(K, z, x, o)
        p = pair_probability(THETA, z, x, o)
        n = N_DRAWS * size
        mean, var = n * p, n * p * (1.0 - p)
        stat += (totals[i] - mean) ** 2 / var
    return float(stat)


class TestProfileClassChiSquare:
    # k=4 has 10 non-empty classes; χ²(10) crosses 60 with probability
    # ~3·10⁻⁹ — far beyond any plausible seed unluckiness.
    THRESHOLD = 60.0

    def test_fast_sampler_matches_exact_law(self, fast_totals):
        assert _chi_square_against_exact(fast_totals) < self.THRESHOLD

    def test_naive_sampler_matches_exact_law(self, naive_totals):
        assert _chi_square_against_exact(naive_totals) < self.THRESHOLD

    def test_samplers_match_each_other(self, fast_totals, naive_totals):
        """Two-sample per-class comparison: fast vs naive totals."""
        stat = 0.0
        for i, (z, x, o) in enumerate(_classes(K)):
            size = profile_class_size(K, z, x, o)
            p = pair_probability(THETA, z, x, o)
            var = 2.0 * N_DRAWS * size * p * (1.0 - p)
            stat += (int(fast_totals[i]) - int(naive_totals[i])) ** 2 / var
        assert stat < self.THRESHOLD

    def test_every_class_was_hit(self, fast_totals):
        """All 10 classes carry enough mass to make the χ² meaningful."""
        assert fast_totals.min() > 5


class TestCLTBounds:
    def test_mean_edge_count_fast(self, fast_totals):
        mean_edges = float(fast_totals.sum()) / N_DRAWS
        expected = expected_edges(THETA.a, THETA.b, THETA.c, K)
        sigma = np.sqrt(expected / N_DRAWS)  # Var ≤ E for a Poisson-binomial
        assert abs(mean_edges - expected) < 5.0 * sigma

    def test_mean_edge_count_large_k(self):
        """One big-regime CLT point: the paper's θ at k=14 (~1 draw)."""
        theta = Initiator(0.99, 0.45, 0.25)
        graph = sample_skg(theta, 14, seed=20120330)
        expected = expected_edges(theta.a, theta.b, theta.c, 14)
        assert abs(graph.n_edges - expected) < 5.0 * np.sqrt(expected)

    def test_per_node_degrees_match_kronecker_rows(self):
        """Mean degree of every node tracks its row sum of Θ^{⊗k}."""
        probabilities = edge_probability_matrix(THETA, K)
        np.fill_diagonal(probabilities, 0.0)
        expected = probabilities.sum(axis=1)
        variance = (probabilities * (1.0 - probabilities)).sum(axis=1)
        degrees = np.zeros(2**K)
        n_draws = 1500
        for draw in range(n_draws):
            graph = sample_skg(THETA, K, seed=90_000 + draw)
            u, v = graph.edge_arrays
            np.add.at(degrees, u, 1.0)
            np.add.at(degrees, v, 1.0)
        z_scores = (degrees / n_draws - expected) / np.sqrt(variance / n_draws)
        # Σ z² over 16 nodes ~ χ²(16); 75 is the ~10⁻⁸ quantile.
        assert float(np.sum(z_scores**2)) < 75.0


class TestCombinatorialProperties:
    @given(
        k=st.integers(min_value=1, max_value=6),
        z=st.integers(min_value=0, max_value=6),
        x=st.integers(min_value=0, max_value=6),
    )
    @settings(max_examples=60)
    def test_class_size_matches_brute_force(self, k, z, x):
        o = k - z - x
        if o < 0:
            return
        count = 0
        for u in range(2**k):
            for v in range(u + 1, 2**k):
                differs = bin(u ^ v).count("1")
                ones = bin(u & v).count("1")
                if differs == x and ones == o:
                    count += 1
        assert profile_class_size(k, z, x, o) == count

    @given(
        a=st.floats(min_value=0.0, max_value=1.0),
        b=st.floats(min_value=0.0, max_value=1.0),
        c=st.floats(min_value=0.0, max_value=1.0),
        k=st.integers(min_value=1, max_value=8),
    )
    @settings(max_examples=60)
    def test_pair_probability_is_the_product(self, a, b, c, k):
        theta = Initiator(a, b, c)
        z = k // 2
        x = max(1, k - z - k // 3)
        o = k - z - x
        if o < 0:
            return
        assert pair_probability(theta, z, x, o) == pytest.approx(
            a**z * b**x * c**o
        )

    def test_k_equals_one(self):
        # Two nodes, one class (z=0, x=1, o=0), one pair.
        assert _classes(1) == [(0, 1, 0)]
        assert profile_class_size(1, 0, 1, 0) == 1
        assert pair_probability(THETA, 0, 1, 0) == pytest.approx(THETA.b)
        graph = sample_skg(Initiator(1.0, 1.0, 1.0), 1, seed=0)
        assert graph.n_nodes == 2 and graph.n_edges == 1

    def test_a_zero_kills_all_z_classes(self):
        theta = Initiator(0.0, 0.8, 0.9)
        for k in (2, 5):
            graph = sample_skg(theta, k, seed=1)
            u, v = graph.edge_arrays
            # Every surviving edge has z = 0: no level where both bits are 0.
            z = k - _popcount(u ^ v, k) - _popcount(u & v, k)
            assert graph.n_edges == 0 or int(z.max()) == 0
        assert pair_probability(theta, 1, 1, 0) == 0.0
        assert pair_probability(theta, 0, 1, 1) == pytest.approx(0.8 * 0.9)

    def test_b_zero_draws_no_edges(self):
        # x ≥ 1 for every pair, so b = 0 zeroes every class probability.
        graph = sample_skg(Initiator(0.9, 0.0, 0.9), 6, seed=2)
        assert graph.n_edges == 0

    def test_all_ones_draws_the_complete_graph(self):
        n = 2**3
        graph = sample_skg(Initiator(1.0, 1.0, 1.0), 3, seed=3)
        assert graph.n_edges == n * (n - 1) // 2

    def test_c_one_keeps_probabilities_valid(self):
        theta = Initiator(0.9, 0.5, 1.0)
        for z, x, o in _classes(3):
            p = pair_probability(theta, z, x, o)
            assert 0.0 <= p <= 1.0
        graph = sample_skg(theta, 3, seed=4)
        assert 0 <= graph.n_edges <= 28
