"""Tests for the Gleich–Owen closed-form moments (paper Eq. 1).

The decisive test family here validates every closed form against
:func:`brute_force_expected_counts` on dense Kronecker powers — this is
how the OCR-corrupted tripin coefficients in the paper's Eq. (1) were
detected and repaired (see the docstring of ``expected_tripins``).
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.kronecker.initiator import Initiator
from repro.kronecker.kronpower import (
    brute_force_expected_counts,
    edge_probability_matrix,
)
from repro.kronecker.moments import (
    expected_edges,
    expected_feature_vector,
    expected_hairpins,
    expected_statistics,
    expected_triangles,
    expected_tripins,
)

unit = st.floats(min_value=0.0, max_value=1.0, allow_nan=False)


class TestClosedFormsAgainstBruteForce:
    @given(a=unit, b=unit, c=unit, k=st.integers(min_value=1, max_value=4))
    @settings(max_examples=60, deadline=None)
    def test_all_four_features(self, a, b, c, k):
        probabilities = edge_probability_matrix((a, b, c), k)
        oracle = brute_force_expected_counts(probabilities)
        assert float(expected_edges(a, b, c, k)) == pytest.approx(
            oracle.edges, rel=1e-9, abs=1e-9
        )
        assert float(expected_hairpins(a, b, c, k)) == pytest.approx(
            oracle.hairpins, rel=1e-9, abs=1e-9
        )
        assert float(expected_tripins(a, b, c, k)) == pytest.approx(
            oracle.tripins, rel=1e-9, abs=1e-9
        )
        assert float(expected_triangles(a, b, c, k)) == pytest.approx(
            oracle.triangles, rel=1e-9, abs=1e-9
        )


class TestHandChecks:
    def test_k1_edges(self):
        # One potential off-diagonal pair with probability b.
        assert float(expected_edges(0.9, 0.45, 0.2, 1)) == pytest.approx(0.45)

    def test_k1_higher_moments_vanish(self):
        # Two nodes: no wedges, tripins, or triangles are possible.
        for function in (expected_hairpins, expected_tripins, expected_triangles):
            assert float(function(0.9, 0.45, 0.2, 1)) == pytest.approx(0.0, abs=1e-12)

    def test_deterministic_initiator_complete_graph(self):
        # a = b = c = 1 makes P all-ones: counts of K_{2^k}.
        k, n = 3, 8
        assert float(expected_edges(1, 1, 1, k)) == n * (n - 1) / 2
        assert float(expected_hairpins(1, 1, 1, k)) == n * (n - 1) * (n - 2) / 2
        assert float(expected_triangles(1, 1, 1, k)) == (
            n * (n - 1) * (n - 2) / 6
        )
        assert float(expected_tripins(1, 1, 1, k)) == (
            n * (n - 1) * (n - 2) * (n - 3) / 6
        )

    def test_zero_initiator(self):
        for function in (expected_edges, expected_hairpins, expected_tripins,
                         expected_triangles):
            assert float(function(0, 0, 0, 5)) == 0.0


class TestVectorisation:
    def test_broadcasting_matches_scalar(self):
        a = np.array([0.2, 0.9])
        result = expected_edges(a, 0.5, 0.1, 6)
        assert result.shape == (2,)
        assert result[1] == pytest.approx(float(expected_edges(0.9, 0.5, 0.1, 6)))

    def test_feature_vector_order_and_shape(self):
        grid = np.linspace(0, 1, 5)
        stack = expected_feature_vector(
            grid, grid, grid, 4, ("edges", "triangles")
        )
        assert stack.shape == (2, 5)
        assert stack[0, -1] == pytest.approx(float(expected_edges(1, 1, 1, 4)))

    def test_feature_vector_unknown_name(self):
        with pytest.raises(ValueError, match="unknown feature"):
            expected_feature_vector(0.5, 0.5, 0.5, 3, ("edges", "squares"))


class TestFloatPath:
    """Python floats in, tuple of floats out — with the 0-d array bits.

    KronMom's Nelder–Mead refinement relies on this: its objective runs
    on plain floats and must reproduce the array evaluation exactly.
    """

    FEATURES = ("edges", "hairpins", "tripins", "triangles")
    FUNCTIONS = (expected_edges, expected_hairpins, expected_tripins, expected_triangles)

    def test_bit_equal_to_zero_dim_arrays(self):
        rng = np.random.default_rng(2024)
        points = rng.random((10_000, 3))
        # Pin some coordinates to the 0 and 1 endpoints of the box.
        endpoints = rng.random(points.shape)
        points[endpoints < 0.05] = 0.0
        points[endpoints > 0.95] = 1.0
        orders = rng.integers(1, 21, size=len(points))
        mismatches = []
        for (a, b, c), k in zip(points.tolist(), orders.tolist()):
            floats = expected_feature_vector(a, b, c, k, self.FEATURES)
            assert type(floats) is tuple and all(type(v) is float for v in floats)
            arrays = [
                float(function(np.asarray(a), np.asarray(b), np.asarray(c), k))
                for function in self.FUNCTIONS
            ]
            if floats != tuple(arrays):
                mismatches.append((a, b, c, k))
        assert mismatches == []

    def test_feature_order_and_subset(self):
        values = expected_feature_vector(0.9, 0.5, 0.2, 7, ("triangles", "edges"))
        assert values == (
            float(expected_triangles(0.9, 0.5, 0.2, 7)),
            float(expected_edges(0.9, 0.5, 0.2, 7)),
        )

    def test_non_float_input_keeps_array_contract(self):
        stack = expected_feature_vector(1, 0.5, 0.2, 4, ("edges",))
        assert isinstance(stack, np.ndarray) and stack.shape == (1,)


class TestMonotonicity:
    @given(
        a=st.floats(min_value=0.1, max_value=0.9),
        b=st.floats(min_value=0.1, max_value=0.9),
        c=st.floats(min_value=0.1, max_value=0.9),
        k=st.integers(min_value=2, max_value=8),
    )
    @settings(max_examples=40, deadline=None)
    def test_increasing_in_each_parameter(self, a, b, c, k):
        base = float(expected_edges(a, b, c, k))
        assert float(expected_edges(min(a + 0.05, 1), b, c, k)) >= base
        assert float(expected_edges(a, min(b + 0.05, 1), c, k)) >= base
        assert float(expected_edges(a, b, min(c + 0.05, 1), k)) >= base


class TestExpectedStatistics:
    def test_named_tuple_fields(self):
        stats = expected_statistics(Initiator(0.9, 0.5, 0.2), 5)
        assert stats.edges > 0
        assert stats.hairpins > 0
        assert stats.tripins > 0
        assert stats.triangles > 0

    def test_monte_carlo_consistency(self):
        # Empirical means over many exact samples must approach Eq. (1).
        from repro.core.synthesis import ensemble_matching_statistics

        theta = Initiator(0.9, 0.5, 0.2)
        k = 6
        stats = expected_statistics(theta, k)
        means = ensemble_matching_statistics(theta, k, 400, seed=0)
        assert means.edges == pytest.approx(stats.edges, rel=0.05)
        assert means.hairpins == pytest.approx(stats.hairpins, rel=0.10)
        assert means.tripins == pytest.approx(stats.tripins, rel=0.15)
        assert means.triangles == pytest.approx(stats.triangles, rel=0.30)
