"""Tests for degree statistics."""

from __future__ import annotations

import numpy as np

from repro.graphs import Graph
from repro.stats.degrees import degree_distribution


class TestDistribution:
    def test_counts(self, square_with_diagonal):
        values, counts = degree_distribution(square_with_diagonal)
        np.testing.assert_array_equal(values, [2, 3])
        np.testing.assert_array_equal(counts, [2, 2])

    def test_zero_degree_excluded_by_default(self):
        graph = Graph(3, [(0, 1)])
        values, _counts = degree_distribution(graph)
        assert 0 not in values

    def test_zero_degree_included_on_request(self):
        graph = Graph(3, [(0, 1)])
        values, counts = degree_distribution(graph, include_zero=True)
        assert values[0] == 0
        assert counts[0] == 1

    def test_accepts_raw_vector(self):
        values, counts = degree_distribution(np.array([1, 1, 2]))
        np.testing.assert_array_equal(values, [1, 2])
        np.testing.assert_array_equal(counts, [2, 1])

    def test_counts_sum_to_nonzero_nodes(self, er_graph):
        _values, counts = degree_distribution(er_graph)
        assert counts.sum() == int((er_graph.degrees > 0).sum())
