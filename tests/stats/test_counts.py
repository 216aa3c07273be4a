"""Tests for the exact matching-statistic counts (E, H, T, Δ)."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.graphs import Graph
from repro.graphs.generators import erdos_renyi_graph, star_graph
from repro.stats.counts import (
    count_triangles,
    count_tripins,
    count_wedges,
    degree_moment_statistics,
    matching_statistics,
    max_common_neighbors,
    triangles_per_node,
)


class TestKnownGraphs:
    def test_triangle(self, triangle):
        assert triangle.n_edges == 3
        assert count_wedges(triangle) == 3
        assert count_tripins(triangle) == 0
        assert count_triangles(triangle) == 1

    def test_square_with_diagonal(self, square_with_diagonal):
        assert count_triangles(square_with_diagonal) == 2
        assert count_wedges(square_with_diagonal) == 8  # C(3,2)*2 + C(2,2)*2
        assert count_tripins(square_with_diagonal) == 2  # two degree-3 nodes

    def test_star(self):
        star = star_graph(6)  # centre degree 5
        assert count_wedges(star) == 10  # C(5, 2)
        assert count_tripins(star) == 10  # C(5, 3)
        assert count_triangles(star) == 0

    def test_complete_k5(self, k5):
        assert k5.n_edges == 10
        assert count_wedges(k5) == 5 * 6  # 5 * C(4,2)
        assert count_tripins(k5) == 5 * 4  # 5 * C(4,3)
        assert count_triangles(k5) == 10  # C(5,3)

    def test_path(self, path4):
        assert count_wedges(path4) == 2
        assert count_triangles(path4) == 0

    def test_empty(self):
        graph = Graph(5)
        assert matching_statistics(graph) == (0.0, 0.0, 0.0, 0.0)


class TestTrianglesPerNode:
    def test_triangle_graph(self, triangle):
        np.testing.assert_array_equal(triangles_per_node(triangle), [1, 1, 1])

    def test_square_with_diagonal(self, square_with_diagonal):
        np.testing.assert_array_equal(
            triangles_per_node(square_with_diagonal), [2, 1, 2, 1]
        )

    def test_sum_is_three_triangles(self, er_graph):
        assert triangles_per_node(er_graph).sum() == 3 * count_triangles(er_graph)


class TestMaxCommonNeighbors:
    def test_complete_graph(self, k5):
        assert max_common_neighbors(k5) == 3  # n - 2

    def test_star(self):
        # Any two leaves share exactly the centre.
        assert max_common_neighbors(star_graph(6)) == 1

    def test_path(self, path4):
        assert max_common_neighbors(path4) == 1

    def test_empty_graph(self):
        assert max_common_neighbors(Graph(4)) == 0

    def test_single_edge(self):
        assert max_common_neighbors(Graph(2, [(0, 1)])) == 0

    def test_counts_non_adjacent_pairs(self):
        # 4-cycle: opposite (non-adjacent) corners share two neighbours.
        cycle = Graph(4, [(0, 1), (1, 2), (2, 3), (3, 0)])
        assert max_common_neighbors(cycle) == 2


class TestAgainstNetworkxOracle:
    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_triangles_match(self, seed):
        networkx = pytest.importorskip("networkx")
        graph = erdos_renyi_graph(80, 0.1, seed=seed)
        expected = sum(networkx.triangles(graph.to_networkx()).values()) // 3
        assert count_triangles(graph) == expected

    def test_wedges_match_path_count(self):
        networkx = pytest.importorskip("networkx")
        graph = erdos_renyi_graph(60, 0.12, seed=5)
        nx_graph = graph.to_networkx()
        wedges = sum(
            d * (d - 1) // 2 for _, d in nx_graph.degree()
        )
        assert count_wedges(graph) == wedges


class TestDegreeMoments:
    def test_matches_exact_counts_on_integer_degrees(self, er_graph):
        edges, hairpins, tripins = degree_moment_statistics(er_graph.degrees)
        assert edges == er_graph.n_edges
        assert hairpins == count_wedges(er_graph)
        assert tripins == count_tripins(er_graph)

    def test_real_valued_input_allowed(self):
        edges, hairpins, tripins = degree_moment_statistics(np.array([2.5, 1.5]))
        assert edges == pytest.approx(2.0)
        assert hairpins == pytest.approx(0.5 * (2.5 * 1.5 + 1.5 * 0.5))

    def test_empty(self):
        assert degree_moment_statistics(np.array([])) == (0.0, 0.0, 0.0)


@given(
    n=st.integers(min_value=2, max_value=30),
    p=st.floats(min_value=0.0, max_value=1.0),
    seed=st.integers(min_value=0, max_value=10**6),
)
@settings(max_examples=30, deadline=None)
def test_count_invariants(n, p, seed):
    """Degree-derived counts always agree with their combinatorial forms."""
    graph = erdos_renyi_graph(n, p, seed=seed)
    degrees = graph.degrees
    assert graph.n_edges == degrees.sum() // 2
    assert count_wedges(graph) == int((degrees * (degrees - 1) // 2).sum())
    assert 3 * count_triangles(graph) <= count_wedges(graph)
    assert max_common_neighbors(graph) <= max(n - 2, 0)
