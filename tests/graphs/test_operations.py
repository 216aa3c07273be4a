"""Tests for structural graph operations."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import ValidationError
from repro.graphs import Graph
from repro.graphs.generators import erdos_renyi_graph, path_graph
from repro.graphs.operations import (
    connected_components,
    induced_subgraph,
    largest_connected_component,
    next_power_of_two_exponent,
    pad_to_power_of_two,
    relabel_random,
)


class TestComponents:
    def test_two_components(self):
        graph = Graph(5, [(0, 1), (1, 2), (3, 4)])
        components = connected_components(graph)
        assert [len(c) for c in components] == [3, 2]

    def test_isolated_nodes_are_components(self):
        graph = Graph(4, [(0, 1)])
        assert len(connected_components(graph)) == 3

    def test_empty_graph(self):
        assert connected_components(Graph(0)) == []

    def test_largest_component_extraction(self):
        graph = Graph(6, [(0, 1), (1, 2), (2, 0), (4, 5)])
        largest = largest_connected_component(graph)
        assert largest.n_nodes == 3
        assert largest.n_edges == 3


class TestInducedSubgraph:
    def test_keeps_internal_edges_only(self, square_with_diagonal):
        sub = induced_subgraph(square_with_diagonal, np.array([0, 1, 2]))
        assert sub.edge_set() == {(0, 1), (1, 2), (0, 2)}

    def test_relabels_in_given_order(self):
        graph = Graph(4, [(2, 3)])
        sub = induced_subgraph(graph, np.array([3, 2]))
        assert sub.edge_set() == {(0, 1)}

    def test_duplicate_nodes_rejected(self, triangle):
        with pytest.raises(ValidationError):
            induced_subgraph(triangle, np.array([0, 0]))

    def test_out_of_range_rejected(self, triangle):
        with pytest.raises(ValidationError):
            induced_subgraph(triangle, np.array([0, 9]))


class TestPadding:
    def test_already_power_of_two(self):
        graph = Graph(8, [(0, 1)])
        padded, k = pad_to_power_of_two(graph)
        assert padded is graph or padded == graph
        assert k == 3

    def test_pads_up(self):
        graph = Graph(5, [(0, 4)])
        padded, k = pad_to_power_of_two(graph)
        assert padded.n_nodes == 8
        assert k == 3
        assert padded.n_edges == 1

    def test_statistics_preserved(self):
        graph = erdos_renyi_graph(100, 0.1, seed=0)
        padded, _ = pad_to_power_of_two(graph)
        np.testing.assert_array_equal(
            np.sort(padded.degrees)[-100:], np.sort(graph.degrees)
        )

    @pytest.mark.parametrize(
        "graph",
        [
            Graph(5, [(0, 4)]),
            Graph(3),
            erdos_renyi_graph(100, 0.1, seed=0),
            path_graph(1000),
        ],
        ids=["one-edge", "edgeless", "er-100", "path-1000"],
    )
    def test_padding_skips_recanonicalization(self, graph, monkeypatch):
        """Isolated nodes keep canonical edges canonical, so padding builds
        the validating constructor's graph without re-canonicalizing."""
        expected = Graph.from_edge_arrays(
            2 ** next_power_of_two_exponent(graph.n_nodes), *graph.edge_arrays
        )

        def refuse(*args, **kwargs):
            raise AssertionError("pad_to_power_of_two re-canonicalized its edges")

        monkeypatch.setattr("repro.graphs.graph._canonicalize_edges", refuse)
        padded, _ = pad_to_power_of_two(graph)
        assert padded == expected
        assert hash(padded) == hash(expected)
        np.testing.assert_array_equal(padded.degrees[: graph.n_nodes], graph.degrees)
        assert not padded.degrees[graph.n_nodes :].any()

    def test_empty_rejected(self):
        with pytest.raises(ValidationError):
            pad_to_power_of_two(Graph(0))

    @pytest.mark.parametrize(
        "n,expected",
        [(1, 1), (2, 1), (3, 2), (4, 2), (5, 3), (8, 3), (9, 4), (1024, 10), (1025, 11)],
    )
    def test_exponent_table(self, n, expected):
        assert next_power_of_two_exponent(n) == expected

    def test_exponent_rejects_zero(self):
        with pytest.raises(ValidationError):
            next_power_of_two_exponent(0)


class TestRelabel:
    def test_preserves_degree_multiset(self):
        graph = path_graph(10)
        shuffled = relabel_random(graph, seed=3)
        np.testing.assert_array_equal(
            np.sort(graph.degrees), np.sort(shuffled.degrees)
        )

    def test_preserves_edge_count(self, er_graph):
        assert relabel_random(er_graph, seed=1).n_edges == er_graph.n_edges

    @given(seed=st.integers(min_value=0, max_value=1000))
    @settings(max_examples=20, deadline=None)
    def test_component_sizes_invariant(self, seed):
        graph = Graph(7, [(0, 1), (1, 2), (3, 4)])
        shuffled = relabel_random(graph, seed=seed)
        original_sizes = sorted(len(c) for c in connected_components(graph))
        shuffled_sizes = sorted(len(c) for c in connected_components(shuffled))
        assert original_sizes == shuffled_sizes
