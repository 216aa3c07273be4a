"""Tests for structural graph operations."""

from __future__ import annotations

import numpy as np
import pytest

from repro.errors import ValidationError
from repro.graphs import Graph
from repro.graphs.generators import erdos_renyi_graph, path_graph
from repro.graphs.operations import next_power_of_two_exponent, pad_to_power_of_two


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
