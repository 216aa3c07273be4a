"""Tests for degree-correlation statistics."""

from __future__ import annotations

import numpy as np
import pytest

from repro.graphs import Graph
from repro.graphs.generators import (
    barabasi_albert_graph,
    complete_graph,
    erdos_renyi_graph,
    star_graph,
)
from repro.stats.assortativity import degree_assortativity


class TestDegreeAssortativity:
    def test_matches_networkx(self):
        networkx = pytest.importorskip("networkx")
        graph = erdos_renyi_graph(150, 0.05, seed=3)
        ours = degree_assortativity(graph)
        theirs = networkx.degree_assortativity_coefficient(graph.to_networkx())
        assert ours == pytest.approx(theirs, abs=1e-9)

    def test_star_is_maximally_disassortative(self):
        assert degree_assortativity(star_graph(10)) == pytest.approx(-1.0)

    def test_regular_graph_undefined(self):
        assert np.isnan(degree_assortativity(complete_graph(5)))

    def test_tiny_graph_undefined(self):
        assert np.isnan(degree_assortativity(Graph(3, [(0, 1)])))

    def test_range(self):
        graph = barabasi_albert_graph(300, 3, seed=1)
        value = degree_assortativity(graph)
        assert -1.0 <= value <= 1.0
