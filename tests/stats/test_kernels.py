"""Tests for the blocked counting kernels and the per-graph stats cache.

Two contracts matter:

* **equivalence** — the blocked kernels bit-match the pre-blocking full
  ``A @ A`` implementations (kept as reference oracles in
  :mod:`repro.stats.kernels`) for every block size, including degenerate
  ones, across random graphs and structured edge cases;
* **memoization** — within one process the A² pass runs exactly once per
  graph no matter how many consumers (matching statistics, the
  smooth-sensitivity triangle release, clustering) ask for its reductions.
"""

from __future__ import annotations

import gc
import weakref
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import ValidationError
from repro.graphs import Graph
from repro.graphs.generators import (
    complete_graph,
    erdos_renyi_graph,
    star_graph,
)
from repro.kronecker.initiator import Initiator
from repro.kronecker.sampling import sample_skg
from repro.privacy.sensitivity import local_sensitivity_triangles
from repro.privacy.triangles import release_triangle_count
from repro.stats import kernels
from repro.stats.clustering import average_clustering, clustering_by_degree
from repro.stats.counts import (
    matching_statistics,
    max_common_neighbors,
    triangles_per_node,
)
from repro.reference.counting import (
    reference_count_triangles,
    reference_max_common_neighbors,
    reference_triangles_per_node,
)
from repro.stats.kernels import (
    TrianglePassResult,
    kernel_pass_count,
    row_blocks,
    stats_context,
    triangle_pass,
)

BLOCK_SIZES = (1, 7, 0)  # 0 = auto; n and > n are added per-graph below


def assert_pass_matches_reference(graph: Graph, block_size: int) -> TrianglePassResult:
    result = triangle_pass(graph, block_size)
    assert result.triangles == reference_count_triangles(graph)
    assert result.max_common_neighbors == reference_max_common_neighbors(graph)
    np.testing.assert_array_equal(
        np.asarray(result.per_node), reference_triangles_per_node(graph)
    )
    assert result.per_node.dtype == np.int64
    degrees = graph.degrees
    assert result.wedges == int((degrees * (degrees - 1) // 2).sum())
    assert result.tripins == int((degrees * (degrees - 1) * (degrees - 2) // 6).sum())
    return result


def all_block_sizes(graph: Graph) -> tuple[int, ...]:
    return BLOCK_SIZES + (max(graph.n_nodes, 1), graph.n_nodes + 13)


class TestBlockedEquivalence:
    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_random_skg_draws(self, seed):
        graph = sample_skg(Initiator(0.9, 0.5, 0.3), 8, seed=seed)
        for block_size in all_block_sizes(graph):
            assert_pass_matches_reference(graph, block_size)

    @pytest.mark.parametrize("block_size", [1, 7, 0, 200, 213])
    def test_erdos_renyi(self, block_size):
        graph = erdos_renyi_graph(200, 0.05, seed=7)
        assert_pass_matches_reference(graph, block_size)

    def test_empty_graph(self):
        for graph in (Graph(0), Graph(5)):
            for block_size in all_block_sizes(graph):
                result = assert_pass_matches_reference(graph, block_size)
                assert result.triangles == 0
                assert result.max_common_neighbors == 0

    def test_star(self):
        graph = star_graph(9)
        for block_size in all_block_sizes(graph):
            result = assert_pass_matches_reference(graph, block_size)
            assert result.triangles == 0
            assert result.max_common_neighbors == 1

    def test_clique(self):
        graph = complete_graph(8)
        for block_size in all_block_sizes(graph):
            result = assert_pass_matches_reference(graph, block_size)
            assert result.triangles == 56  # C(8, 3)
            assert result.max_common_neighbors == 6  # n - 2

    def test_isolated_nodes(self):
        # A triangle plus an edge, floating in a sea of isolated nodes.
        graph = Graph(20, [(3, 7), (7, 11), (3, 11), (15, 16)])
        for block_size in all_block_sizes(graph):
            result = assert_pass_matches_reference(graph, block_size)
            assert result.triangles == 1

    def test_tiny_auto_budget_forces_many_blocks(self, monkeypatch):
        monkeypatch.setattr(kernels, "AUTO_ENTRY_BUDGET", 8)
        graph = erdos_renyi_graph(120, 0.08, seed=3)
        assert len(row_blocks(graph, 0)) > 1
        assert_pass_matches_reference(graph, 0)

    @given(
        n=st.integers(min_value=1, max_value=40),
        p=st.floats(min_value=0.0, max_value=1.0),
        seed=st.integers(min_value=0, max_value=10**6),
        block_size=st.integers(min_value=0, max_value=50),
    )
    @settings(max_examples=40, deadline=None)
    def test_property_equivalence(self, n, p, seed, block_size):
        graph = erdos_renyi_graph(n, p, seed=seed)
        assert_pass_matches_reference(graph, block_size)


class TestRowBlocks:
    def test_fixed_blocks_cover_rows_exactly(self):
        graph = erdos_renyi_graph(25, 0.2, seed=0)
        blocks = row_blocks(graph, 7)
        assert blocks[0][0] == 0 and blocks[-1][1] == 25
        for (_, end), (start, _) in zip(blocks, blocks[1:]):
            assert end == start
        assert all(end - start <= 7 for start, end in blocks)

    def test_auto_small_graph_is_single_block(self):
        graph = erdos_renyi_graph(50, 0.1, seed=1)
        assert row_blocks(graph, 0) == [(0, 50)]

    def test_auto_adaptive_blocks_cover_rows(self, monkeypatch):
        monkeypatch.setattr(kernels, "AUTO_ENTRY_BUDGET", 20)
        graph = erdos_renyi_graph(60, 0.15, seed=2)
        blocks = row_blocks(graph, 0)
        assert blocks[0][0] == 0 and blocks[-1][1] == 60
        for (_, end), (start, _) in zip(blocks, blocks[1:]):
            assert end == start

    def test_empty_graph_has_no_blocks(self):
        assert row_blocks(Graph(0), 0) == []

    @given(
        n=st.integers(min_value=1, max_value=60),
        p=st.floats(min_value=0.0, max_value=1.0),
        seed=st.integers(min_value=0, max_value=10**6),
        budget=st.integers(min_value=1, max_value=400),
    )
    @settings(max_examples=60, deadline=None)
    def test_auto_blocks_equal_the_scipy_spmv_packing(self, n, p, seed, budget):
        """The per-row path-2 counts read off the CSR pack rows exactly as
        the scipy SpMV ``A @ d`` they replaced, under any budget."""
        graph = erdos_renyi_graph(n, p, seed=seed)
        with mock.patch.object(kernels, "AUTO_ENTRY_BUDGET", budget):
            assert row_blocks(graph, 0) == _spmv_row_blocks(graph, budget)


def _spmv_row_blocks(graph: Graph, budget: int) -> list[tuple[int, int]]:
    """Auto row blocks as packed from the scipy SpMV: the oracle."""
    n, degrees = graph.n_nodes, graph.degrees
    if int((degrees * degrees).sum()) <= budget:
        return [(0, n)]
    cumulative = np.cumsum(graph.adjacency @ degrees)
    blocks, start, consumed = [], 0, 0
    while start < n:
        end = int(np.searchsorted(cumulative, consumed + budget, side="right"))
        end = min(max(end, start + 1), n)
        blocks.append((start, end))
        consumed = int(cumulative[end - 1])
        start = end
    return blocks


class TestBlockSizeArgument:
    def test_default_is_auto(self, er_graph):
        assert triangle_pass(er_graph).n_blocks == len(row_blocks(er_graph, 0))

    def test_negative_rejected(self, er_graph):
        with pytest.raises(ValidationError):
            triangle_pass(er_graph, block_size=-1)

    def test_non_integer_rejected(self, er_graph):
        with pytest.raises(ValidationError):
            triangle_pass(er_graph, block_size=2.5)

    def test_explicit_argument_wins(self, er_graph):
        assert len(row_blocks(er_graph, 16)) > 1
        assert triangle_pass(er_graph, 16).n_blocks == len(row_blocks(er_graph, 16))

    @pytest.mark.parametrize("stale", ["128", "many", "-1"])
    def test_stale_environment_variable_ignored(self, er_graph, monkeypatch, stale):
        # REPRO_BLOCK_SIZE is no longer a knob: a value left in the
        # environment, even a malformed one, must not reach the pass.
        monkeypatch.setenv("REPRO_BLOCK_SIZE", stale)
        result = triangle_pass(er_graph)
        assert result.n_blocks == len(row_blocks(er_graph, 0))
        assert result.triangles == reference_count_triangles(er_graph)


class TestStatsContext:
    def test_context_is_cached_on_graph(self, er_graph):
        assert stats_context(er_graph) is stats_context(er_graph)

    def test_cached_arrays_are_read_only(self, er_graph):
        assert not triangles_per_node(er_graph).flags.writeable
        assert not stats_context(er_graph).local_clustering.flags.writeable

    def test_adjacency_float64_cached(self, er_graph):
        context = stats_context(er_graph)
        converted = context.adjacency_float64
        assert converted.dtype == np.float64
        assert context.adjacency_float64 is converted

    def test_degree_moment_pieces(self, k5):
        context = stats_context(k5)
        assert context.edge_count == 10
        assert context.wedge_count == 5 * 6
        assert context.tripin_count == 5 * 4

    def test_explicit_block_size_context(self, er_graph):
        blocked = triangle_pass(er_graph, 3)
        assert blocked.triangles == stats_context(er_graph).triangle_count

    def test_graph_with_context_freed_without_cycle_collector(self):
        graph = sample_skg(Initiator(0.9, 0.5, 0.3), 7, seed=3)
        context = stats_context(graph)
        matching_statistics(graph)
        alive = weakref.ref(graph)
        gc.disable()
        try:
            del graph
            assert alive() is None
        finally:
            gc.enable()
        with pytest.raises(ReferenceError, match="has been freed"):
            context.edge_count


class TestSinglePassPerGraph:
    def test_per_trial_consumers_share_one_pass(self):
        """The acceptance contract: matching statistics, the DP triangle
        release, and clustering on one graph cost exactly one A² pass."""
        graph = sample_skg(Initiator(0.9, 0.5, 0.3), 7, seed=42)
        before = kernel_pass_count()
        matching_statistics(graph)
        release_triangle_count(graph, epsilon=0.5, delta=0.01, seed=0)
        local_sensitivity_triangles(graph)
        average_clustering(graph)
        clustering_by_degree(graph)
        max_common_neighbors(graph)
        assert kernel_pass_count() - before == 1

    def test_distinct_graphs_get_distinct_passes(self):
        first = erdos_renyi_graph(30, 0.2, seed=0)
        second = erdos_renyi_graph(30, 0.2, seed=1)
        before = kernel_pass_count()
        matching_statistics(first)
        matching_statistics(second)
        assert kernel_pass_count() - before == 2

    def test_edgeless_graph_runs_no_pass(self):
        before = kernel_pass_count()
        matching_statistics(Graph(10))
        assert kernel_pass_count() - before == 0


class TestConsumerConsistency:
    def test_counts_api_matches_references(self):
        graph = erdos_renyi_graph(150, 0.06, seed=11)
        assert matching_statistics(graph).triangles == reference_count_triangles(graph)
        assert max_common_neighbors(graph) == reference_max_common_neighbors(graph)
        np.testing.assert_array_equal(
            np.asarray(triangles_per_node(graph)),
            reference_triangles_per_node(graph),
        )

    def test_block_size_does_not_change_statistics(self, monkeypatch):
        # The context looks ``triangle_pass`` up in module globals at call
        # time (the perfbench trace patches it there), so a blocked pass
        # patched in feeds every consumer.
        draws = [erdos_renyi_graph(80, 0.1, seed=s) for s in range(2)]
        expected = [matching_statistics(graph) for graph in draws]
        calls = []

        def blocked_pass(graph):
            result = triangle_pass(graph, 5)
            calls.append(result.n_blocks)
            return result

        monkeypatch.setattr(kernels, "triangle_pass", blocked_pass)
        rebuilt = [
            Graph._from_canonical(graph.n_nodes, *graph.edge_arrays)
            for graph in draws
        ]
        assert [matching_statistics(graph) for graph in rebuilt] == expected
        assert calls == [16, 16]
