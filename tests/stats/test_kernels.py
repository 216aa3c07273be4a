"""Tests for the counting pass and the per-graph stats cache.

Two contracts matter:

* **equivalence** — the one-call fused pass bit-matches the pre-kernel
  full ``A @ A`` implementations (kept as oracles in
  :mod:`repro.reference.counting`) across random graphs and structured
  edge cases;
* **memoization** — within one process the A² pass runs exactly once per
  graph no matter how many consumers (matching statistics, the
  smooth-sensitivity triangle release, clustering) ask for its reductions.
"""

from __future__ import annotations

import gc
import weakref
from types import SimpleNamespace

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
    scipy_pass,
)
from repro.stats.kernels import (
    TrianglePassResult,
    kernel_pass_count,
    stats_context,
    triangle_pass,
)


def assert_pass_matches_reference(graph: Graph) -> TrianglePassResult:
    result = triangle_pass(graph)
    assert result.triangles == reference_count_triangles(graph)
    assert result.max_common_neighbors == reference_max_common_neighbors(graph)
    np.testing.assert_array_equal(
        np.asarray(result.per_node), reference_triangles_per_node(graph)
    )
    assert result.per_node.dtype == np.int64
    return result


class TestPassEquivalence:
    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_random_skg_draws(self, seed):
        assert_pass_matches_reference(sample_skg(Initiator(0.9, 0.5, 0.3), 8, seed=seed))

    @pytest.mark.parametrize("seed", [0, 1, 7, 200, 213])
    def test_erdos_renyi(self, seed):
        assert_pass_matches_reference(erdos_renyi_graph(200, 0.05, seed=seed))

    def test_empty_graph(self):
        for graph in (Graph(0), Graph(5)):
            result = assert_pass_matches_reference(graph)
            assert result.triangles == 0
            assert result.max_common_neighbors == 0

    def test_star(self):
        result = assert_pass_matches_reference(star_graph(9))
        assert result.triangles == 0
        assert result.max_common_neighbors == 1

    def test_clique(self):
        result = assert_pass_matches_reference(complete_graph(8))
        assert result.triangles == 56  # C(8, 3)
        assert result.max_common_neighbors == 6  # n - 2

    def test_isolated_nodes(self):
        # A triangle plus an edge, floating in a sea of isolated nodes.
        result = assert_pass_matches_reference(
            Graph(20, [(3, 7), (7, 11), (3, 11), (15, 16)])
        )
        assert result.triangles == 1

    @given(
        n=st.integers(min_value=1, max_value=40),
        p=st.floats(min_value=0.0, max_value=1.0),
        seed=st.integers(min_value=0, max_value=10**6),
    )
    @settings(max_examples=40, deadline=None)
    def test_property_equivalence(self, n, p, seed):
        assert_pass_matches_reference(erdos_renyi_graph(n, p, seed=seed))


class TestOneKernelCall:
    def counted_kernel(self, monkeypatch) -> list[tuple]:
        """Route the counting kernel through a recorder of its calls."""
        kernel = kernels.COUNTING_KERNEL.kernel()
        calls = []

        def recorded(*args):
            calls.append(args)
            return kernel(*args)

        monkeypatch.setattr(kernels.COUNTING_KERNEL, "state", (recorded, None))
        return calls

    def test_a_pass_is_one_call_over_every_row(self, monkeypatch):
        calls = self.counted_kernel(monkeypatch)
        graph = sample_skg(Initiator(0.99, 0.45, 0.25), 10, seed=1)
        assert_pass_matches_reference(graph)
        assert len(calls) == 1
        indptr, indices, n_nodes = calls[0][:3]
        assert indptr is graph.csr[0]  # read as is, not copied
        assert indices.dtype == np.int32 and n_nodes == graph.n_nodes

    @pytest.mark.parametrize("stale", ["128", "many", "-1"])
    def test_stale_environment_variable_ignored(self, er_graph, monkeypatch, stale):
        # REPRO_BLOCK_SIZE is no longer a knob: a value left in the
        # environment, even a malformed one, must not reach the pass.
        calls = self.counted_kernel(monkeypatch)
        monkeypatch.setenv("REPRO_BLOCK_SIZE", stale)
        assert triangle_pass(er_graph).triangles == reference_count_triangles(er_graph)
        assert len(calls) == 1

    def test_an_edgeless_pass_makes_no_call(self, monkeypatch):
        calls = self.counted_kernel(monkeypatch)
        triangle_pass(Graph(10))
        assert calls == []

    def test_more_nodes_than_int32_addresses_refused_before_kernel_work(
        self, monkeypatch
    ):
        calls = self.counted_kernel(monkeypatch)
        stub = SimpleNamespace(n_nodes=2**31, n_edges=1)
        before = kernel_pass_count()
        with pytest.raises(ValidationError, match="at most 2147483647 nodes"):
            triangle_pass(stub)
        assert calls == [] and kernel_pass_count() == before

    @pytest.mark.parametrize("n_edges", [0, 2**31])
    def test_refusal_depends_on_the_node_count_alone(self, monkeypatch, n_edges):
        # E is private under edge-DP: an edgeless graph and one past int32
        # entries are refused alike, so neighbours never differ in refusal.
        calls = self.counted_kernel(monkeypatch)
        stub = SimpleNamespace(n_nodes=kernels.MAX_NODES + 1, n_edges=n_edges)
        with pytest.raises(ValidationError, match="at most 2147483647 nodes"):
            triangle_pass(stub)
        assert calls == []

    def test_the_kernel_reads_every_row_with_node_length_scratch(self, monkeypatch):
        calls = self.counted_kernel(monkeypatch)
        graph = Graph(12, [(0, 1), (1, 2), (0, 2), (2, 5)])  # isolated tail
        result = assert_pass_matches_reference(graph)
        (indptr, indices, n_nodes, per_node, accumulator, marks) = calls[0]
        np.testing.assert_array_equal(indices, graph.csr[1])
        assert len(indptr) == n_nodes + 1 == graph.n_nodes + 1
        assert per_node is result.per_node
        assert len(accumulator) == len(marks) == graph.n_nodes


class TestPassResult:
    def test_per_node_is_read_only(self, er_graph):
        with pytest.raises(ValueError, match="read-only"):
            triangle_pass(er_graph).per_node[0] = 1

    def test_repeated_passes_are_bit_identical(self):
        graph = sample_skg(Initiator(0.99, 0.45, 0.25), 10, seed=4)
        first, second = triangle_pass(graph), triangle_pass(graph)
        assert first.per_node is not second.per_node
        assert first.triangles == second.triangles
        assert first.max_common_neighbors == second.max_common_neighbors
        np.testing.assert_array_equal(first.per_node, second.per_node)

    @given(
        n=st.integers(min_value=1, max_value=40),
        p=st.floats(min_value=0.0, max_value=1.0),
        seed=st.integers(min_value=0, max_value=10**6),
    )
    @settings(max_examples=25, deadline=None)
    def test_each_triangle_is_counted_at_its_three_corners(self, n, p, seed):
        result = triangle_pass(erdos_renyi_graph(n, p, seed=seed))
        assert int(result.per_node.sum()) == 3 * result.triangles
        assert result.max_common_neighbors <= max(n - 2, 0)


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

    def test_context_serves_the_pass_reductions(self, er_graph):
        expected = triangle_pass(er_graph)
        context = stats_context(er_graph)
        assert context.triangle_count == expected.triangles
        assert context.max_common_neighbors == expected.max_common_neighbors
        np.testing.assert_array_equal(context.triangles_per_node, expected.per_node)

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

    def test_local_sensitivity_is_the_pass_maximum(self):
        graph = sample_skg(Initiator(0.99, 0.45, 0.25), 9, seed=5)
        assert local_sensitivity_triangles(graph) == reference_max_common_neighbors(graph)

    def test_patched_pass_feeds_every_consumer(self, monkeypatch):
        # The context looks ``triangle_pass`` up in module globals at call
        # time (the perfbench trace patches it there), so a pass patched
        # in — here the scipy oracle — feeds every consumer.
        draws = [erdos_renyi_graph(80, 0.1, seed=s) for s in range(2)]
        expected = [matching_statistics(graph) for graph in draws]
        calls = []

        def oracle_pass(graph):
            calls.append(graph.n_nodes)
            return scipy_pass(graph)

        monkeypatch.setattr(kernels, "triangle_pass", oracle_pass)
        rebuilt = [
            Graph._from_canonical(graph.n_nodes, *graph.edge_arrays)
            for graph in draws
        ]
        assert [matching_statistics(graph) for graph in rebuilt] == expected
        assert calls == [80, 80]
