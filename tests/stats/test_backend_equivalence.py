"""Equivalence harness for the A² counting pass and its scipy oracle.

The paper's utility experiments hinge on exact triangle counts and the
smooth-sensitivity quantity max-common-neighbours, so the one-call fused
pass of :func:`repro.stats.kernels.triangle_pass` (``cext``) and the
scipy SpGEMM pass it replaced (``scipy``, the oracle
:func:`repro.reference.counting.scipy_pass`) must both be
**bit-identical** to the full-product oracles of
:mod:`repro.reference.counting`, for every graph family.  Spectral
memoization performs zero extra adjacency conversions.
"""

from __future__ import annotations

import functools

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import KernelUnavailableError
from repro.graphs import Graph
from repro.graphs.generators import complete_graph, erdos_renyi_graph, star_graph
from repro.kronecker.initiator import Initiator
from repro.kronecker.sampling import sample_skg
from repro.reference.counting import (
    reference_count_triangles,
    reference_max_common_neighbors,
    reference_triangles_per_node,
    scipy_pass,
)
from repro.stats import kernels
from repro.stats.kernels import (
    TrianglePassResult,
    float64_conversion_count,
    kernel_pass_count,
    resolve_kernel_backend,
    stats_context,
    triangle_pass,
)
from repro.stats.spectral import network_values, singular_values

PASSES = {"scipy": scipy_pass, "cext": triangle_pass}
BACKENDS = tuple(PASSES)

# The structured families of the equivalence matrix.  Builders are
# memoized so the backend columns reuse one graph per family.
FAMILIES = {
    "empty": lambda: Graph(0),
    "isolated-only": lambda: Graph(5),
    "star": lambda: star_graph(9),
    "clique": lambda: complete_graph(8),
    "triangle-and-edge-in-isolated-sea": lambda: Graph(
        20, [(3, 7), (7, 11), (3, 11), (15, 16)]
    ),
    "er-200": lambda: erdos_renyi_graph(200, 0.05, seed=7),
    "skg-k8": lambda: sample_skg(Initiator(0.99, 0.45, 0.25), 8, seed=8),
    "skg-k10": lambda: sample_skg(Initiator(0.99, 0.45, 0.25), 10, seed=10),
    "skg-k12": lambda: sample_skg(Initiator(0.99, 0.45, 0.25), 12, seed=12),
}


@functools.lru_cache(maxsize=None)
def family_graph(name: str) -> Graph:
    return FAMILIES[name]()


# Node labellings of each family graph.  A relabelling reorders the CSR
# rows and the columns within them, so the kernel's dense accumulator is
# filled and cleared in a different order; every reduction must still
# match the oracles of the relabelled graph.
LAYOUTS = {
    "natural": lambda n: np.arange(n, dtype=np.int64),
    "reversed": lambda n: np.arange(n - 1, -1, -1, dtype=np.int64),
    "shuffled": lambda n: np.random.default_rng(2011).permutation(n).astype(np.int64),
}


@functools.lru_cache(maxsize=None)
def layout_graph(family: str, layout: str) -> Graph:
    graph = family_graph(family)
    labels = LAYOUTS[layout](graph.n_nodes)
    u, v = graph.edge_arrays
    return Graph.from_edge_arrays(graph.n_nodes, labels[u], labels[v])


def padded_graph(graph: Graph) -> Graph:
    """``graph`` with isolated nodes appended up to the next power of two
    past its size, as KronFit pads a graph to ``N₁^k`` nodes."""
    padded_n = 1 << max(graph.n_nodes, 1).bit_length()
    return Graph._from_canonical(padded_n, *graph.edge_arrays)


def reference_pass(graph: Graph) -> TrianglePassResult:
    """The oracle answer, from the full-product references."""
    return TrianglePassResult(
        triangles=reference_count_triangles(graph),
        per_node=reference_triangles_per_node(graph),
        max_common_neighbors=reference_max_common_neighbors(graph),
    )


def assert_bit_identical(result: TrianglePassResult, expected: TrianglePassResult):
    assert result.triangles == expected.triangles
    assert result.max_common_neighbors == expected.max_common_neighbors
    assert result.per_node.dtype == np.int64
    np.testing.assert_array_equal(
        np.asarray(result.per_node), np.asarray(expected.per_node)
    )


class TestBackendFamilyMatrix:
    @pytest.mark.parametrize("backend", BACKENDS)
    @pytest.mark.parametrize("layout", LAYOUTS)
    @pytest.mark.parametrize("family", sorted(FAMILIES))
    def test_family(self, backend, layout, family):
        graph = layout_graph(family, layout)
        assert_bit_identical(PASSES[backend](graph), reference_pass(graph))

    @pytest.mark.parametrize("backend", BACKENDS)
    @pytest.mark.parametrize("family", sorted(FAMILIES))
    def test_family_padded_with_isolated_nodes(self, backend, family):
        """Trailing isolated rows leave Δ and LS_Δ alone and add zeros."""
        graph = family_graph(family)
        padded = padded_graph(graph)
        assert padded.n_nodes > graph.n_nodes
        result = PASSES[backend](padded)
        assert_bit_identical(result, reference_pass(padded))
        expected = reference_pass(graph)
        assert result.triangles == expected.triangles
        assert result.max_common_neighbors == expected.max_common_neighbors
        np.testing.assert_array_equal(
            np.asarray(result.per_node[: graph.n_nodes]), np.asarray(expected.per_node)
        )
        assert not np.asarray(result.per_node[graph.n_nodes :]).any()

    @pytest.mark.parametrize("backend", BACKENDS)
    @given(
        n=st.integers(min_value=1, max_value=40),
        p=st.floats(min_value=0.0, max_value=1.0),
        seed=st.integers(min_value=0, max_value=10**6),
    )
    @settings(max_examples=25, deadline=None)
    def test_property_er(self, backend, n, p, seed):
        graph = erdos_renyi_graph(n, p, seed=seed)
        assert_bit_identical(PASSES[backend](graph), reference_pass(graph))

    @pytest.mark.parametrize("backend", BACKENDS)
    def test_backends_agree_pairwise(self, backend):
        """Direct backend-vs-backend check on a graph with hub structure."""
        graph = family_graph("skg-k10")
        assert_bit_identical(PASSES[backend](graph), scipy_pass(graph))


class TestBackendResolution:
    def test_default_resolves_to_an_available_backend(self):
        assert resolve_kernel_backend() == "cext"

    def test_unavailable_cext_fails_loudly(self, monkeypatch):
        """Without the counting kernel, the loader and the triangle pass
        raise the structured error; no graph takes a scipy route instead."""
        monkeypatch.setattr(kernels.COUNTING_KERNEL, "state", (None, "no C compiler found"))
        with pytest.raises(KernelUnavailableError, match="no C compiler found"):
            resolve_kernel_backend()
        with pytest.raises(KernelUnavailableError, match="no C compiler found"):
            triangle_pass(family_graph("star"))


class TestSpectralMemoization:
    def make_graph(self) -> Graph:
        # Above the dense-SVD limit so the sparse (conversion-using) path runs.
        return erdos_renyi_graph(120, 0.08, seed=5)

    def test_zero_extra_adjacency_conversions(self):
        """Repeated spectral calls trigger zero extra float64 conversions."""
        graph = self.make_graph()
        singular_values(graph, k=6)  # warm: converts int8 -> float64 -> CSC
        warm = float64_conversion_count()
        singular_values(graph, k=6)
        network_values(graph, k=6)
        singular_values(graph, k=6)
        assert float64_conversion_count() == warm

    def test_scree_and_network_values_share_one_solve(self):
        graph = self.make_graph()
        context = stats_context(graph)
        assert context.svd_cache == {}
        singular_values(graph, k=6)
        network_values(graph, k=6)
        assert list(context.svd_cache) == [6]

    def test_spectral_calls_run_no_triangle_pass(self):
        graph = self.make_graph()
        before = kernel_pass_count()
        singular_values(graph, k=6)
        network_values(graph, k=6)
        assert kernel_pass_count() == before

    def test_cached_triplets_are_read_only_and_returns_are_copies(self):
        graph = self.make_graph()
        first = singular_values(graph, k=6)
        first[:] = -1.0  # mutating the returned copy must not poison the cache
        again = singular_values(graph, k=6)
        assert np.all(again >= 0)
        values, vector = stats_context(graph).svd_cache[6]
        assert not values.flags.writeable
        assert not vector.flags.writeable

    def test_cached_triplets_own_their_memory(self):
        """The cache must hold copies, not views pinning the factor matrices."""
        sparse_path = self.make_graph()
        dense_path = erdos_renyi_graph(30, 0.2, seed=6)  # under the dense limit
        for graph in (sparse_path, dense_path):
            singular_values(graph, k=6)
            values, vector = stats_context(graph).svd_cache[6]
            assert values.base is None
            assert vector.base is None

    def test_distinct_ranks_are_cached_separately(self):
        graph = self.make_graph()
        np.testing.assert_allclose(
            singular_values(graph, k=8)[:4], singular_values(graph, k=4), rtol=1e-6
        )
        assert sorted(stats_context(graph).svd_cache) == [4, 8]
