"""Tests for the core Graph type, including hypothesis invariants."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import GraphFormatError, ValidationError
from repro.graphs import Graph
from repro.graphs.graph import _canonicalize_edges, sorted_unique


def edge_lists(max_nodes: int = 12, max_edges: int = 40):
    """Strategy: (n_nodes, raw edge list) with arbitrary duplicates/order."""
    return st.integers(min_value=1, max_value=max_nodes).flatmap(
        lambda n: st.tuples(
            st.just(n),
            st.lists(
                st.tuples(
                    st.integers(min_value=0, max_value=n - 1),
                    st.integers(min_value=0, max_value=n - 1),
                ),
                max_size=max_edges,
            ),
        )
    )


class TestConstruction:
    def test_empty(self):
        graph = Graph(0)
        assert graph.n_nodes == 0
        assert graph.n_edges == 0

    def test_loops_dropped(self):
        graph = Graph(3, [(0, 0), (1, 1), (0, 1)])
        assert graph.n_edges == 1

    def test_duplicates_and_mirrors_collapse(self):
        graph = Graph(3, [(0, 1), (1, 0), (0, 1)])
        assert graph.n_edges == 1

    def test_canonical_order(self):
        graph = Graph(4, [(3, 1), (2, 0)])
        u, v = graph.edge_arrays
        assert list(u) == [0, 1]
        assert list(v) == [2, 3]

    def test_out_of_range_endpoint_rejected(self):
        with pytest.raises(GraphFormatError):
            Graph(3, [(0, 3)])

    def test_negative_endpoint_rejected(self):
        with pytest.raises(GraphFormatError):
            Graph(3, [(-1, 0)])

    def test_negative_node_count_rejected(self):
        with pytest.raises(ValidationError):
            Graph(-1)

    def test_non_integer_nodes_rejected(self):
        with pytest.raises(ValidationError):
            Graph(2.5)  # type: ignore[arg-type]

    def test_non_integer_edges_rejected(self):
        with pytest.raises(GraphFormatError):
            Graph(3, np.array([[0.5, 1.0]]))

    def test_bad_edge_shape_rejected(self):
        with pytest.raises(GraphFormatError):
            Graph(3, np.array([[0, 1, 2]]))


class TestAccessors:
    def test_degrees(self, square_with_diagonal):
        np.testing.assert_array_equal(
            square_with_diagonal.degrees, [3, 2, 3, 2]
        )

    def test_degree_single(self, square_with_diagonal):
        assert square_with_diagonal.degree(0) == 3

    def test_degree_invalid_node(self, triangle):
        with pytest.raises(ValidationError):
            triangle.degree(5)

    def test_neighbors_sorted(self, square_with_diagonal):
        np.testing.assert_array_equal(
            square_with_diagonal.neighbors(0), [1, 2, 3]
        )

    def test_has_edge_both_orders(self, triangle):
        assert triangle.has_edge(0, 2)
        assert triangle.has_edge(2, 0)

    def test_has_edge_absent(self, path4):
        assert not path4.has_edge(0, 3)

    def test_has_edge_self_loop_false(self, triangle):
        assert not triangle.has_edge(1, 1)

    def test_density_triangle(self, triangle):
        assert triangle.density == 1.0

    def test_density_small_graph(self):
        assert Graph(1).density == 0.0

    def test_edges_iteration(self, triangle):
        assert list(triangle.edges()) == [(0, 1), (0, 2), (1, 2)]

    def test_adjacency_symmetric(self, square_with_diagonal):
        dense = square_with_diagonal.adjacency.toarray()
        np.testing.assert_array_equal(dense, dense.T)
        assert dense.diagonal().sum() == 0

    def test_edge_arrays_read_only(self, triangle):
        u, _v = triangle.edge_arrays
        with pytest.raises(ValueError):
            u[0] = 5

    def test_degrees_read_only(self, triangle):
        with pytest.raises(ValueError):
            triangle.degrees[0] = 5


class TestAlternateConstructors:
    def test_from_dense_symmetrizes(self):
        matrix = np.array([[0, 1, 0], [0, 0, 1], [0, 0, 0]])
        graph = Graph.from_dense(matrix)
        assert graph.edge_set() == {(0, 1), (1, 2)}

    def test_from_dense_drops_diagonal(self):
        graph = Graph.from_dense(np.eye(3))
        assert graph.n_edges == 0

    def test_from_dense_rejects_non_square(self):
        with pytest.raises(GraphFormatError):
            Graph.from_dense(np.zeros((2, 3)))

    def test_from_sparse_roundtrip(self, square_with_diagonal):
        rebuilt = Graph.from_sparse(square_with_diagonal.adjacency)
        assert rebuilt == square_with_diagonal

    def test_from_networkx(self):
        networkx = pytest.importorskip("networkx")
        nx_graph = networkx.karate_club_graph()
        graph = Graph.from_networkx(nx_graph)
        assert graph.n_nodes == nx_graph.number_of_nodes()
        assert graph.n_edges == nx_graph.number_of_edges()

    def test_to_networkx_roundtrip(self, square_with_diagonal):
        pytest.importorskip("networkx")
        back = Graph.from_networkx(square_with_diagonal.to_networkx())
        assert back == square_with_diagonal

    def test_from_edge_arrays_shape_mismatch(self):
        with pytest.raises(GraphFormatError):
            Graph.from_edge_arrays(3, np.array([0, 1]), np.array([1]))


class TestValueSemantics:
    def test_equality(self):
        assert Graph(3, [(0, 1)]) == Graph(3, [(1, 0)])

    def test_inequality_different_nodes(self):
        assert Graph(3, [(0, 1)]) != Graph(4, [(0, 1)])

    def test_inequality_different_edges(self):
        assert Graph(3, [(0, 1)]) != Graph(3, [(0, 2)])

    def test_hash_consistency(self):
        a = Graph(3, [(0, 1), (1, 2)])
        b = Graph(3, [(2, 1), (1, 0)])
        assert hash(a) == hash(b)
        assert len({a, b}) == 1

    def test_repr(self, triangle):
        assert "n_nodes=3" in repr(triangle)
        assert "n_edges=3" in repr(triangle)


class TestEdgeFlip:
    def test_flip_removes_existing(self, triangle):
        flipped = triangle.with_edge_flipped(0, 1)
        assert flipped.n_edges == 2
        assert not flipped.has_edge(0, 1)

    def test_flip_adds_missing(self, path4):
        flipped = path4.with_edge_flipped(0, 3)
        assert flipped.has_edge(0, 3)

    def test_flip_is_involution(self, square_with_diagonal):
        twice = square_with_diagonal.with_edge_flipped(1, 3).with_edge_flipped(1, 3)
        assert twice == square_with_diagonal

    def test_flip_rejects_loop(self, triangle):
        with pytest.raises(ValidationError):
            triangle.with_edge_flipped(1, 1)

    def test_flip_accepts_unordered_endpoints(self, path4):
        assert path4.with_edge_flipped(3, 0) == path4.with_edge_flipped(0, 3)

    def test_flip_does_not_mutate_original(self, triangle):
        edges_before = triangle.edge_set()
        triangle.with_edge_flipped(0, 1)
        assert triangle.edge_set() == edges_before

    @given(edge_lists(), st.data())
    @settings(max_examples=60)
    def test_flip_matches_set_semantics(self, n_and_edges, data):
        """The vectorized flip equals the definitional edge-set toggle."""
        n, edges = n_and_edges
        if n < 2:
            return
        graph = Graph(n, edges)
        a = data.draw(st.integers(min_value=0, max_value=n - 1))
        b = data.draw(st.integers(min_value=0, max_value=n - 1))
        if a == b:
            return
        expected = graph.edge_set() ^ {(min(a, b), max(a, b))}
        flipped = graph.with_edge_flipped(a, b)
        assert flipped == Graph(n, sorted(expected))
        # The result must itself be canonical (it skips re-canonicalization).
        u, v = flipped.edge_arrays
        assert np.all(u < v)
        keys = u * n + v
        assert keys.size < 2 or np.all(np.diff(keys) > 0)


class TestTrustedConstructor:
    def test_matches_validating_constructor(self):
        graph = Graph(6, [(0, 1), (0, 2), (1, 2), (3, 5)])
        trusted = Graph._from_canonical(graph.n_nodes, *graph.edge_arrays)
        assert trusted == graph
        assert trusted.edge_set() == graph.edge_set()
        np.testing.assert_array_equal(trusted.degrees, graph.degrees)

    def test_arrays_are_frozen(self):
        graph = Graph._from_canonical(
            4, np.array([0, 1], dtype=np.int64), np.array([2, 3], dtype=np.int64)
        )
        u, _v = graph.edge_arrays
        assert not u.flags.writeable


class TestPickle:
    def test_roundtrip_preserves_value(self, square_with_diagonal):
        import pickle

        clone = pickle.loads(pickle.dumps(square_with_diagonal))
        assert clone == square_with_diagonal
        assert hash(clone) == hash(square_with_diagonal)

    def test_roundtrip_drops_derived_caches(self, triangle):
        import pickle

        triangle.adjacency  # populate caches on the source
        triangle.degrees
        clone = pickle.loads(pickle.dumps(triangle))
        assert clone._adjacency is None
        assert clone._degrees is None
        assert clone._stats is None
        np.testing.assert_array_equal(clone.degrees, triangle.degrees)


class TestGraphProperties:
    @given(edge_lists())
    @settings(max_examples=60)
    def test_canonicalization_invariants(self, n_and_edges):
        n, edges = n_and_edges
        graph = Graph(n, edges)
        u, v = graph.edge_arrays
        # Canonical: u < v everywhere, lexicographically sorted, unique.
        assert np.all(u < v)
        keys = u * n + v
        assert np.all(np.diff(keys) > 0) if keys.size > 1 else True
        # Edge set matches the deduped input.
        expected = {(min(a, b), max(a, b)) for a, b in edges if a != b}
        assert graph.edge_set() == expected

    @given(edge_lists())
    @settings(max_examples=40)
    def test_degree_sum_is_twice_edges(self, n_and_edges):
        n, edges = n_and_edges
        graph = Graph(n, edges)
        assert int(graph.degrees.sum()) == 2 * graph.n_edges

    @given(edge_lists())
    @settings(max_examples=40)
    def test_construction_is_idempotent(self, n_and_edges):
        n, edges = n_and_edges
        once = Graph(n, edges)
        twice = Graph(n, list(once.edges()))
        assert once == twice


def _unique_reference(edges: np.ndarray, n_nodes: int) -> tuple[np.ndarray, np.ndarray]:
    """Canonicalization as it was written with ``np.unique``: the oracle."""
    u = np.minimum(edges[:, 0], edges[:, 1])
    v = np.maximum(edges[:, 0], edges[:, 1])
    keep = u != v
    key = np.unique(u[keep] * np.int64(n_nodes) + v[keep])
    return key // np.int64(n_nodes), key % np.int64(n_nodes)


class TestSortedUnique:
    @given(edge_lists(), st.data())
    @settings(max_examples=80)
    def test_canonicalize_equals_the_unique_oracle(self, n_and_edges, data):
        n, edges = n_and_edges
        # Repeat a drawn sublist, some of it mirrored, so duplicates and
        # reversed pairs are common rather than incidental.
        extra = data.draw(st.lists(st.sampled_from(edges), max_size=20)) if edges else []
        mirrored = data.draw(st.booleans())
        edges = edges + [(b, a) if mirrored else (a, b) for a, b in extra]
        array = np.array(edges, dtype=np.int64).reshape(-1, 2)
        u, v = _canonicalize_edges(array[:, 0], array[:, 1], n)
        ref_u, ref_v = _unique_reference(array, n)
        assert u.dtype == v.dtype == np.int64
        assert u.flags.c_contiguous and v.flags.c_contiguous
        np.testing.assert_array_equal(u, ref_u)
        np.testing.assert_array_equal(v, ref_v)

    def test_canonicalize_empty_and_single_node(self):
        for array, n in [(np.empty((0, 2), np.int64), 0), (np.empty((0, 2), np.int64), 5),
                         (np.array([[0, 0], [0, 0]], np.int64), 1)]:
            u, v = _canonicalize_edges(array[:, 0], array[:, 1], n)
            assert u.size == v.size == 0
            assert u.dtype == v.dtype == np.int64

    @given(st.lists(st.integers(min_value=-(2**62), max_value=2**62), max_size=60), st.booleans())
    @settings(max_examples=80)
    def test_equals_np_unique(self, values, narrow):
        array = np.array(values, dtype=np.int64)
        if narrow:
            array = array % 7
        result = sorted_unique(array)
        assert result.dtype == array.dtype
        np.testing.assert_array_equal(result, np.unique(array))

    def test_leaves_its_input_alone(self):
        array = np.array([3, 1, 3, 2], dtype=np.int64)
        sorted_unique(array)
        assert array.tolist() == [3, 1, 3, 2]


def _scipy_csr_reference(graph: Graph):
    """The adjacency as scipy's COO→CSR build made it: the oracle."""
    import scipy.sparse as sp

    u, v = graph.edge_arrays
    rows = np.concatenate([u, v])
    cols = np.concatenate([v, u])
    data = np.ones(rows.size, dtype=np.int8)
    n = graph.n_nodes
    return sp.csr_array((data, (rows, cols)), shape=(n, n))


def _assert_csr_matches_scipy(graph: Graph) -> None:
    reference = _scipy_csr_reference(graph)
    indptr, indices = graph.csr
    assert indptr.dtype == indices.dtype == np.int64
    assert not indptr.flags.writeable and not indices.flags.writeable
    np.testing.assert_array_equal(indptr, reference.indptr)
    np.testing.assert_array_equal(indices, reference.indices)
    assert graph.csr[0] is indptr and graph.csr[1] is indices  # cached
    adjacency = graph.adjacency
    assert adjacency.shape == reference.shape
    for name in ("indptr", "indices", "data"):
        built, expected = getattr(adjacency, name), getattr(reference, name)
        assert built.dtype == expected.dtype, name
        np.testing.assert_array_equal(built, expected)
    assert adjacency.data.dtype == np.int8
    assert adjacency.has_sorted_indices
    np.testing.assert_array_equal(graph.to_dense(), reference.toarray())
    for node in range(graph.n_nodes):
        np.testing.assert_array_equal(graph.neighbors(node), reference[[node], :].indices)


class TestCSR:
    """``Graph.csr`` is the scipy COO→CSR structure, built in numpy."""

    @given(edge_lists(max_nodes=40, max_edges=120))
    @settings(max_examples=80)
    def test_equals_the_scipy_oracle(self, n_and_edges):
        _assert_csr_matches_scipy(Graph(*n_and_edges))

    @pytest.mark.parametrize(
        "graph",
        [
            Graph(0),
            Graph(1),
            Graph(9),
            Graph(20, [(3, 7), (7, 11), (3, 11), (15, 16)]),
            Graph(64, [(0, leaf) for leaf in range(1, 64)]),
            Graph(64, [(leaf, 63) for leaf in range(63)]),
        ],
        ids=["empty", "n=1", "isolated-only", "isolated-nodes", "star-hub-0", "star-hub-last"],
    )
    def test_structured_graphs(self, graph):
        _assert_csr_matches_scipy(graph)

    def test_skg_sample(self):
        from repro.kronecker.sampling import sample_skg

        graph = sample_skg([0.99, 0.45, 0.25], 9, seed=3)
        assert graph.n_edges > 0
        _assert_csr_matches_scipy(graph)

    def test_rebuilt_after_pickling(self, triangle):
        import pickle

        clone = pickle.loads(pickle.dumps(triangle))
        for built, expected in zip(clone.csr, triangle.csr):
            np.testing.assert_array_equal(built, expected)
