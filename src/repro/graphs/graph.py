"""The :class:`Graph` type: an immutable, undirected, simple graph.

Design notes
------------
* Nodes are the integers ``0 .. n_nodes - 1``.  Callers with arbitrary node
  labels relabel at the IO boundary (:func:`repro.graphs.io.parse_edge_list`
  does this automatically).
* The edge set is stored once, canonically, as two parallel int64 arrays
  ``(u, v)`` with ``u < v`` sorted lexicographically.  The CSR structure
  (:attr:`Graph.csr`, plain numpy) is derived lazily and cached; so are
  degrees.  The scipy matrix (:attr:`Graph.adjacency`) is built from it on
  demand, so only the callers that need scipy import it.
* Instances are value objects: hashable by content, comparable, and safe to
  share between estimators — no method mutates a constructed graph.

The class deliberately supports exactly the operations the paper's pipeline
needs (degrees, neighbour queries, sparse adjacency for counting and
spectra) instead of aspiring to be a general graph library.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Iterable, Iterator

import numpy as np

from repro.errors import GraphFormatError, ValidationError

if TYPE_CHECKING:
    import scipy.sparse as sp

__all__ = ["Graph", "sorted_unique"]


class Graph:
    """An undirected simple graph on nodes ``0 .. n_nodes - 1``.

    Parameters
    ----------
    n_nodes:
        Number of nodes.  Isolated nodes are allowed (and matter: the
        Kronecker estimators pad graphs to a power-of-two node count).
    edges:
        Iterable of ``(u, v)`` pairs.  Self-loops are rejected; duplicate
        and mirrored pairs collapse to a single undirected edge.

    Examples
    --------
    >>> g = Graph(4, [(0, 1), (1, 0), (1, 2)])
    >>> g.n_edges
    2
    >>> g.neighbors(1).tolist()
    [0, 2]
    """

    __slots__ = (
        "_n_nodes",
        "_edge_u",
        "_edge_v",
        "_adjacency",
        "_degrees",
        "_hash",
        "_stats",
        "__weakref__",  # the cached StatsContext refers back weakly
    )

    def __init__(self, n_nodes: int, edges: Iterable[tuple[int, int]] = ()) -> None:
        n_nodes = _check_n_nodes(n_nodes)
        edge_array = np.asarray(list(edges) if not isinstance(edges, np.ndarray) else edges)
        if edge_array.size == 0:
            edge_array = np.empty((0, 2), dtype=np.int64)
        elif edge_array.ndim != 2 or edge_array.shape[1] != 2:
            raise GraphFormatError(
                f"edges must be pairs, got array of shape {edge_array.shape}"
            )
        elif not np.issubdtype(edge_array.dtype, np.integer):
            converted = edge_array.astype(np.int64)
            if not np.array_equal(converted, edge_array):
                raise GraphFormatError("edge endpoints must be integers")
            edge_array = converted
        edge_array = edge_array.astype(np.int64, copy=False)
        self._set_canonical(
            n_nodes, *_canonicalize_edges(edge_array[:, 0], edge_array[:, 1], n_nodes)
        )

    # ------------------------------------------------------------------
    # Alternate constructors
    # ------------------------------------------------------------------

    @classmethod
    def from_edge_arrays(cls, n_nodes: int, u: np.ndarray, v: np.ndarray) -> "Graph":
        """Build from two parallel endpoint arrays (validated and canonicalized)."""
        u = np.asarray(u, dtype=np.int64)
        v = np.asarray(v, dtype=np.int64)
        if u.shape != v.shape or u.ndim != 1:
            raise GraphFormatError("endpoint arrays must be 1-D and the same length")
        n_nodes = _check_n_nodes(n_nodes)
        return cls._from_canonical(n_nodes, *_canonicalize_edges(u, v, n_nodes))

    @classmethod
    def _from_canonical(cls, n_nodes: int, u: np.ndarray, v: np.ndarray) -> "Graph":
        """Trusted constructor: endpoint arrays already in canonical form.

        The caller guarantees ``u``/``v`` are parallel int64 arrays with
        ``u < v`` element-wise, lexicographically sorted, deduplicated, and
        within ``[0, n_nodes)`` — exactly what :func:`_canonicalize_edges`
        produces.  Internal hot paths that construct edges canonically by
        design (the SKG samplers, :meth:`with_edge_flipped`) use this to
        skip the re-canonicalization round trip; everything else goes
        through the validating constructors.  The arrays are frozen in
        place, so callers must hand over ownership.
        """
        graph = object.__new__(cls)
        graph._set_canonical(n_nodes, u, v)
        return graph

    def _set_canonical(self, n_nodes: int, u: np.ndarray, v: np.ndarray) -> None:
        self._n_nodes = int(n_nodes)
        self._edge_u = np.ascontiguousarray(u, dtype=np.int64)
        self._edge_v = np.ascontiguousarray(v, dtype=np.int64)
        self._edge_u.setflags(write=False)
        self._edge_v.setflags(write=False)
        # The CSR structure (see `csr`); the scipy matrix is derived per call.
        self._adjacency: tuple[np.ndarray, np.ndarray] | None = None
        self._degrees: np.ndarray | None = None
        self._hash: int | None = None
        self._stats = None  # lazy StatsContext (see repro.stats.kernels)

    @classmethod
    def from_dense(cls, matrix: np.ndarray) -> "Graph":
        """Build from a dense 0/1 adjacency matrix (symmetrized, loops dropped)."""
        matrix = np.asarray(matrix)
        if matrix.ndim != 2 or matrix.shape[0] != matrix.shape[1]:
            raise GraphFormatError(f"adjacency must be square, got shape {matrix.shape}")
        upper = np.triu(matrix != 0, k=1) | np.triu((matrix != 0).T, k=1)
        rows, cols = np.nonzero(upper)
        return cls.from_edge_arrays(matrix.shape[0], rows, cols)

    @classmethod
    def from_sparse(cls, matrix: sp.spmatrix | sp.sparray) -> "Graph":
        """Build from any scipy sparse adjacency (symmetrized, loops dropped)."""
        import scipy.sparse as sp

        coo = sp.coo_array(matrix)
        if coo.shape[0] != coo.shape[1]:
            raise GraphFormatError(f"adjacency must be square, got shape {coo.shape}")
        mask = coo.data != 0
        return cls.from_edge_arrays(coo.shape[0], coo.row[mask], coo.col[mask])

    @classmethod
    def from_networkx(cls, nx_graph) -> "Graph":
        """Build from a ``networkx.Graph`` (nodes relabelled to 0..n-1)."""
        nodes = list(nx_graph.nodes())
        index = {node: i for i, node in enumerate(nodes)}
        edges = [(index[a], index[b]) for a, b in nx_graph.edges() if a != b]
        return cls(len(nodes), edges)

    # ------------------------------------------------------------------
    # Basic properties
    # ------------------------------------------------------------------

    @property
    def n_nodes(self) -> int:
        """Number of nodes (isolated nodes included)."""
        return self._n_nodes

    @property
    def n_edges(self) -> int:
        """Number of undirected edges."""
        return int(self._edge_u.size)

    @property
    def edge_arrays(self) -> tuple[np.ndarray, np.ndarray]:
        """The canonical endpoint arrays ``(u, v)`` with ``u < v`` (read-only)."""
        return self._edge_u, self._edge_v

    def edges(self) -> Iterator[tuple[int, int]]:
        """Iterate over edges as ``(u, v)`` tuples with ``u < v``."""
        for a, b in zip(self._edge_u, self._edge_v):
            yield int(a), int(b)

    @property
    def degrees(self) -> np.ndarray:
        """Degree of every node, as a read-only int64 array of length n_nodes."""
        if self._degrees is None:
            counts = np.bincount(self._edge_u, minlength=self._n_nodes)
            counts += np.bincount(self._edge_v, minlength=self._n_nodes)
            self._degrees = counts.astype(np.int64)
            self._degrees.setflags(write=False)
        return self._degrees

    def degree(self, node: int) -> int:
        """Degree of a single node."""
        self._check_node(node)
        return int(self.degrees[node])

    @property
    def csr(self) -> tuple[np.ndarray, np.ndarray]:
        """The symmetric adjacency's CSR structure ``(indptr, indices)`` (cached).

        Both int64 and read-only; the values are implied 1.  Node ``i``'s
        neighbours are ``indices[indptr[i]:indptr[i + 1]]``, ascending: one
        sort of the 2E keys ``(u << s) | v`` and ``(v << s) | u`` orders
        every entry by row then column (``s`` bits hold a node id; exact up
        to 2³¹ nodes), and ``indptr`` is the degree cumsum.  The same arrays
        as scipy's COO→CSR build, without importing scipy.
        """
        if self._adjacency is None:
            u, v = self._edge_u, self._edge_v
            shift = max(self._n_nodes - 1, 1).bit_length()
            keys = np.concatenate([(u << shift) | v, (v << shift) | u])
            keys.sort()
            indices = np.bitwise_and(keys, (1 << shift) - 1, out=keys)
            indptr = np.zeros(self._n_nodes + 1, dtype=np.int64)
            np.cumsum(self.degrees, out=indptr[1:])
            indptr.setflags(write=False)
            indices.setflags(write=False)
            self._adjacency = (indptr, indices)
        return self._adjacency

    @property
    def adjacency(self) -> sp.csr_array:
        """Symmetric scipy CSR adjacency with int8 entries, built from :attr:`csr`
        on each call; the one accessor here that imports scipy."""
        import scipy.sparse as sp

        indptr, indices = self.csr
        data = np.ones(indices.size, dtype=np.int8)
        return sp.csr_array((data, indices, indptr), shape=(self._n_nodes, self._n_nodes))

    def neighbors(self, node: int) -> np.ndarray:
        """Sorted array of neighbours of ``node``."""
        self._check_node(node)
        indptr, indices = self.csr
        return indices[indptr[node] : indptr[node + 1]].copy()

    def has_edge(self, a: int, b: int) -> bool:
        """Whether the undirected edge ``{a, b}`` is present."""
        self._check_node(a)
        self._check_node(b)
        if a == b:
            return False
        if a > b:
            a, b = b, a
        lo = np.searchsorted(self._edge_u, a, side="left")
        hi = np.searchsorted(self._edge_u, a, side="right")
        return bool(np.any(self._edge_v[lo:hi] == b))

    @property
    def density(self) -> float:
        """Fraction of possible edges present; 0 for graphs with < 2 nodes."""
        n = self._n_nodes
        if n < 2:
            return 0.0
        return self.n_edges / (n * (n - 1) / 2)

    # ------------------------------------------------------------------
    # Derived structures
    # ------------------------------------------------------------------

    def edge_set(self) -> set[tuple[int, int]]:
        """The edge set as python tuples — convenient for small-graph tests."""
        return {(int(a), int(b)) for a, b in zip(self._edge_u, self._edge_v)}

    def to_dense(self) -> np.ndarray:
        """Dense int8 adjacency matrix (only sensible for small graphs)."""
        dense = np.zeros((self._n_nodes, self._n_nodes), dtype=np.int8)
        dense[self._edge_u, self._edge_v] = 1
        dense[self._edge_v, self._edge_u] = 1
        return dense

    def to_networkx(self):
        """Convert to a ``networkx.Graph`` (imports networkx lazily)."""
        import networkx as nx

        nx_graph = nx.Graph()
        nx_graph.add_nodes_from(range(self._n_nodes))
        nx_graph.add_edges_from(self.edges())
        return nx_graph

    def with_edge_flipped(self, a: int, b: int) -> "Graph":
        """Return a copy with edge ``{a, b}`` toggled (the DP edge neighbour).

        This is exactly the "edge neighbourhood" of Definition 4.1 in the
        paper: graphs at symmetric-difference distance one.  The flip is a
        binary search plus one ``np.insert``/``np.delete`` on the canonical
        arrays — O(E) numpy rather than a Python ``edge_set`` round trip —
        because it sits inside sensitivity sweeps that flip every pair.
        """
        self._check_node(a)
        self._check_node(b)
        if a == b:
            raise ValidationError("cannot flip a self-loop in a simple graph")
        if a > b:
            a, b = b, a
        u, v = self._edge_u, self._edge_v
        lo = int(np.searchsorted(u, a, side="left"))
        hi = int(np.searchsorted(u, a, side="right"))
        position = lo + int(np.searchsorted(v[lo:hi], b, side="left"))
        present = position < hi and v[position] == b
        if present:
            new_u = np.delete(u, position)
            new_v = np.delete(v, position)
        else:
            new_u = np.insert(u, position, a)
            new_v = np.insert(v, position, b)
        return Graph._from_canonical(self._n_nodes, new_u, new_v)

    # ------------------------------------------------------------------
    # Value-object protocol
    # ------------------------------------------------------------------

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Graph):
            return NotImplemented
        return (
            self._n_nodes == other._n_nodes
            and self._edge_u.size == other._edge_u.size
            and bool(np.array_equal(self._edge_u, other._edge_u))
            and bool(np.array_equal(self._edge_v, other._edge_v))
        )

    def __hash__(self) -> int:
        if self._hash is None:
            self._hash = hash(
                (self._n_nodes, self._edge_u.tobytes(), self._edge_v.tobytes())
            )
        return self._hash

    def __reduce__(self):
        # Pickle only the canonical arrays: the derived caches (adjacency,
        # degrees, stats context) are cheap to rebuild relative to shipping
        # them across process boundaries, and the trial engine pickles
        # graphs when params or results cross worker processes or the
        # on-disk cache.
        return (_rebuild_canonical, (self._n_nodes, self._edge_u, self._edge_v))

    def __repr__(self) -> str:
        return f"Graph(n_nodes={self._n_nodes}, n_edges={self.n_edges})"

    # ------------------------------------------------------------------
    # Internals
    # ------------------------------------------------------------------

    def _check_node(self, node: int) -> None:
        if isinstance(node, bool) or not isinstance(node, (int, np.integer)):
            raise ValidationError(f"node must be an integer, got {node!r}")
        if not 0 <= node < self._n_nodes:
            raise ValidationError(
                f"node {node} out of range for graph with {self._n_nodes} nodes"
            )


def _rebuild_canonical(n_nodes: int, u: np.ndarray, v: np.ndarray) -> Graph:
    """Unpickling hook for :meth:`Graph.__reduce__` (module-level for pickle)."""
    return Graph._from_canonical(n_nodes, u, v)


def _check_n_nodes(n_nodes: int) -> int:
    if isinstance(n_nodes, bool) or not isinstance(n_nodes, (int, np.integer)):
        raise ValidationError(f"n_nodes must be an integer, got {n_nodes!r}")
    if n_nodes < 0:
        raise ValidationError(f"n_nodes must be non-negative, got {n_nodes}")
    return int(n_nodes)


def _canonicalize_edges(
    u: np.ndarray, v: np.ndarray, n_nodes: int
) -> tuple[np.ndarray, np.ndarray]:
    """Sort endpoints within pairs, drop loops, dedupe, lexicographically sort."""
    low = np.minimum(u, v)
    high = np.maximum(u, v)
    if low.size and (low.min() < 0 or high.max() >= n_nodes):
        raise GraphFormatError(
            f"edge endpoint out of range [0, {n_nodes}): "
            f"min={low.min()}, max={high.max()}"
        )
    # Drop self-loops, then dedupe and sort in one shot via the scalar key
    # u * n + v; ascending key order equals lexicographic (u, v) order.  The
    # int64 key overflows only beyond ~3e9 nodes, far past anything this
    # library targets.
    key = sorted_unique((low * np.int64(n_nodes) + high)[low != high])
    return key // np.int64(n_nodes), key % np.int64(n_nodes)


def sorted_unique(values: np.ndarray) -> np.ndarray:
    """``np.unique(values)`` of a 1-D integer array, by a sort and a neighbour
    mask: numpy 2's hash-based dedupe is several times slower on edge keys."""
    ordered = np.sort(values)
    keep = np.empty(ordered.size, dtype=bool)
    keep[:1] = True
    np.not_equal(ordered[1:], ordered[:-1], out=keep[1:])
    return ordered[keep]
