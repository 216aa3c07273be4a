"""The A² counting pass (fused kernel; scipy past int32) and the per-graph cache.

Every statistic the pipeline derives from the sparse product ``A @ A`` —
the triangle total Δ, the per-node triangle vector, the off-diagonal
maximum common-neighbour count that drives LS_Δ, and the local clustering
numerators — used to materialize the *full* product independently.  Its
size is the wedge count, which for the paper's power-law graphs is orders
of magnitude larger than the edge count, and the pipeline recomputed it up
to three times per trial (Δ, LS_Δ, clustering).

This module fixes both costs:

* :func:`triangle_pass` computes every reduction of ``A @ A`` in **row
  blocks**, streaming the results out of each block in a single pass, so
  peak memory is bounded and each path-2 contribution is produced exactly
  once.  The block size is auto-tuned: rows are packed until a block's
  predicted product size reaches a fixed entry budget, so small graphs
  run as one block (no overhead) and large graphs stay within a bounded
  footprint.
* The fused kernel (:mod:`repro.native.counting`) executes the pass: it
  walks the CSR rows directly with a dense accumulator and never
  materializes a product entry.  A graph past int32 CSR indexing, which
  the kernel cannot address, runs the blocked scipy SpGEMM instead; that
  is the only choice, and the graph alone makes it.  All arithmetic is
  integer-exact, so both paths return **bit-identical** results for
  every block size (enforced by
  ``tests/stats/test_backend_equivalence.py``).
* :class:`StatsContext` memoizes the pass (plus derived quantities,
  dtype conversions, and truncated-SVD triplets) per
  :class:`~repro.graphs.graph.Graph` instance, so ``matching_statistics``,
  the smooth-sensitivity release, the figure-series clustering, and the
  spectral statistics all share **one** computation of everything.

The pre-blocking implementations are the oracles of
:mod:`repro.reference.counting`: the equivalence tests assert both paths
bit-match them, and ``benchmarks/bench_stats.py`` measures the speedups
against them.
"""

from __future__ import annotations

import weakref
from typing import TYPE_CHECKING, NamedTuple

import numpy as np

from repro.graphs.graph import Graph
from repro.native.counting import COUNTING_KERNEL
from repro.utils.validation import check_integer

if TYPE_CHECKING:
    import scipy.sparse as sp

__all__ = [
    "TrianglePassResult",
    "triangle_pass",
    "StatsContext",
    "stats_context",
    "kernel_pass_count",
    "float64_conversion_count",
    "resolve_kernel_backend",
    "row_blocks",
]

# Auto-tuning budget: target number of stored entries in one row-block of
# A @ A.  At int64 data plus index arrays this is roughly 64 MiB per block
# — small enough to stay cache-friendly on any modern machine, large
# enough that graphs below ~4M wedges run as a single block.
AUTO_ENTRY_BUDGET = 1 << 22

# Process-wide count of executed A² passes.  Tests and benches use this to
# assert the memoization contract: one pass per graph, no matter how many
# consumers (Δ, LS_Δ, clustering, ...) ask for its reductions.
_pass_count = 0

# Process-wide count of int8→float64 adjacency conversions (and the CSC
# re-layout for ARPACK).  The spectral/hop-plot memoization contract —
# repeated figure calls trigger zero extra conversions — is asserted
# against this counter.
_float64_conversions = 0


def kernel_pass_count() -> int:
    """Number of blocked A² passes executed so far in this process."""
    return _pass_count


def float64_conversion_count() -> int:
    """Number of float64 adjacency materializations so far in this process."""
    return _float64_conversions


class TrianglePassResult(NamedTuple):
    """Every reduction of ``A @ A`` the pipeline consumes, from one pass.

    Attributes
    ----------
    triangles:
        The triangle total Δ.
    per_node:
        Triangles through each node (read-only int64, length ``n_nodes``).
    max_common_neighbors:
        ``max_{i ≠ j} |N(i) ∩ N(j)|`` over *all* node pairs — the local
        sensitivity LS_Δ of the triangle count.
    n_blocks:
        How many row blocks the pass used (1 = unblocked equivalent).
    wedges:
        Number of hairpins H = Σ_v C(d_v, 2).
    tripins:
        Number of tripins T = Σ_v C(d_v, 3).
    """

    triangles: int
    per_node: np.ndarray
    max_common_neighbors: int
    n_blocks: int
    wedges: int
    tripins: int


def resolve_kernel_backend() -> str:
    """Load the counting kernel (run records and the benchmark pay its probe
    up front) and name it: always ``"cext"``."""
    COUNTING_KERNEL.kernel()
    return "cext"


def row_blocks(graph: Graph, block_size: int = 0) -> list[tuple[int, int]]:
    """Partition ``range(n_nodes)`` into the row blocks of the A² pass.

    With ``block_size > 0`` the blocks are fixed-size row ranges.  With
    ``block_size == 0`` (auto) rows are packed greedily until the block's
    predicted number of product entries — the exact per-row path-2 count
    ``(A @ d)_r = Σ_{j ∈ N(r)} d_j``, an upper bound on the block's stored
    entries — reaches :data:`AUTO_ENTRY_BUDGET`.  Rows whose own bound
    exceeds the budget get a singleton block.
    """
    n = graph.n_nodes
    if n == 0:
        return []
    if block_size > 0:
        return [(r, min(r + block_size, n)) for r in range(0, n, block_size)]
    degrees = graph.degrees
    # Total path-2 count Σ_j d_j² bounds the whole product; when it fits
    # the budget the common case — one block — needs no per-row analysis.
    if int((degrees * degrees).sum()) <= AUTO_ENTRY_BUDGET:
        return [(0, n)]
    # Running path-2 counts: Σ_j d_j over the CSR entries of rows 0..r is
    # the prefix sum of d[indices] read at indptr[r + 1] (exact in int64).
    indptr, indices = graph.csr
    cumulative = np.concatenate([[0], np.cumsum(degrees[indices])])[indptr[1:]]
    blocks: list[tuple[int, int]] = []
    start = 0
    consumed = 0
    while start < n:
        end = int(np.searchsorted(cumulative, consumed + AUTO_ENTRY_BUDGET, side="right"))
        end = max(end, start + 1)  # always make progress, even past-budget rows
        end = min(end, n)
        blocks.append((start, end))
        consumed = int(cumulative[end - 1])
        start = end
    return blocks


def _product_dtype(max_degree: int) -> np.dtype:
    """Smallest signed integer dtype that holds every entry of ``A @ A``.

    Each product entry is ``|N(i) ∩ N(j)|`` (or a degree on the diagonal),
    both bounded by the maximum degree, so the per-entry arithmetic is
    exact in any dtype whose range covers it; the narrow dtype roughly
    halves the product's memory traffic and runtime versus int64.
    Reductions that can exceed the bound (row sums, the triangle total)
    are cast to int64 before accumulating.
    """
    for candidate in (np.int8, np.int16, np.int32):
        if max_degree <= np.iinfo(candidate).max:
            return np.dtype(candidate)
    return np.dtype(np.int64)


def _working_adjacency(graph: Graph) -> sp.csr_array:
    """The adjacency recast for the scipy pass: narrow values and indices.

    Values go to the smallest dtype that holds every product entry
    (:func:`_product_dtype`); index arrays drop to int32 when the node and
    edge counts allow, which scipy then propagates through the product —
    halving the index traffic of the product, the edge restriction, and
    the off-diagonal reduction.  Pure representation changes: the
    arithmetic is unchanged.
    """
    import scipy.sparse as sp

    dtype = _product_dtype(int(graph.degrees.max()))
    indptr, indices = _fused_csr_arrays(graph) if _int32_indexable(graph) else graph.csr
    data = np.ones(indices.size, dtype=dtype)
    return sp.csr_array((data, indices, indptr), shape=(graph.n_nodes, graph.n_nodes))


def _fused_csr_arrays(graph: Graph) -> tuple[np.ndarray, np.ndarray]:
    """The int32 CSR structure the fused kernels walk (values are implied 1)."""
    indptr, indices = graph.csr
    return indptr.astype(np.int32), indices.astype(np.int32)


def _int32_indexable(graph: Graph) -> bool:
    """Whether the fused kernels' int32 CSR structure can address the graph."""
    limit = np.iinfo(np.int32).max
    return graph.n_nodes < limit and 2 * graph.n_edges < limit


def triangle_pass(graph: Graph, block_size: int = 0) -> TrianglePassResult:
    """One blocked pass over ``A @ A``, streaming every consumer reduction.

    For each row block ``A[r0:r1]`` the fused kernel (or, past int32
    indexing, the scipy SpGEMM) produces

    * per-node triangles for the block's rows (the product restricted to
      edge positions, halved),
    * the running off-diagonal maximum (the LS_Δ ingredient),

    then drops the block; the wedge and tripin totals are folded in from
    the degree sequence so the result carries every matching statistic.
    The triangle total is ``Σ_v t_v / 3``.  Every accumulating reduction
    is int64 and the per-entry arithmetic is exact on both paths, so
    results bit-match the unblocked int64 reference implementations for
    every block size.  ``block_size`` is the rows per block (``0`` =
    auto, see :func:`row_blocks`).
    """
    n = graph.n_nodes
    block_size = check_integer(block_size, "block_size", minimum=0)
    wedges, tripins = _degree_moments(graph.degrees)
    per_node = np.zeros(n, dtype=np.int64)
    if graph.n_edges == 0:
        per_node.setflags(write=False)
        return TrianglePassResult(0, per_node, 0, 0, wedges, tripins)

    global _pass_count
    _pass_count += 1

    blocks = row_blocks(graph, block_size)
    if _int32_indexable(graph):
        max_common = _run_blocks(graph, blocks, per_node)
    else:  # beyond int32 indexing only scipy's int64 path fits
        max_common = _run_blocks_scipy(graph, blocks, per_node)
    per_node.setflags(write=False)
    return TrianglePassResult(
        int(per_node.sum()) // 3, per_node, max_common, len(blocks), wedges, tripins
    )


def _degree_moments(degrees: np.ndarray) -> tuple[int, int]:
    """Exact (wedges, tripins) = (Σ C(d, 2), Σ C(d, 3)) of a degree sequence."""
    wedges = int((degrees * (degrees - 1) // 2).sum())
    tripins = int((degrees * (degrees - 1) * (degrees - 2) // 6).sum())
    return wedges, tripins


def _run_blocks(
    graph: Graph,
    blocks: list[tuple[int, int]],
    per_node: np.ndarray,
) -> int:
    """Execute ``blocks`` on the fused kernel, writing per-node triangles
    into ``per_node``; returns the off-diagonal maximum over the blocks.
    """
    kernel = COUNTING_KERNEL.kernel()
    indptr, indices = _fused_csr_arrays(graph)
    n = graph.n_nodes
    workspace = np.zeros(n, dtype=np.int64)
    touched = np.empty(n, dtype=np.int32)
    max_common = 0
    for r0, r1 in blocks:
        block_max = kernel(
            indptr, indices, r0, r1, per_node[r0:r1], workspace, touched
        )
        max_common = max(max_common, int(block_max))
    return max_common


def _run_blocks_scipy(
    graph: Graph,
    blocks: list[tuple[int, int]],
    per_node: np.ndarray,
) -> int:
    n = graph.n_nodes
    adjacency = _working_adjacency(graph)
    max_common = 0
    for r0, r1 in blocks:
        rows = adjacency if (r0, r1) == (0, n) else adjacency[r0:r1]
        product = rows @ adjacency
        if product.nnz == 0:
            continue
        on_edges = product.multiply(rows).astype(np.int64)
        per_node[r0:r1] = np.asarray(on_edges.sum(axis=1)).ravel() // 2
        # Off-diagonal max straight off the CSR buffers: expand the row
        # pointer and reduce with a mask — no COO object, no index copy.
        # Matching the stored index dtype keeps the comparison allocation-free.
        row = np.repeat(
            np.arange(r0, r1, dtype=product.indices.dtype), np.diff(product.indptr)
        )
        max_common = max(
            max_common,
            int(np.max(product.data, initial=0, where=(product.indices != row))),
        )
    return max_common


class StatsContext:
    """Memoized per-graph statistics sharing one blocked A² pass.

    Obtained through :func:`stats_context`, which caches one context on
    each :class:`Graph` instance (alongside the graph's lazy adjacency and
    degrees), so every consumer in a trial — ``matching_statistics``, the
    smooth-sensitivity triangle release, the clustering figure series, the
    hop plot's BFS, the scree/network-value spectra — shares one
    computation per graph.

    All cached arrays are read-only; callers that need to mutate must copy.
    The context refers to its graph weakly: the graph owns the context, so
    a strong reference back would make every graph a reference cycle, freed
    only when the cycle collector runs.
    """

    __slots__ = (
        "_graph_ref",
        "_pass",
        "_local_clustering",
        "_adjacency_float",
        "_svd_operand",
        "_svd_cache",
    )

    def __init__(self, graph: Graph) -> None:
        self._graph_ref = weakref.ref(graph)
        self._pass: TrianglePassResult | None = None
        self._local_clustering: np.ndarray | None = None
        self._adjacency_float: sp.csr_array | None = None
        self._svd_operand: sp.csc_array | None = None
        self._svd_cache: dict[int, tuple[np.ndarray, np.ndarray]] = {}

    @property
    def graph(self) -> Graph:
        """The graph this context memoizes."""
        graph = self._graph_ref()
        if graph is None:
            raise ReferenceError("the graph of this StatsContext has been freed")
        return graph

    def triangle_pass_result(self) -> TrianglePassResult:
        """The (cached) result of the blocked A² pass."""
        if self._pass is None:
            self._pass = triangle_pass(self.graph)
        return self._pass

    @property
    def triangle_count(self) -> int:
        """The triangle total Δ."""
        return self.triangle_pass_result().triangles

    @property
    def triangles_per_node(self) -> np.ndarray:
        """Triangles through each node (read-only int64)."""
        return self.triangle_pass_result().per_node

    @property
    def max_common_neighbors(self) -> int:
        """``max_{i ≠ j} |N(i) ∩ N(j)|`` — the local sensitivity LS_Δ."""
        return self.triangle_pass_result().max_common_neighbors

    # -- degree-moment pieces (functions of the cached degree sequence) ----

    @property
    def edge_count(self) -> int:
        """Number of undirected edges E."""
        return self.graph.n_edges

    @property
    def wedge_count(self) -> int:
        """Number of hairpins H = Σ_v C(d_v, 2).

        Degree-only, so it never triggers an A² pass (the pass result
        carries the same value for one-stop consumers).
        """
        return _degree_moments(self.graph.degrees)[0]

    @property
    def tripin_count(self) -> int:
        """Number of tripins T = Σ_v C(d_v, 3).  Degree-only, like wedges."""
        return _degree_moments(self.graph.degrees)[1]

    # -- derived caches ----------------------------------------------------

    @property
    def local_clustering(self) -> np.ndarray:
        """Local clustering coefficient per node (read-only float64).

        ``c_v = 2 t_v / (d_v (d_v − 1))`` with degree-<2 nodes at 0; the
        numerators come from the shared A² pass.
        """
        if self._local_clustering is None:
            degrees = self.graph.degrees.astype(np.float64)
            triangles = self.triangles_per_node.astype(np.float64)
            possible = degrees * (degrees - 1.0) / 2.0
            coefficients = np.zeros(self.graph.n_nodes, dtype=np.float64)
            eligible = possible > 0
            coefficients[eligible] = triangles[eligible] / possible[eligible]
            coefficients.setflags(write=False)
            self._local_clustering = coefficients
        return self._local_clustering

    @property
    def adjacency_float64(self) -> sp.csr_array:
        """The adjacency matrix as a float64 CSR (cached conversion).

        BFS (:mod:`repro.stats.hopplot`) needs a float matrix; converting
        the int8 adjacency costs O(E) and used to be repaid on every call.
        """
        if self._adjacency_float is None:
            global _float64_conversions
            _float64_conversions += 1
            self._adjacency_float = self.graph.adjacency.astype(np.float64).tocsr()
        return self._adjacency_float

    @property
    def svd_operand(self) -> sp.csc_array:
        """The float64 CSC adjacency ARPACK factorizes (cached conversion).

        Builds on :attr:`adjacency_float64`, so the spectral statistics
        and the hop plot share one int8→float64 conversion per graph.
        """
        if self._svd_operand is None:
            global _float64_conversions
            _float64_conversions += 1
            self._svd_operand = self.adjacency_float64.tocsc()
        return self._svd_operand

    @property
    def svd_cache(self) -> dict[int, tuple[np.ndarray, np.ndarray]]:
        """Truncated-SVD triplets keyed by requested rank ``k``.

        Populated by :mod:`repro.stats.spectral`: each entry is the
        read-only ``(singular values, principal right-singular vector)``
        pair for one ``k``, so the scree plot and the network values of a
        figure column cost one solver run between them.
        """
        return self._svd_cache


def stats_context(graph: Graph) -> StatsContext:
    """The memoized :class:`StatsContext` of ``graph`` (created on demand).

    The context rides on the graph instance itself (graphs are immutable
    value objects, so the cache can never go stale) and is dropped with it.
    """
    context = graph._stats
    if context is None:
        context = StatsContext(graph)
        graph._stats = context
    return context
