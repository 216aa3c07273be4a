"""Oracles of the A² counting pass: the full-product code and scipy's pass.

The ``reference_*`` functions build the whole int64 product ``A @ A``
with scipy, once per statistic: the pre-kernel code.  :func:`scipy_pass`
is the pass the fused kernel replaced, one narrowed scipy SpGEMM for all
three statistics.  The fused kernel must bit-match them all, and
``benchmarks/bench_stats.py`` times its speedups against them.
"""

from __future__ import annotations

import numpy as np

from repro.graphs.graph import Graph
from repro.stats.kernels import TrianglePassResult

__all__ = [
    "reference_count_triangles", "reference_triangles_per_node", "reference_max_common_neighbors",
    "scipy_pass",
]


def reference_count_triangles(graph: Graph) -> int:
    """Pre-kernel Δ: ``((A @ A) ∘ A).sum() = 6Δ`` on the full product."""
    if graph.n_edges == 0:
        return 0
    adjacency = graph.adjacency.astype(np.int64)
    paths2 = adjacency @ adjacency
    on_edges = paths2.multiply(adjacency)
    return int(on_edges.sum() // 6)


def reference_triangles_per_node(graph: Graph) -> np.ndarray:
    """Pre-kernel per-node triangle vector, full product."""
    if graph.n_edges == 0:
        return np.zeros(graph.n_nodes, dtype=np.int64)
    adjacency = graph.adjacency.astype(np.int64)
    paths2 = adjacency @ adjacency
    on_edges = paths2.multiply(adjacency)
    per_node = np.asarray(on_edges.sum(axis=1)).ravel() // 2
    return per_node.astype(np.int64)


def reference_max_common_neighbors(graph: Graph) -> int:
    """Pre-kernel LS_Δ: off-diagonal max of the full product."""
    if graph.n_nodes < 2:
        return 0
    if graph.n_edges == 0:
        return 0
    adjacency = graph.adjacency.astype(np.int64).tocsr()
    paths2 = (adjacency @ adjacency).tocoo()
    off_diagonal = paths2.row != paths2.col
    if not np.any(off_diagonal):
        return 0
    return int(paths2.data[off_diagonal].max())


def scipy_pass(graph: Graph) -> TrianglePassResult:
    """The pass on scipy's SpGEMM, as one block over all rows.

    Values narrow to the smallest signed dtype that holds every product
    entry (each is at most the maximum degree) and indices to int32;
    reductions that can exceed that bound accumulate in int64.
    """
    import scipy.sparse as sp

    n = graph.n_nodes
    if graph.n_edges == 0:
        return TrianglePassResult(0, np.zeros(n, dtype=np.int64), 0)
    max_degree = int(graph.degrees.max())
    dtype = next(t for t in (np.int8, np.int16, np.int32) if max_degree <= np.iinfo(t).max)
    indptr, indices = (array.astype(np.int32) for array in graph.csr)
    data = np.ones(indices.size, dtype=dtype)
    adjacency = sp.csr_array((data, indices, indptr), shape=(n, n))
    product = adjacency @ adjacency
    on_edges = product.multiply(adjacency).astype(np.int64)
    per_node = np.asarray(on_edges.sum(axis=1)).ravel() // 2
    # Off-diagonal max straight off the CSR buffers: no COO object.
    row = np.repeat(np.arange(n, dtype=product.indices.dtype), np.diff(product.indptr))
    max_common = int(np.max(product.data, initial=0, where=product.indices != row))
    return TrianglePassResult(int(per_node.sum()) // 3, per_node, max_common)
