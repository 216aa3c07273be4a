"""Oracles of the A² counting pass: the pre-blocking full-product code.

Each builds the whole int64 product ``A @ A`` with scipy; the fused
kernel and the blocked scipy pass must bit-match them for every block
size, and ``benchmarks/bench_stats.py`` times the speedups against them.
"""

from __future__ import annotations

import numpy as np

from repro.graphs.graph import Graph

__all__ = [
    "reference_count_triangles", "reference_triangles_per_node", "reference_max_common_neighbors",
]


def reference_count_triangles(graph: Graph) -> int:
    """Pre-blocking Δ: ``((A @ A) ∘ A).sum() = 6Δ`` on the full product."""
    if graph.n_edges == 0:
        return 0
    adjacency = graph.adjacency.astype(np.int64)
    paths2 = adjacency @ adjacency
    on_edges = paths2.multiply(adjacency)
    return int(on_edges.sum() // 6)


def reference_triangles_per_node(graph: Graph) -> np.ndarray:
    """Pre-blocking per-node triangle vector, full product."""
    if graph.n_edges == 0:
        return np.zeros(graph.n_nodes, dtype=np.int64)
    adjacency = graph.adjacency.astype(np.int64)
    paths2 = adjacency @ adjacency
    on_edges = paths2.multiply(adjacency)
    per_node = np.asarray(on_edges.sum(axis=1)).ravel() // 2
    return per_node.astype(np.int64)


def reference_max_common_neighbors(graph: Graph) -> int:
    """Pre-blocking LS_Δ: off-diagonal max of the full product."""
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
