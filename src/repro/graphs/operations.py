"""Structural graph operations used by the estimation pipeline.

The Kronecker estimators require the node count to be a power of the
initiator size (``2^k`` here); real graphs are padded with isolated nodes,
exactly as Leskovec et al. and Gleich & Owen do.  The figure harness works
on the largest connected component for hop plots, and tests exercise the
remaining helpers.
"""

from __future__ import annotations

import numpy as np

from repro.errors import ValidationError
from repro.graphs.graph import Graph, sorted_unique
from repro.utils.rng import SeedLike, as_generator

__all__ = [
    "connected_components",
    "largest_connected_component",
    "induced_subgraph",
    "pad_to_power_of_two",
    "next_power_of_two_exponent",
    "relabel_random",
]


def connected_components(graph: Graph) -> list[np.ndarray]:
    """Connected components as arrays of node ids, largest first."""
    import scipy.sparse.csgraph as csgraph

    if graph.n_nodes == 0:
        return []
    count, labels = csgraph.connected_components(graph.adjacency, directed=False)
    components = [np.flatnonzero(labels == c) for c in range(count)]
    components.sort(key=len, reverse=True)
    return components


def largest_connected_component(graph: Graph) -> Graph:
    """The induced subgraph on the largest connected component."""
    components = connected_components(graph)
    if not components:
        return Graph(0)
    return induced_subgraph(graph, components[0])


def induced_subgraph(graph: Graph, nodes: np.ndarray) -> Graph:
    """Induced subgraph on ``nodes``, relabelled to ``0 .. len(nodes)-1``.

    ``nodes`` must not contain duplicates; order determines the new labels.
    """
    nodes = np.asarray(nodes, dtype=np.int64)
    if nodes.size != sorted_unique(nodes).size:
        raise ValidationError("nodes for induced_subgraph must be unique")
    if nodes.size and (nodes.min() < 0 or nodes.max() >= graph.n_nodes):
        raise ValidationError("nodes for induced_subgraph out of range")
    position = np.full(graph.n_nodes, -1, dtype=np.int64)
    position[nodes] = np.arange(nodes.size)
    u, v = graph.edge_arrays
    keep = (position[u] >= 0) & (position[v] >= 0)
    return Graph.from_edge_arrays(int(nodes.size), position[u[keep]], position[v[keep]])


def next_power_of_two_exponent(n: int) -> int:
    """Smallest ``k`` with ``2**k >= n`` (and ``k >= 1``)."""
    if n < 1:
        raise ValidationError(f"n must be >= 1, got {n}")
    k = max(1, int(np.ceil(np.log2(n))))
    # Guard against floating-point log2 edge cases around exact powers.
    while 2**k < n:
        k += 1
    while k > 1 and 2 ** (k - 1) >= n:
        k -= 1
    return k

def pad_to_power_of_two(graph: Graph) -> tuple[Graph, int]:
    """Pad with isolated nodes so that ``n_nodes`` is ``2**k``; return (graph, k).

    Isolated nodes leave every statistic the estimators match (edges,
    wedges, tripins, triangles, degree multiset of non-isolated nodes)
    unchanged, so padding does not bias the fit — it only fixes the
    Kronecker order ``k``.
    """
    if graph.n_nodes == 0:
        raise ValidationError("cannot pad an empty graph")
    k = next_power_of_two_exponent(graph.n_nodes)
    target = 2**k
    if target == graph.n_nodes:
        return graph, k
    # Isolated nodes keep canonical edges canonical: no re-canonicalizing.
    u, v = graph.edge_arrays
    return Graph._from_canonical(target, u, v), k


def relabel_random(graph: Graph, seed: SeedLike = None) -> Graph:
    """Apply a uniform random node relabelling (used in sampler tests)."""
    rng = as_generator(seed)
    permutation = rng.permutation(graph.n_nodes)
    u, v = graph.edge_arrays
    return Graph.from_edge_arrays(graph.n_nodes, permutation[u], permutation[v])
