"""Structural graph operations used by the estimation pipeline.

The Kronecker estimators require the node count to be a power of the
initiator size (``2^k`` here); real graphs are padded with isolated nodes,
exactly as Leskovec et al. and Gleich & Owen do.
"""

from __future__ import annotations

import numpy as np

from repro.errors import ValidationError
from repro.graphs.graph import Graph

__all__ = ["pad_to_power_of_two", "next_power_of_two_exponent"]


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

