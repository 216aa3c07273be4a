"""Degree-based statistics: the degree distribution.

The sorted degree sequence is the object Hay et al.'s DP release operates
on; the degree distribution (count of nodes per degree value) is the
paper's Figure (b) series.
"""

from __future__ import annotations

import numpy as np

from repro.graphs.graph import Graph

__all__ = ["degree_distribution"]


def degree_distribution(
    degrees_or_graph: Graph | np.ndarray,
    *,
    include_zero: bool = False,
) -> tuple[np.ndarray, np.ndarray]:
    """Return ``(values, counts)``: how many nodes have each degree.

    Accepts either a graph or a precomputed (integer) degree vector.  Only
    degrees with non-zero counts are returned; ``include_zero`` keeps the
    degree-0 bucket, which log-log plots drop.
    """
    degrees = _as_degree_vector(degrees_or_graph)
    values, counts = np.unique(degrees, return_counts=True)
    if not include_zero:
        keep = values > 0
        values, counts = values[keep], counts[keep]
    return values.astype(np.int64), counts.astype(np.int64)


def _as_degree_vector(degrees_or_graph: Graph | np.ndarray) -> np.ndarray:
    if isinstance(degrees_or_graph, Graph):
        return degrees_or_graph.degrees
    return np.asarray(degrees_or_graph, dtype=np.int64)
