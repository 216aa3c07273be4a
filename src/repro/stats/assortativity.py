"""Degree correlation: Newman's assortativity coefficient.

It summarizes the "dK-2" statistics that structure-based DP synthesizers
(Sala et al., the paper's closest related work) preserve by construction,
and that a parametric SKG release preserves only as far as the model
allows.  The ``graph_comparison`` scenario measure reports it.
"""

from __future__ import annotations

import numpy as np

from repro.graphs.graph import Graph

__all__ = ["degree_assortativity"]


def degree_assortativity(graph: Graph) -> float:
    """Pearson correlation of endpoint degrees over edges (Newman's r).

    Both orientations of each undirected edge enter the correlation, as in
    the standard definition.  Returns NaN for graphs where the correlation
    is undefined (fewer than 2 edges, or constant degrees).
    """
    if graph.n_edges < 2:
        return float("nan")
    u, v = graph.edge_arrays
    degrees = graph.degrees.astype(np.float64)
    left = np.concatenate([degrees[u], degrees[v]])
    right = np.concatenate([degrees[v], degrees[u]])
    left_std = left.std()
    right_std = right.std()
    if left_std == 0.0 or right_std == 0.0:
        return float("nan")
    covariance = ((left - left.mean()) * (right - right.mean())).mean()
    return float(covariance / (left_std * right_std))
