"""Clustering coefficients, including the by-degree profile of Figure (e).

The local clustering coefficient of node v is
``c_v = 2 t_v / (d_v (d_v - 1))`` where ``t_v`` is the number of triangles
through v; nodes of degree < 2 have ``c_v = 0`` by convention (and are
excluded from by-degree averages, matching Leskovec et al.'s plots).

The triangle numerators come from the graph's memoized A² pass
(:mod:`repro.stats.kernels`), so clustering shares its one heavy
computation with the triangle counts and the sensitivity release.
"""

from __future__ import annotations

import numpy as np

from repro.graphs.graph import Graph
from repro.stats.kernels import stats_context

__all__ = ["local_clustering", "average_clustering", "clustering_by_degree"]


def local_clustering(graph: Graph) -> np.ndarray:
    """Local clustering coefficient for every node (0 for degree < 2).

    Returns the graph's cached coefficient vector, marked read-only; copy
    before mutating.
    """
    return stats_context(graph).local_clustering


def average_clustering(graph: Graph, *, count_low_degree: bool = True) -> float:
    """Mean local clustering coefficient.

    ``count_low_degree`` includes degree-<2 nodes as zeros (the networkx
    convention); with ``False`` the mean runs over eligible nodes only.
    """
    if graph.n_nodes == 0:
        return 0.0
    coefficients = local_clustering(graph)
    if count_low_degree:
        return float(coefficients.mean())
    eligible = graph.degrees >= 2
    if not np.any(eligible):
        return 0.0
    return float(coefficients[eligible].mean())


def clustering_by_degree(graph: Graph) -> tuple[np.ndarray, np.ndarray]:
    """Average clustering coefficient per degree value — Figure (e).

    Returns ``(degrees, mean_coefficient)`` over degree values >= 2 that
    occur in the graph.
    """
    degrees = graph.degrees
    coefficients = local_clustering(graph)
    eligible = degrees >= 2
    if not np.any(eligible):
        return np.empty(0, np.int64), np.empty(0, np.float64)
    values = np.unique(degrees[eligible])
    means = np.empty(values.size, dtype=np.float64)
    for index, value in enumerate(values):
        means[index] = coefficients[degrees == value].mean()
    return values.astype(np.int64), means
