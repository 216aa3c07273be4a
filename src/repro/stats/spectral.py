"""Spectral statistics: scree plot and network values.

The paper's Figure (c) plots the top singular values of the adjacency
matrix against rank ("scree plot"); Figure (d) plots the sorted absolute
components of the right singular vector belonging to the largest singular
value ("network value").  Both come from a truncated sparse SVD; tiny
graphs fall back to a dense SVD so the functions work across the whole
test matrix.

Both statistics are served from the graph's
:class:`~repro.stats.kernels.StatsContext`: the float64 CSC operand ARPACK
factorizes is converted once per graph (shared with the hop plot's float64
CSR, so figure pipelines stop re-converting the adjacency per call), and
the solved ``(singular values, principal vector)`` triplets are memoized
per requested rank ``k`` — a figure column's scree plot and network values
cost one solver run between them.
"""

from __future__ import annotations

import numpy as np

from repro.errors import ValidationError
from repro.graphs.graph import Graph
from repro.stats.kernels import StatsContext, stats_context
from repro.utils.validation import check_integer

__all__ = ["singular_values", "network_values"]

# svds requires k < min(shape); below this size use dense SVD instead.
_DENSE_SVD_LIMIT = 64


def singular_values(graph: Graph, k: int = 50) -> np.ndarray:
    """Top ``k`` singular values of the adjacency matrix, descending.

    Returns fewer than ``k`` values when the graph is smaller than ``k``.
    Since the adjacency matrix is symmetric, these are the absolute values
    of its leading eigenvalues.
    """
    values, _vector = _truncated_svd(graph, k)
    return values.copy()  # the cached triplet is read-only; callers may mutate


def network_values(graph: Graph, k: int = 50) -> np.ndarray:
    """Sorted (descending) absolute components of the principal right
    singular vector — the paper's "network value" distribution.

    ``k`` only controls how many singular triplets the underlying solver
    extracts; the returned vector always has ``n_nodes`` components.
    """
    _values, vector = _truncated_svd(graph, k)
    components = np.abs(vector)
    return np.sort(components)[::-1]


def _truncated_svd(graph: Graph, k: int) -> tuple[np.ndarray, np.ndarray]:
    """The memoized ``(singular values, principal vector)`` triplet at ``k``."""
    k = check_integer(k, "k", minimum=1)
    if graph.n_nodes == 0:
        raise ValidationError("spectral statistics are undefined on an empty graph")
    context = stats_context(graph)
    cached = context.svd_cache.get(k)
    if cached is None:
        values, vector = _solve_truncated_svd(graph, context, k)
        values.setflags(write=False)
        vector.setflags(write=False)
        cached = (values, vector)
        context.svd_cache[k] = cached
    return cached


def _solve_truncated_svd(
    graph: Graph, context: StatsContext, k: int
) -> tuple[np.ndarray, np.ndarray]:
    n = graph.n_nodes
    if graph.n_edges == 0:
        return np.zeros(min(k, n), dtype=np.float64), np.zeros(n, dtype=np.float64)
    if n <= _DENSE_SVD_LIMIT or k >= n - 1:
        dense = graph.to_dense().astype(np.float64)
        _u, sigma, v_transpose = np.linalg.svd(dense)
        keep = min(k, sigma.size)
        # .copy(), not a view: the triplet lives in the per-graph cache,
        # and a row/prefix view would pin the whole factor matrix with it.
        return sigma[:keep].copy(), v_transpose[0, :].copy()
    import scipy.sparse.linalg

    # Fixed ARPACK start vector: the default draws from process-global
    # random state, which breaks bit-identical results across worker
    # processes (repro.runtime's determinism guarantee).  The adjacency
    # matrix is nonnegative, so the uniform vector is never orthogonal to
    # the principal subspace.
    v0 = np.full(n, 1.0 / np.sqrt(n))
    _u, sigma, v_transpose = scipy.sparse.linalg.svds(
        context.svd_operand, k=min(k, n - 2), v0=v0
    )
    order = np.argsort(sigma)[::-1]
    sigma = sigma[order]  # fancy indexing: already a fresh array
    return sigma, v_transpose[order[0], :].copy()  # .copy(): see dense path
