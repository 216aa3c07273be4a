"""Hop plot: reachable node pairs as a function of hop count.

Following Leskovec et al.'s convention (the paper's Figure (a) series),
``P(h)`` is the number of *ordered* pairs ``(u, v)`` — including ``u = v``
— at shortest-path distance at most ``h``, so ``P(0) = n`` and ``P(h)``
saturates at ``n + Σ_c |c|(|c|−1)`` over connected components ``c``.

BFS distances come from :func:`scipy.sparse.csgraph.shortest_path`
(unweighted Dijkstra, C speed).  For large graphs an unbiased sampled
estimate over a uniform source subset is available; the estimator scales
per-source reach counts by ``n / |sources|``, which is unbiased for every
``h`` because sources are chosen uniformly.
"""

from __future__ import annotations

import numpy as np

from repro.errors import ValidationError
from repro.graphs.graph import Graph
from repro.stats.kernels import stats_context
from repro.utils.rng import SeedLike, as_generator
from repro.utils.validation import check_integer

__all__ = ["hop_plot", "effective_diameter"]

_BATCH = 512


def hop_plot(
    graph: Graph,
    *,
    n_sources: int | None = None,
    max_hops: int | None = None,
    seed: SeedLike = None,
) -> tuple[np.ndarray, np.ndarray]:
    """Return ``(hops, pairs)`` where ``pairs[h]`` estimates P(hops[h]).

    Parameters
    ----------
    n_sources:
        If given (and smaller than ``n_nodes``), BFS runs from that many
        uniformly sampled sources and counts are scaled by ``n/|S|``;
        otherwise the plot is exact.
    max_hops:
        Truncate the horizontal axis; by default runs to the largest finite
        distance found.
    seed:
        Source-sampling seed (ignored in exact mode).
    """
    n = graph.n_nodes
    if n == 0:
        return np.zeros(1, dtype=np.int64), np.zeros(1, dtype=np.float64)
    if max_hops is not None:
        max_hops = check_integer(max_hops, "max_hops", minimum=0)
    if n_sources is not None:
        n_sources = check_integer(n_sources, "n_sources", minimum=1)

    if n_sources is None or n_sources >= n:
        sources = np.arange(n, dtype=np.int64)
        scale = 1.0
    else:
        rng = as_generator(seed)
        sources = rng.choice(n, size=n_sources, replace=False)
        scale = n / n_sources

    histogram = _distance_histogram(graph, sources)
    if max_hops is not None:
        histogram = histogram[: max_hops + 1]
    hops = np.arange(histogram.size, dtype=np.int64)
    pairs = np.cumsum(histogram) * scale
    return hops, pairs


def _distance_histogram(graph: Graph, sources: np.ndarray) -> np.ndarray:
    """Histogram of finite BFS distances from ``sources`` (bin 0 = self pairs).

    ``shortest_path`` needs a float matrix; the O(E) int8 → float64
    conversion is memoized on the graph's stats context so repeated calls
    (``hop_plot`` then ``effective_diameter``, or figure reruns on the same
    graph) convert once instead of per call.
    """
    import scipy.sparse.csgraph as csgraph

    adjacency = stats_context(graph).adjacency_float64
    counts = np.zeros(1, dtype=np.float64)
    for start in range(0, sources.size, _BATCH):
        batch = sources[start : start + _BATCH]
        distances = csgraph.shortest_path(
            adjacency, method="D", directed=False, unweighted=True, indices=batch
        )
        finite = distances[np.isfinite(distances)].astype(np.int64)
        if finite.size == 0:
            continue
        batch_hist = np.bincount(finite)
        if batch_hist.size > counts.size:
            counts = np.pad(counts, (0, batch_hist.size - counts.size))
        counts[: batch_hist.size] += batch_hist
    return counts


def effective_diameter(
    graph: Graph,
    *,
    quantile: float = 0.9,
    n_sources: int | None = None,
    seed: SeedLike = None,
) -> float:
    """The ``quantile``-effective diameter (interpolated hop count).

    The standard small-world summary (Leskovec et al.): the interpolated
    number of hops within which ``quantile`` of all connected ordered pairs
    lie.  Exposed for the examples and extension benches.
    """
    if not 0.0 < quantile < 1.0:
        raise ValidationError(f"quantile must be in (0, 1), got {quantile}")
    hops, pairs = hop_plot(graph, n_sources=n_sources, seed=seed)
    if pairs[-1] <= 0:
        return 0.0
    target = quantile * pairs[-1]
    index = int(np.searchsorted(pairs, target))
    if index == 0:
        return 0.0
    if index >= hops.size:
        return float(hops[-1])
    lower, upper = pairs[index - 1], pairs[index]
    if upper == lower:
        return float(hops[index])
    fraction = (target - lower) / (upper - lower)
    return float(hops[index - 1]) + float(fraction)
