"""Exact subgraph counts: edges, hairpins, tripins, triangles.

Terminology follows Gleich & Owen (and the paper):

* **hairpin** — a 2-star / wedge / path of length 2 (unordered),
* **tripin** — a 3-star: a centre node with three distinct neighbours,
* **triangle** — three mutually adjacent nodes.

Hairpins and tripins are functions of the degree sequence alone
(:func:`degree_moment_statistics`), which is precisely why the paper can
derive their DP approximations from a DP degree sequence.  Triangles are
not, which is why the paper spends the second half of its privacy budget on
a smooth-sensitivity triangle release.

Everything that consumes the sparse product ``A @ A`` (triangles, per-node
triangles, the max common-neighbour count) is served by the fused
counting pass in :mod:`repro.stats.kernels` through a per-graph
:class:`~repro.stats.kernels.StatsContext`, so repeated calls — and the
other A² consumers in the privacy and figure layers — share a single
kernel call per graph.
"""

from __future__ import annotations

from typing import NamedTuple

import numpy as np

from repro.graphs.graph import Graph
from repro.stats.kernels import stats_context

__all__ = [
    "MatchingStatistics",
    "count_wedges",
    "count_tripins",
    "count_triangles",
    "triangles_per_node",
    "max_common_neighbors",
    "matching_statistics",
    "degree_moment_statistics",
]


class MatchingStatistics(NamedTuple):
    """The four features F = {E, H, T, Δ} used for moment matching.

    Fields are floats so the same container carries exact integer counts
    and noisy DP approximations.
    """

    edges: float
    hairpins: float
    tripins: float
    triangles: float


def count_wedges(graph: Graph) -> int:
    """Number of hairpins H = Σ_v C(d_v, 2)."""
    return stats_context(graph).wedge_count


def count_tripins(graph: Graph) -> int:
    """Number of tripins T = Σ_v C(d_v, 3)."""
    return stats_context(graph).tripin_count


def count_triangles(graph: Graph) -> int:
    """Number of triangles Δ, via Σ_edges |N(u) ∩ N(v)| / 3.

    Served from the graph's memoized A² pass (:mod:`repro.stats.kernels`),
    which computes the product restricted to edge positions —
    ``((A @ A) ∘ A).sum() = 6Δ`` — in one kernel call over all rows.
    """
    return stats_context(graph).triangle_count


def triangles_per_node(graph: Graph) -> np.ndarray:
    """Number of triangles through each node (length ``n_nodes``).

    Returns the graph's cached per-node vector, marked read-only; copy
    before mutating.
    """
    return stats_context(graph).triangles_per_node


def max_common_neighbors(graph: Graph) -> int:
    """max over node pairs i ≠ j of |N(i) ∩ N(j)|.

    This is the quantity driving the local sensitivity of the triangle
    count: flipping edge {i, j} changes Δ by exactly |N(i) ∩ N(j)|.  The
    maximum runs over *all* pairs, adjacent or not, because the edge
    neighbourhood of G includes both additions and deletions.  Served from
    the same memoized A² pass as the triangle counts.
    """
    return stats_context(graph).max_common_neighbors


def matching_statistics(graph: Graph) -> MatchingStatistics:
    """Exact values of the four matching features of ``graph``.

    One call touches every statistic the per-trial pipeline needs, but the
    underlying A² pass still runs at most once per graph: the counts share
    the graph's :class:`~repro.stats.kernels.StatsContext`.
    """
    context = stats_context(graph)
    return MatchingStatistics(
        edges=float(context.edge_count),
        hairpins=float(context.wedge_count),
        tripins=float(context.tripin_count),
        triangles=float(context.triangle_count),
    )


def degree_moment_statistics(degrees: np.ndarray) -> tuple[float, float, float]:
    """(E, H, T) computed from a (possibly noisy, real-valued) degree vector.

    This is the paper's step 3: ``Ẽ = ½Σd̃ᵢ``, ``H̃ = ½Σd̃ᵢ(d̃ᵢ−1)``,
    ``T̃ = ⅙Σd̃ᵢ(d̃ᵢ−1)(d̃ᵢ−2)``.  On an integer degree sequence these equal
    the exact counts; on a DP degree sequence they are the DP approximations
    of Fact 4.6.
    """
    d = np.asarray(degrees, dtype=np.float64)
    edges = 0.5 * d.sum()
    hairpins = 0.5 * (d * (d - 1.0)).sum()
    tripins = (d * (d - 1.0) * (d - 2.0)).sum() / 6.0
    return float(edges), float(hairpins), float(tripins)
