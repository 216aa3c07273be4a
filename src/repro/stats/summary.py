"""One-call structural summary of a graph.

:func:`summarize` gathers the counts and headline statistics that the
examples and the evaluation harness report, in a single frozen dataclass
that renders nicely.  The triangle count and the clustering coefficient
both derive from the graph's memoized A² pass
(:mod:`repro.stats.kernels`), so one summary costs one pass.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.graphs.graph import Graph
from repro.stats.clustering import average_clustering
from repro.stats.counts import (
    count_triangles,
    count_tripins,
    count_wedges,
)

__all__ = ["GraphSummary", "summarize"]


@dataclass(frozen=True)
class GraphSummary:
    """Headline statistics of one graph (see :func:`summarize`)."""

    n_nodes: int
    n_edges: int
    hairpins: int
    tripins: int
    triangles: int
    max_degree: int
    mean_degree: float
    average_clustering: float

    def render(self) -> str:
        """Multi-line human-readable report."""
        lines = [
            f"nodes               {self.n_nodes}",
            f"edges               {self.n_edges}",
            f"hairpins (2-stars)  {self.hairpins}",
            f"tripins (3-stars)   {self.tripins}",
            f"triangles           {self.triangles}",
            f"max degree          {self.max_degree}",
            f"mean degree         {self.mean_degree:.3f}",
            f"avg clustering      {self.average_clustering:.4f}",
        ]
        return "\n".join(lines)


def summarize(graph: Graph) -> GraphSummary:
    """Compute a :class:`GraphSummary` for ``graph``."""
    degrees = graph.degrees
    return GraphSummary(
        n_nodes=graph.n_nodes,
        n_edges=graph.n_edges,
        hairpins=count_wedges(graph),
        tripins=count_tripins(graph),
        triangles=count_triangles(graph),
        max_degree=int(degrees.max()) if graph.n_nodes else 0,
        mean_degree=float(degrees.mean()) if graph.n_nodes else 0.0,
        average_clustering=average_clustering(graph),
    )
