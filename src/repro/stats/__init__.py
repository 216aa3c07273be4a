"""Graph statistics: the counts the estimator matches and the figure metrics.

Two groups of functionality:

* **Matching statistics** (:mod:`repro.stats.counts`): exact counts of
  edges, hairpins (2-stars/wedges), tripins (3-stars) and triangles — the
  four features F = {E, H, T, Δ} that Gleich–Owen moment matching equates
  with their closed-form expectations.
* **Figure statistics** (:mod:`repro.stats.degrees`, ``hopplot``,
  ``spectral``, ``clustering``): the five per-graph plots of the paper's
  Figures 1–4 (degree distribution, hop plot, scree plot, network values,
  clustering coefficient by degree).

Everything derived from the sparse product ``A @ A`` is computed by the
counting pass in :mod:`repro.stats.kernels` and memoized per graph in a
:class:`~repro.stats.kernels.StatsContext`, so the whole per-trial
pipeline (counts, sensitivity, clustering, spectra) runs one A² pass and
one truncated SVD per graph.  The pass is one call of the fused C kernel
over all rows, with O(n) scratch and no product matrix.
"""

from repro.stats.kernels import (
    StatsContext,
    stats_context,
    triangle_pass,
    kernel_pass_count,
    float64_conversion_count,
    resolve_kernel_backend,
)
from repro.stats.counts import (
    count_wedges,
    count_tripins,
    count_triangles,
    triangles_per_node,
    max_common_neighbors,
    matching_statistics,
    degree_moment_statistics,
)
from repro.stats.degrees import degree_distribution
from repro.stats.hopplot import hop_plot, effective_diameter
from repro.stats.spectral import singular_values, network_values
from repro.stats.assortativity import degree_assortativity
from repro.stats.clustering import (
    local_clustering,
    average_clustering,
    clustering_by_degree,
)
from repro.stats.summary import GraphSummary, summarize
from repro.stats.comparison import (
    relative_error,
    ks_distance,
    log_series_distance,
)

__all__ = [
    "StatsContext",
    "stats_context",
    "triangle_pass",
    "kernel_pass_count",
    "float64_conversion_count",
    "resolve_kernel_backend",
    "count_wedges",
    "count_tripins",
    "count_triangles",
    "triangles_per_node",
    "max_common_neighbors",
    "matching_statistics",
    "degree_moment_statistics",
    "degree_distribution",
    "hop_plot",
    "effective_diameter",
    "singular_values",
    "network_values",
    "degree_assortativity",
    "local_clustering",
    "average_clustering",
    "clustering_by_degree",
    "GraphSummary",
    "summarize",
    "relative_error",
    "ks_distance",
    "log_series_distance",
]
