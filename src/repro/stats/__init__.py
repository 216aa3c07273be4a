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
blocked kernels in :mod:`repro.stats.kernels` and memoized per graph in a
:class:`~repro.stats.kernels.StatsContext`, so the whole per-trial
pipeline (counts, sensitivity, clustering, spectra) runs one A² pass and
one truncated SVD per graph.  The pass sizes its row blocks against a
fixed entry budget, which bounds its peak memory; ``REPRO_KERNEL_BACKEND``
selects the execution engine (``auto`` | ``scipy`` | ``cext`` — bit-identical,
the fused C kernel just runs faster).
"""

from repro.stats.kernels import (
    StatsContext,
    stats_context,
    triangle_pass,
    kernel_pass_count,
    float64_conversion_count,
    resolve_kernel_backend,
    available_kernel_backends,
)
from repro.stats.counts import (
    count_edges,
    count_wedges,
    count_tripins,
    count_triangles,
    triangles_per_node,
    max_common_neighbors,
    matching_statistics,
    degree_moment_statistics,
)
from repro.stats.degrees import (
    degree_sequence,
    sorted_degree_sequence,
    degree_distribution,
    degree_ccdf,
)
from repro.stats.hopplot import hop_plot, effective_diameter
from repro.stats.spectral import singular_values, network_values
from repro.stats.assortativity import (
    degree_assortativity,
    average_neighbor_degree_by_degree,
    joint_degree_counts,
)
from repro.stats.clustering import (
    local_clustering,
    average_clustering,
    clustering_by_degree,
)
from repro.stats.summary import GraphSummary, summarize
from repro.stats.comparison import (
    relative_error,
    parameter_error,
    ks_distance,
    median_relative_error,
    log_series_distance,
)

__all__ = [
    "StatsContext",
    "stats_context",
    "triangle_pass",
    "kernel_pass_count",
    "float64_conversion_count",
    "resolve_kernel_backend",
    "available_kernel_backends",
    "count_edges",
    "count_wedges",
    "count_tripins",
    "count_triangles",
    "triangles_per_node",
    "max_common_neighbors",
    "matching_statistics",
    "degree_moment_statistics",
    "degree_sequence",
    "sorted_degree_sequence",
    "degree_distribution",
    "degree_ccdf",
    "hop_plot",
    "effective_diameter",
    "singular_values",
    "network_values",
    "degree_assortativity",
    "average_neighbor_degree_by_degree",
    "joint_degree_counts",
    "local_clustering",
    "average_clustering",
    "clustering_by_degree",
    "GraphSummary",
    "summarize",
    "relative_error",
    "parameter_error",
    "ks_distance",
    "median_relative_error",
    "log_series_distance",
]
