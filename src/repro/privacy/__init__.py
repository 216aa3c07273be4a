"""Differential-privacy substrate: mechanisms, sensitivity, graph releases.

Implements everything Algorithm 1 of the paper needs:

* :mod:`repro.privacy.mechanisms` — the Laplace noise every release
  draws through (Dwork et al.'s mechanism, Theorem 4.5 in the paper),
* :mod:`repro.privacy.accountant` — sequential-composition budget tracking
  (Theorem 4.9),
* :mod:`repro.privacy.isotonic` — pool-adjacent-violators regression,
* :mod:`repro.privacy.degree_release` — Hay et al.'s DP sorted degree
  sequence (Laplace noise + constrained inference),
* :mod:`repro.privacy.sensitivity` — local/smooth sensitivity framework
  (Nissim–Raskhodnikova–Smith),
* :mod:`repro.privacy.triangles` — (ε, δ)-DP triangle count via the smooth
  sensitivity of Δ,
* :mod:`repro.privacy.stats_release` — the combined release of the four
  matching statistics {Ẽ, H̃, T̃, Δ̃} used by the private estimator.
"""

from repro.privacy.mechanisms import laplace_noise
from repro.privacy.accountant import PrivacyAccountant, PrivacySpend
from repro.privacy.isotonic import isotonic_regression
from repro.privacy.degree_release import release_sorted_degrees, DegreeRelease
from repro.privacy.sensitivity import (
    local_sensitivity_triangles,
    local_sensitivity_at_distance,
    smooth_sensitivity_triangles,
    smooth_sensitivity_from_distance_bounds,
    triangle_smooth_beta,
)
from repro.privacy.triangles import release_triangle_count, TriangleRelease
from repro.privacy.stats_release import release_matching_statistics, StatisticsRelease
from repro.privacy.k_edge import (
    KEdgeGuarantee,
    k_edge_guarantee,
    per_edge_budget_for_group,
)

__all__ = [
    "laplace_noise",
    "PrivacyAccountant",
    "PrivacySpend",
    "isotonic_regression",
    "release_sorted_degrees",
    "DegreeRelease",
    "local_sensitivity_triangles",
    "local_sensitivity_at_distance",
    "smooth_sensitivity_triangles",
    "smooth_sensitivity_from_distance_bounds",
    "triangle_smooth_beta",
    "release_triangle_count",
    "TriangleRelease",
    "release_matching_statistics",
    "StatisticsRelease",
    "KEdgeGuarantee",
    "k_edge_guarantee",
    "per_edge_budget_for_group",
]
