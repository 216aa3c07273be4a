"""Stochastic Kronecker graph model: generation and parameter estimation.

Layout:

* :mod:`repro.kronecker.initiator` — the 2×2 symmetric initiator matrix
  Θ = [[a, b], [b, c]] the paper estimates,
* :mod:`repro.kronecker.kronpower` — dense Kronecker powers and brute-force
  expected counts (the test oracle for the closed forms),
* :mod:`repro.kronecker.moments` — Gleich–Owen closed-form expectations of
  edges/hairpins/tripins/triangles under Θ^{⊗k} (paper Eq. 1),
* :mod:`repro.kronecker.sampling` — the exact O(E) grass-hopping SKG
  sampler,
* :mod:`repro.kronecker.likelihood` / ``kronfit`` — the Leskovec–Faloutsos
  approximate-MLE baseline (permutation MCMC + gradient ascent),
* :mod:`repro.kronecker.kronmom` — the Gleich–Owen moment-matching
  estimator (paper Eq. 2) that the private estimator wraps.
"""

from repro.kronecker.initiator import Initiator, as_initiator
from repro.kronecker.kronpower import (
    kronecker_power,
    edge_probability_matrix,
    brute_force_expected_counts,
)
from repro.kronecker.moments import (
    expected_edges,
    expected_hairpins,
    expected_tripins,
    expected_triangles,
    expected_statistics,
)
from repro.kronecker.sampling import (
    sample_skg,
    sample_skg_statistics,
)
from repro.kronecker.kronmom import (
    KronMomEstimator,
    MomentMatchResult,
    DISTANCES,
    NORMALIZATIONS,
)
from repro.kronecker.kronfit import (
    KronFitEstimator,
    KronFitResult,
    perturbed_initial_sigma,
    select_best_start,
)

__all__ = [
    "Initiator",
    "as_initiator",
    "kronecker_power",
    "edge_probability_matrix",
    "brute_force_expected_counts",
    "expected_edges",
    "expected_hairpins",
    "expected_tripins",
    "expected_triangles",
    "expected_statistics",
    "sample_skg",
    "sample_skg_statistics",
    "KronMomEstimator",
    "MomentMatchResult",
    "DISTANCES",
    "NORMALIZATIONS",
    "KronFitEstimator",
    "KronFitResult",
    "perturbed_initial_sigma",
    "select_best_start",
]
