"""The pure-Python oracles of the five native kernel families.

Each module holds one family's twin of its C kernel (:mod:`repro.native`)
— ``counting``, ``chain``, ``sampling``, ``isotonic``, ``kronmom`` — kept
so the equivalence suites and the benches can check and time the
kernels against it.  No runtime module imports this package: at run time
every family has one engine, its kernel.
"""

from repro.reference.chain import (
    ProfileLikelihood, ReferenceKronFitEstimator, ReferenceMultiChainSampler, ascent_step,
    exact_log_likelihood, profile_log_likelihoods,
)
from repro.reference.counting import (
    reference_count_triangles, reference_max_common_neighbors, reference_triangles_per_node,
    scipy_pass,
)
from repro.reference.isotonic import reference_isotonic_regression, reference_pava
from repro.reference.kronmom import ReferenceKronMomEstimator
from repro.reference.sampling import (
    reference_sample_skg, reference_sample_skg_statistics_batch, sample_skg_naive,
)

__all__ = [
    "ProfileLikelihood", "ReferenceKronFitEstimator", "ReferenceMultiChainSampler",
    "ascent_step", "exact_log_likelihood", "profile_log_likelihoods",
    "reference_count_triangles", "reference_max_common_neighbors",
    "reference_triangles_per_node", "scipy_pass", "reference_isotonic_regression",
    "reference_pava", "ReferenceKronMomEstimator", "reference_sample_skg",
    "reference_sample_skg_statistics_batch", "sample_skg_naive",
]
