"""repro — differentially private stochastic Kronecker graph estimation.

A full reproduction of *Mir & Wright, "A Differentially Private Estimator
for the Stochastic Kronecker Graph Model" (PAIS @ EDBT 2012)*: the private
estimator (Algorithm 1), the KronFit and KronMom baselines it is compared
against, the DP substrate (Laplace mechanism, Hay et al. degree release,
NRS smooth sensitivity), exact SKG samplers, and the graph-statistics
suite behind the paper's tables and figures.

Quickstart::

    import repro

    graph = repro.load_dataset("ca-grqc")
    estimate = repro.PrivateKroneckerEstimator(epsilon=0.2, delta=0.01,
                                               seed=0).fit(graph)
    print(estimate.describe())
    synthetic = estimate.sample_graph(seed=1)

See README.md for the architecture overview and DESIGN.md for the
paper-to-module map.
"""

from repro.errors import (
    ReproError,
    ValidationError,
    GraphFormatError,
    EstimationError,
    NotFittedError,
    PrivacyError,
    PrivacyBudgetError,
    DatasetError,
)
from repro.graphs import (
    Graph,
    read_edge_list,
    write_edge_list,
    load_dataset,
    available_datasets,
    dataset_info,
)
from repro.kronecker import (
    Initiator,
    as_initiator,
    sample_skg,
    expected_statistics,
    KronMomEstimator,
    KronFitEstimator,
)
from repro.privacy import (
    PrivacyAccountant,
    release_sorted_degrees,
    release_triangle_count,
    release_matching_statistics,
    smooth_sensitivity_triangles,
)
from repro.core import (
    PrivateKroneckerEstimator,
    PrivateEstimate,
    fit_kronmom,
    fit_kronfit,
    fit_private,
    sample_ensemble,
    DPDegreeSequenceSynthesizer,
)
from repro.runtime import TrialCache, TrialRunReport, TrialSpec, run_trials
from repro.stats import matching_statistics, summarize

__version__ = "1.0.0"

__all__ = [
    "__version__",
    # errors
    "ReproError",
    "ValidationError",
    "GraphFormatError",
    "EstimationError",
    "NotFittedError",
    "PrivacyError",
    "PrivacyBudgetError",
    "DatasetError",
    # graphs
    "Graph",
    "read_edge_list",
    "write_edge_list",
    "load_dataset",
    "available_datasets",
    "dataset_info",
    # kronecker
    "Initiator",
    "as_initiator",
    "sample_skg",
    "expected_statistics",
    "KronMomEstimator",
    "KronFitEstimator",
    # privacy
    "PrivacyAccountant",
    "release_sorted_degrees",
    "release_triangle_count",
    "release_matching_statistics",
    "smooth_sensitivity_triangles",
    # core
    "PrivateKroneckerEstimator",
    "PrivateEstimate",
    "fit_kronmom",
    "fit_kronfit",
    "fit_private",
    "sample_ensemble",
    "DPDegreeSequenceSynthesizer",
    # runtime
    "TrialSpec",
    "TrialRunReport",
    "TrialCache",
    "run_trials",
    # stats
    "matching_statistics",
    "summarize",
]
