"""Uniform front door over the three estimators the paper compares.

Table 1 and every figure put "KronFit", "KronMom" and "Private" side by
side.  The underlying estimators return different result types with
different diagnostics; :class:`EstimatorResult` is the common denominator
the evaluation harness consumes, and the ``fit_*`` helpers produce it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Any

from repro.graphs.graph import Graph
from repro.kronecker.initiator import Initiator
from repro.kronecker.kronfit import KronFitEstimator
from repro.kronecker.kronmom import KronMomEstimator
from repro.core.estimator import PrivateKroneckerEstimator
from repro.utils.rng import SeedLike

__all__ = [
    "EstimatorResult",
    "estimator_result",
    "fit_kronmom",
    "fit_kronfit",
    "fit_private",
]


@dataclass(frozen=True)
class EstimatorResult:
    """What the experiment harness needs from any estimator.

    Attributes
    ----------
    method:
        Display name ("KronFit" / "KronMom" / "Private").
    initiator:
        The fitted initiator (canonical).
    k:
        Kronecker order for synthetic sampling.
    details:
        The estimator-specific result object, for diagnostics.
    """

    method: str
    initiator: Initiator
    k: int
    details: Any

    @property
    def epsilon(self) -> float:
        """Privacy budget the fit consumed (inf for non-private baselines).

        Makes every estimator result satisfy the
        :class:`repro.core.protocols.FittedModel` protocol, so the
        scenario grid can treat private and non-private methods as
        interchangeable axis values.
        """
        consumed = getattr(self.details, "epsilon", None)
        return float(consumed) if consumed is not None else math.inf

    def sample_graph(self, seed: SeedLike = None) -> Graph:
        """One synthetic graph from the fitted model."""
        return self.initiator.sample(self.k, seed=seed)


def estimator_result(method: str, result: Any) -> EstimatorResult:
    """Wrap an estimator's own result (it carries ``initiator`` and ``k``)."""
    return EstimatorResult(
        method=method, initiator=result.initiator, k=result.k, details=result
    )


def fit_kronmom(graph: Graph, **kwargs) -> EstimatorResult:
    """Non-private Gleich–Owen moment matching on exact statistics."""
    return estimator_result("KronMom", KronMomEstimator(**kwargs).fit(graph))


def fit_kronfit(graph: Graph, **kwargs) -> EstimatorResult:
    """Leskovec–Faloutsos approximate MLE."""
    return estimator_result("KronFit", KronFitEstimator(**kwargs).fit(graph))


def fit_private(
    graph: Graph,
    epsilon: float = 0.2,
    delta: float = 0.01,
    **kwargs,
) -> EstimatorResult:
    """The paper's Algorithm 1 (differentially private moment matching)."""
    estimate = PrivateKroneckerEstimator(epsilon, delta, **kwargs).fit(graph)
    return estimator_result("Private", estimate)
