"""The common estimator protocol behind the scenario grid.

Every synthesizer the reproduction compares — the KronFit and KronMom
baselines, the paper's private Algorithm 1, and the structure-based DP
degree-sequence baseline — follows one shape: construct with
hyper-parameters, ``fit`` a graph, receive a *model* that can ``sample``
synthetic graphs and states the privacy budget it consumed.  This module
names that shape (:class:`Estimator` / :class:`FittedModel`) and keeps a
registry of the concrete methods, so :mod:`repro.scenarios` can treat
"which estimator" as a plain grid axis next to "which dataset" and
"which ε".

The registry also carries per-method capability flags: which methods
consume randomness (``accepts_seed``) and which consume the scenario's
privacy budget (``accepts_epsilon`` / ``accepts_delta``).  The scenario
engine uses them to inject the trial RNG stream and the budget axis
without the specs having to repeat them per method.

:class:`FixedInitiatorEstimator` is the degenerate member of the family:
its "fit" ignores the data and returns the initiator it was constructed
with.  It is what makes pure sampling workloads — the figures' "Expected"
ensembles, ``repro run-ensemble``-style grids — expressible as scenarios
over the same axes as the real estimators.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Any, Callable, Mapping, Protocol, runtime_checkable

from repro.core.baseline import DPDegreeSequenceSynthesizer
from repro.errors import ValidationError
from repro.graphs.graph import Graph
from repro.kronecker.initiator import Initiator, as_initiator
from repro.utils.rng import SeedLike
from repro.utils.validation import check_integer

__all__ = [
    "FittedModel",
    "Estimator",
    "EstimatorMethod",
    "ESTIMATOR_METHODS",
    "estimator_method",
    "available_estimator_methods",
    "build_estimator",
    "FixedInitiatorEstimator",
    "FixedInitiatorModel",
    "NON_PRIVATE_EPSILON",
]

# The ε a non-private fit reports: no privacy guarantee at all.
NON_PRIVATE_EPSILON = math.inf


@runtime_checkable
class FittedModel(Protocol):
    """What every fitted synthesizer exposes to the evaluation layer."""

    @property
    def epsilon(self) -> float:
        """Privacy budget consumed producing the model (inf = non-private)."""
        ...

    def sample_graph(self, seed: SeedLike = None) -> Graph:
        """One synthetic graph from the fitted model."""
        ...


@runtime_checkable
class Estimator(Protocol):
    """Anything that fits a graph into a :class:`FittedModel`."""

    def fit(self, graph: Graph) -> FittedModel:
        ...


@dataclass(frozen=True)
class FixedInitiatorModel:
    """A known SKG distribution Θ^{⊗k} posing as a fitted model."""

    initiator: Initiator
    k: int

    @property
    def epsilon(self) -> float:
        return NON_PRIVATE_EPSILON

    def sample_graph(self, seed: SeedLike = None) -> Graph:
        return self.initiator.sample(self.k, seed=seed)


class FixedInitiatorEstimator:
    """The degenerate estimator: "fitting" returns a fixed initiator.

    Lets pure-sampling workloads (ensemble statistics, the figures'
    "Expected" curves) run on the same scenario axes as the real
    estimators — the workload graph, if any, is ignored.

    Examples
    --------
    >>> model = FixedInitiatorEstimator(a=0.9, b=0.5, c=0.2, k=4).fit(None)
    >>> model.sample_graph(seed=0).n_nodes
    16
    """

    def __init__(self, *, a: float, b: float, c: float, k: int) -> None:
        self.initiator = as_initiator((a, b, c))
        self.k = check_integer(k, "k", minimum=1)

    def fit(self, graph: Graph | None = None) -> FixedInitiatorModel:
        return FixedInitiatorModel(initiator=self.initiator, k=self.k)


class _BuiltEstimator:
    """Adapter: an SKG estimator built up front, its results wrapped as
    :class:`~repro.core.nonprivate.EstimatorResult`.

    Building the estimator at :func:`build_estimator` time validates its
    params from public inputs alone, before any fit (or budget charge).
    """

    def __init__(self, method: str, estimator: Any) -> None:
        self._method = method
        self._estimator = estimator

    def fit(self, graph: Graph) -> FittedModel:
        from repro.core.nonprivate import estimator_result

        return estimator_result(self._method, self._estimator.fit(graph))


@dataclass(frozen=True)
class EstimatorMethod:
    """One registered estimator family (a value of the scenario axis).

    Attributes
    ----------
    name:
        Registry key ("KronFit", "KronMom", "Private", "DPDegree",
        "Fixed").
    factory:
        ``factory(**params) -> Estimator``.
    accepts_seed:
        The method consumes randomness; the scenario engine passes the
        trial's RNG stream as ``seed`` unless the spec pins one.
    accepts_epsilon, accepts_delta:
        The method consumes the scenario's privacy budget; the engine
        injects ``epsilon`` / ``delta`` from the scenario spec.
    code_target:
        ``"module:attr"`` path of the front-door callable/class the
        factory dispatches to.  The scenario trial cache fingerprints
        its *source* (not the thin factory wrapper's), so editing the
        estimator front door invalidates cached scenario trials.
    """

    name: str
    factory: Callable[..., Estimator]
    accepts_seed: bool = False
    accepts_epsilon: bool = False
    accepts_delta: bool = False
    code_target: str = ""

    def resolve_code_target(self) -> Callable[..., Any]:
        """The front-door callable named by :attr:`code_target`."""
        if not self.code_target:
            return self.factory
        module_name, _, attribute = self.code_target.partition(":")
        import importlib

        return getattr(importlib.import_module(module_name), attribute)


def _kronfit_factory(**params: Any) -> Estimator:
    from repro.kronecker.kronfit import KronFitEstimator

    return _BuiltEstimator("KronFit", KronFitEstimator(**params))


def _kronmom_factory(**params: Any) -> Estimator:
    from repro.kronecker.kronmom import KronMomEstimator

    return _BuiltEstimator("KronMom", KronMomEstimator(**params))


def _private_factory(**params: Any) -> Estimator:
    from repro.core.estimator import PrivateKroneckerEstimator

    return _BuiltEstimator("Private", PrivateKroneckerEstimator(**params))


ESTIMATOR_METHODS: dict[str, EstimatorMethod] = {
    "KronFit": EstimatorMethod(
        name="KronFit",
        factory=_kronfit_factory,
        accepts_seed=True,
        code_target="repro.kronecker.kronfit:KronFitEstimator",
    ),
    "KronMom": EstimatorMethod(
        name="KronMom",
        factory=_kronmom_factory,
        code_target="repro.kronecker.kronmom:KronMomEstimator",
    ),
    "Private": EstimatorMethod(
        name="Private",
        factory=_private_factory,
        accepts_seed=True,
        accepts_epsilon=True,
        accepts_delta=True,
        code_target="repro.core.estimator:PrivateKroneckerEstimator",
    ),
    "DPDegree": EstimatorMethod(
        name="DPDegree",
        factory=lambda **params: DPDegreeSequenceSynthesizer(**params),
        accepts_seed=True,
        accepts_epsilon=True,
        code_target="repro.core.baseline:DPDegreeSequenceSynthesizer",
    ),
    "Fixed": EstimatorMethod(
        name="Fixed",
        factory=lambda **params: FixedInitiatorEstimator(**params),
        code_target="repro.core.protocols:FixedInitiatorEstimator",
    ),
}


def estimator_method(name: str) -> EstimatorMethod:
    """Look a method up, failing with the valid axis values."""
    try:
        return ESTIMATOR_METHODS[name]
    except KeyError:
        raise ValidationError(
            f"unknown estimator method {name!r}; registered methods: "
            f"{', '.join(available_estimator_methods())}"
        ) from None


def available_estimator_methods() -> tuple[str, ...]:
    """The registered values of the estimator axis."""
    return tuple(ESTIMATOR_METHODS)


def build_estimator(
    method: str,
    params: Mapping[str, Any] | tuple[tuple[str, Any], ...] = (),
    *,
    epsilon: float | None = None,
    delta: float | None = None,
    seed: SeedLike = None,
) -> Estimator:
    """Instantiate a registered method with scenario-axis injection.

    ``params`` always win; the budget (``epsilon`` / ``delta``) and the
    randomness (``seed``, usually the trial's RNG stream) are injected
    only where the method's capability flags say they are meaningful and
    the spec did not pin an explicit value.
    """
    descriptor = estimator_method(method)
    kwargs = dict(params)
    if descriptor.accepts_epsilon and epsilon is not None:
        kwargs.setdefault("epsilon", epsilon)
    if descriptor.accepts_delta and delta is not None:
        kwargs.setdefault("delta", delta)
    if descriptor.accepts_seed and seed is not None:
        kwargs.setdefault("seed", seed)
    return descriptor.factory(**kwargs)
