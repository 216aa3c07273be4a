"""Declarative scenario descriptions.

A *scenario* names one cell of the paper's evidence grid: a workload
(dataset), an estimator, a privacy budget, an ensemble size, a seed
policy, and what to measure per trial.  Scenarios are plain frozen
dataclasses — declarative data, not behaviour — compiled into
:class:`~repro.runtime.spec.TrialSpec` lists by
:mod:`repro.scenarios.engine` and executed by :func:`repro.runtime.run_trials`
(persistent pool, trial cache, bit-identical at any ``n_jobs``).

Parameter payloads (:attr:`EstimatorSpec.params`,
:attr:`ScenarioSpec.measure_params`) are stored as sorted
``(name, value)`` tuples so specs stay hashable and their trial cache
keys are order-independent; build them with :meth:`EstimatorSpec.create`
/ :func:`as_params` and read them back with ``dict(params)``.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Mapping

import numpy as np

from repro.errors import ValidationError
from repro.utils.validation import check_integer

__all__ = [
    "EstimatorSpec",
    "SeedPolicy",
    "ScenarioSpec",
    "as_params",
    "spawn_seeds",
    "fixed_seeds",
]

Params = tuple[tuple[str, Any], ...]


def as_params(params: Mapping[str, Any] | Params | None = None, **extra: Any) -> Params:
    """Normalize keyword payloads into the canonical sorted-tuple form."""
    merged = dict(params or {})
    merged.update(extra)
    return tuple(sorted(merged.items()))


@dataclass(frozen=True)
class EstimatorSpec:
    """One value of the estimator axis: a registered method plus kwargs.

    ``method`` must name an entry of
    :data:`repro.core.protocols.ESTIMATOR_METHODS`; ``params`` are the
    construction kwargs the spec pins explicitly (the scenario's budget
    and the trial's RNG stream are injected by the engine where the
    method accepts them and the spec does not pin them).
    """

    method: str
    params: Params = ()

    @classmethod
    def create(cls, method: str, **params: Any) -> "EstimatorSpec":
        return cls(method=method, params=as_params(params))


@dataclass(frozen=True)
class SeedPolicy:
    """How a scenario's trials receive their randomness.

    ``spawn`` (the default) lets the engine derive per-trial streams from
    a root :class:`numpy.random.SeedSequence` built from ``entropy`` —
    the bit-identical-at-any-``n_jobs`` policy every new scenario should
    use.  ``fixed`` pins an explicit seed per trial (``seeds`` must match
    the ensemble size) — the policy for historical grids whose exact
    noise draws are part of the recorded outputs.
    """

    kind: str = "spawn"
    entropy: tuple[int, ...] = ()
    seeds: tuple[Any, ...] = ()

    def __post_init__(self) -> None:
        if self.kind not in ("spawn", "fixed"):
            raise ValidationError(
                f"seed policy kind must be 'spawn' or 'fixed', got {self.kind!r}"
            )

    def root_seed(self) -> np.random.SeedSequence | None:
        """The engine's root seed (``None`` for fully pinned policies)."""
        if self.kind == "fixed":
            return None
        return np.random.SeedSequence(list(self.entropy)) if self.entropy else None

    def trial_seed(self, index: int):
        """The explicit per-trial seed, or ``None`` to let the engine spawn."""
        if self.kind == "fixed":
            return self.seeds[index]
        return None


def spawn_seeds(*entropy: int) -> SeedPolicy:
    """A ``spawn`` policy rooted at ``SeedSequence([*entropy])``."""
    return SeedPolicy(kind="spawn", entropy=tuple(int(word) for word in entropy))


def fixed_seeds(*seeds: Any) -> SeedPolicy:
    """A ``fixed`` policy pinning one explicit seed per trial."""
    return SeedPolicy(kind="fixed", seeds=tuple(seeds))


@dataclass(frozen=True)
class ScenarioSpec:
    """One cell of the evidence grid.

    Attributes
    ----------
    name:
        Human-readable identifier (used in logs, reports, and trial
        labels).
    workload:
        Registered dataset name the estimator fits, or ``None`` for
        pure-sampling scenarios (e.g. the ``Fixed`` estimator) that never
        touch a dataset.
    estimator:
        The estimator axis value.
    epsilon, delta:
        The privacy budget axis; injected into budget-consuming methods
        (``None`` leaves the method's own default).
    ensemble_size:
        Trials in the scenario (independent noise/realization draws).
    seed_policy:
        How trials receive randomness (see :class:`SeedPolicy`).
    measure:
        Registered per-trial measurement
        (:data:`repro.scenarios.measures.MEASURES`) applied to the fitted
        model.
    measure_params:
        Extra keyword payload of the measurement.
    """

    name: str
    workload: str | None
    estimator: EstimatorSpec
    epsilon: float | None = None
    delta: float | None = None
    ensemble_size: int = 1
    seed_policy: SeedPolicy = field(default_factory=SeedPolicy)
    measure: str = "initiator"
    measure_params: Params = ()

    def __post_init__(self) -> None:
        check_integer(self.ensemble_size, "ensemble_size", minimum=1)
        if self.seed_policy.kind == "fixed" and (
            len(self.seed_policy.seeds) != self.ensemble_size
        ):
            raise ValidationError(
                f"scenario {self.name!r}: fixed seed policy pins "
                f"{len(self.seed_policy.seeds)} seeds for "
                f"{self.ensemble_size} trials"
            )
