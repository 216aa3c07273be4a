"""The pre-fitted model registry and the serve layer's work executor.

**Fit once, sample many** is the serving contract — and for private
estimators it is also the privacy win: one (ε, δ) charge buys a fitted
model whose samples are free post-processing.  :class:`ModelRegistry`
memoizes fitted models by a stable content hash of (dataset, method,
budget, seed, params) in one
:class:`~repro.serve.admission.SingleFlightMemo`, whose request flow is::

    memory hit -> model
      | keyed lock -> memory hit -> model          (a concurrent winner's fit)
      | disk hit (TrialCache) -> model, uncharged  (a restarted server)
      | budget charge -> fit -> disk -> memory

* in memory for the process lifetime (the hot path; an SKG model is
  kept as the fields responses read, see :class:`_SkgModel`);
* on disk through the content-addressed
  :class:`~repro.runtime.cache.TrialCache`, so a restarted server reuses
  earlier fits **without charging the budget again** (the matching
  spend is in the restored ledger);
* single-flight per key, so the fit — and its budget charge — happens
  exactly once while concurrent identical requests wait and read the
  winner's result.

The budget charge is the first step of the memo's compute, *before* the
fit executes (before any noise is drawn), through the accountant's
atomic check-and-spend; an over-budget request dies with
:class:`~repro.errors.PrivacyBudgetError` having perturbed nothing, and
the memo stores nothing for it.

:func:`execute_work` is how fits run: in-process
when the server is serial, else on the trial engine's persistent worker
pool with the same self-healing contract as ``run_trials`` — a
:class:`~concurrent.futures.process.BrokenProcessPool` rebuilds the pool
and resubmits within the ``REPRO_POOL_RESTARTS`` budget, reporting each
breakage to the circuit breaker.  Injected ``pool_breakage`` faults
(:mod:`repro.runtime.faults`) arm per-submission worker crashes exactly
like the engine's ``worker_crash`` clauses.
"""

from __future__ import annotations

import functools
import math
import os
from concurrent.futures.process import BrokenProcessPool
from dataclasses import dataclass
from typing import Any, Callable

import numpy as np

from repro.core.protocols import FittedModel, build_estimator, estimator_method
from repro.core.synthesis import sample_statistics_batch
from repro.graphs.datasets import load_dataset
from repro.graphs.graph import Graph
from repro.kronecker.initiator import Initiator
from repro.native.registry import shard_bounds
from repro.runtime.cache import TrialCache
from repro.runtime.engine import persistent_executor, shutdown_pool
from repro.runtime.faults import CRASH_EXIT_CODE
from repro.runtime.hashing import stable_hash
from repro.serve.admission import SingleFlightMemo
from repro.utils.logging import get_logger
from repro.utils.rng import SeedLike

__all__ = ["ModelSpec", "ModelRegistry", "execute_work"]

_logger = get_logger(__name__)

# Version tag folded into every registry cache key: bump to invalidate
# persisted fitted models when their layout changes incompatibly.
_MODEL_KEY_VERSION = 1


def _pool_call(fn: Callable[..., Any], kwargs: dict, crash: bool) -> Any:
    """The payload a pool worker runs: optional injected crash, then fn."""
    if crash:
        # Simulated worker death (OOM killer / segfault), same contract
        # as the trial engine's worker_crash clauses.
        os._exit(CRASH_EXIT_CODE)
    return fn(**kwargs)


def execute_work(
    fn: Callable[..., Any],
    kwargs: dict,
    *,
    n_jobs: int,
    pool_restarts: int,
    crash_submissions: int = 0,
    on_breakage: Callable[[], None] | None = None,
    on_success: Callable[[], None] | None = None,
) -> Any:
    """Run one work item, self-healing pool breakage.

    Serial servers (``n_jobs <= 1``) run the work in the handler thread
    (injected crashes are inert, mirroring the trial engine's serial
    path).  Parallel servers submit to the persistent pool; each
    breakage shuts the broken pool down (the next submission recreates
    it), reports to ``on_breakage`` (the circuit breaker), and retries
    until the restart budget is exhausted, at which point the
    :class:`BrokenProcessPool` surfaces to the handler.
    """
    if n_jobs <= 1:
        return fn(**kwargs)
    submissions = 0
    restarts = 0
    while True:
        submissions += 1
        crash = submissions <= crash_submissions
        executor = persistent_executor(n_jobs)
        try:
            future = executor.submit(_pool_call, fn, kwargs, crash)
        except RuntimeError:
            # The pool was shut down between acquire and submit (another
            # handler healing a breakage); take a fresh one.  Bounded by
            # the same restart budget so racing threads cannot spin.
            restarts += 1
            if restarts > pool_restarts:
                raise
            continue
        try:
            result = future.result()
        except BrokenProcessPool:
            shutdown_pool()
            restarts += 1
            if on_breakage is not None:
                on_breakage()
            if restarts > pool_restarts:
                _logger.error(
                    "serve work broke the pool %d time(s), exceeding the "
                    "restart budget of %d", restarts, pool_restarts,
                )
                raise
            _logger.warning(
                "serve work broke the pool (worker died); rebuilt and "
                "resubmitting (restart %d of at most %d)", restarts, pool_restarts,
            )
            continue
        if on_success is not None:
            on_success()
        return result


def _fit_work(
    *,
    dataset: str,
    method: str,
    epsilon: float | None,
    delta: float | None,
    seed: int,
    params: tuple,
) -> FittedModel:
    """Fit one model (module-level: ships to pool workers by name)."""
    graph = load_dataset(dataset)
    estimator = build_estimator(
        method, dict(params), epsilon=epsilon, delta=delta, seed=seed
    )
    return _served(estimator.fit(graph))


@dataclass(frozen=True)
class _SkgModel:
    """The fields of a fitted SKG model that serving reads.

    The registry keeps every fitted model for the process lifetime.  A
    private fit's full result also carries its degree release, two float
    arrays of the input's node count (~100 KB at as20) that no response
    reads; keeping only these fields holds the registry's memory flat as
    uncached fits accumulate.  Summaries and samples read nothing else,
    so every response body is unchanged.
    """

    initiator: Initiator
    k: int
    epsilon: float
    method: str | None

    def sample_graph(self, seed: SeedLike = None) -> Graph:
        return self.initiator.sample(self.k, seed=seed)


def _served(model: FittedModel) -> FittedModel:
    """What the registry stores for ``model``: an SKG model's served fields,
    any other model (the DPDegree degree sequence) whole."""
    initiator = getattr(model, "initiator", None)
    if initiator is None:
        return model
    return _SkgModel(
        initiator, model.k, model.epsilon, getattr(model, "method", None)
    )


def _sample_work(
    *,
    model: FittedModel,
    count: int,
    entropy: int,
    mapper: Callable = map,
    shards: int = 1,
) -> list[dict]:
    """Sample ``count`` synthetic graphs and summarize each.

    Seeds are spawned from ``entropy`` by index, so for a fixed
    ``entropy`` a batch of N samples is a prefix of a batch of M > N.
    (The service folds ``count`` into the entropy it passes, so two
    requests differing only in ``count`` draw unrelated batches.)  The
    whole body is a pure function of (model, count, entropy), which is
    what makes the cached response bit-identical to a cold one.

    The seeds are cut into ``shards`` contiguous runs
    (:func:`~repro.native.registry.shard_bounds`), and ``mapper``
    runs one :func:`~repro.core.synthesis.sample_statistics_batch` per
    run: the builtin ``map``, or the service's
    ``ThreadPoolExecutor.map``, which gives each sampler thread one run
    — for an SKG model, one sampler-kernel call that releases the
    interpreter lock — and yields the runs in order, so the rows are the
    same for any ``shards`` and ``mapper``.
    """
    children = np.random.SeedSequence(entropy).spawn(count)
    runs = [children[begin:end] for begin, end in shard_bounds(count, shards)]
    work = functools.partial(_sample_rows, model)
    return [row for rows in mapper(work, runs) for row in rows]


def _sample_rows(model: FittedModel, seeds: list[np.random.SeedSequence]) -> list[dict]:
    """The summary rows of one run of :func:`_sample_work`'s seeds."""
    return [
        {
            "n_nodes": int(n_nodes),
            "n_edges": int(n_edges),
            "edges": float(stats.edges),
            "hairpins": float(stats.hairpins),
            "tripins": float(stats.tripins),
            "triangles": float(stats.triangles),
        }
        for n_nodes, n_edges, stats in sample_statistics_batch(model, seeds)
    ]


def _probe_work() -> int:
    """A trivial work item proving the executor path is healthy."""
    return os.getpid()


@dataclass(frozen=True)
class ModelSpec:
    """The identity of one fitted model: the registry's cache key.

    ``epsilon`` / ``delta`` are ``None`` for methods that do not consume
    them (so ``kronmom`` at "ε=0.2" and "ε=0.3" share one model), and
    ``params`` is a sorted tuple of extra estimator kwargs.
    """

    dataset: str
    method: str
    epsilon: float | None
    delta: float | None
    seed: int
    params: tuple = ()

    @property
    def charges_budget(self) -> bool:
        """Does fitting this model consume privacy budget?"""
        return estimator_method(self.method).accepts_epsilon

    @property
    def charge(self) -> tuple[float, float]:
        """The (ε, δ) one fit of this spec spends."""
        if not self.charges_budget:
            return (0.0, 0.0)
        descriptor = estimator_method(self.method)
        epsilon = float(self.epsilon or 0.0)
        delta = float(self.delta or 0.0) if descriptor.accepts_delta else 0.0
        return (epsilon, delta)

    def token(self) -> str:
        """Stable content hash: the memory/disk registry key."""
        return stable_hash(
            (
                "serve-model",
                _MODEL_KEY_VERSION,
                self.dataset,
                self.method,
                self.epsilon,
                self.delta,
                self.seed,
                self.params,
            )
        )

    def label(self) -> str:
        """The ledger label a fit of this spec charges under."""
        epsilon, delta = self.charge
        return (
            f"serve {self.method} fit of {self.dataset} "
            f"(epsilon={epsilon:g}, delta={delta:g}, seed={self.seed})"
        )


class ModelRegistry:
    """Fit-once-per-key model store backing ``/fit``/``/sample``/``/release``."""

    def __init__(
        self,
        *,
        accountants,
        executor: Callable[..., Any],
        cache: TrialCache | None = None,
    ) -> None:
        self._accountants = accountants
        self._executor = executor
        self._memo = SingleFlightMemo(cache)

    def get_or_fit(self, spec: ModelSpec, *, crash_submissions: int = 0) -> FittedModel:
        """The model for ``spec``, fitting (and charging) at most once.

        Single-flight per key: under concurrent identical requests
        exactly one caller fits (charging the budget exactly once for
        private methods); the rest block on the key and then hit memory.
        A model restored from disk was charged by an earlier process.
        """

        def fit() -> FittedModel:
            if spec.charges_budget:
                # Atomic check-and-spend BEFORE the fit runs: an
                # over-budget request is refused here, before any noise
                # is drawn.
                self._accountants.charge(spec.dataset, spec.label(), *spec.charge)
            return self._executor(
                _fit_work,
                {
                    "dataset": spec.dataset,
                    "method": spec.method,
                    "epsilon": spec.epsilon,
                    "delta": spec.delta,
                    "seed": spec.seed,
                    "params": spec.params,
                },
                crash_submissions=crash_submissions,
            )

        return self._memo.get(spec.token(), fit)[0]

    def summarize_model(self, model: FittedModel) -> dict:
        """The JSON-safe released view of a fitted model."""
        epsilon = model.epsilon
        summary: dict[str, Any] = {
            "epsilon": None if math.isinf(epsilon) else float(epsilon),
        }
        initiator = getattr(model, "initiator", None)
        if initiator is not None:
            summary["initiator"] = {
                "a": float(initiator.a),
                "b": float(initiator.b),
                "c": float(initiator.c),
            }
            summary["k"] = int(model.k)
        method = getattr(model, "method", None)
        if method is not None:
            summary["method"] = str(method)
        return summary

    def snapshot(self) -> dict:
        """Counters for ``/stats``."""
        counts = self._memo.counts()
        return {
            "loaded": len(self._memo),
            "fitted": counts["computed"],
            "restored": counts["disk"],
        }
