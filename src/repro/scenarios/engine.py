"""Compile scenarios into trials and execute them on the runtime engine.

The one generic trial function (:func:`_scenario_trial`) realizes a
scenario cell end to end: load the workload (if any), build the
estimator with the scenario's budget and the trial's RNG stream injected
(:func:`repro.core.protocols.build_estimator`), fit, and apply the
registered measurement.  Because it is module-level and parameterised by
plain picklable values, every scenario inherits the runtime guarantees
for free: trials fan across the persistent worker pool, are memoized by
the trial cache, and are **bit-identical for any worker count**
(per-trial streams depend only on the seed policy and the trial index).

Compilation materializes every trial's seed eagerly — spawn policies are
expanded into the exact child streams the engine would derive — so
scenario trials can be *batched*: :func:`run_scenarios` concatenates all
compiled trials into one :func:`repro.runtime.run_trials` call (single-fit
scenarios like Table 1's cells still fan across workers together), and
results are bit-identical whether scenarios run batched, one by one, or
at any ``n_jobs``.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Iterable, Sequence

import numpy as np

from repro.core.protocols import build_estimator, estimator_method
from repro.graphs.datasets import dataset_info, load_dataset
from repro.runtime import TrialRunReport, TrialSpec, code_fingerprint, run_trials
from repro.scenarios.measures import resolve_measure
from repro.scenarios.spec import ScenarioSpec
from repro.utils.logging import get_logger

__all__ = [
    "ScenarioReport",
    "compile_scenario",
    "run_scenario",
    "run_scenarios",
]

_logger = get_logger(__name__)


@dataclass(frozen=True)
class ScenarioReport:
    """One executed scenario: the spec, its results, and run telemetry.

    ``seeds`` carries the compiled per-trial seeds the engine actually
    executed (ints or spawned :class:`numpy.random.SeedSequence`
    children, in trial order) — the materialized randomness the tracked
    run record (:mod:`repro.tracking`) persists verbatim.
    """

    scenario: ScenarioSpec
    results: list = field(repr=False)
    report: TrialRunReport = field(repr=False)
    seeds: tuple = field(default=(), repr=False)


def compile_scenario(scenario: ScenarioSpec) -> list[TrialSpec]:
    """The scenario's trials, ready for :func:`repro.runtime.run_trials`.

    Validates the workload, estimator method, and measure eagerly so a
    misdeclared scenario fails at compile time, not inside a worker
    process after other trials have already burned their wall clock.
    Every trial carries an explicit seed: fixed policies pin theirs,
    spawn policies are expanded into the same child streams
    ``run_trials(seed=root)`` would derive — which is what makes
    compiled scenarios freely batchable.
    """
    if scenario.workload is not None:
        dataset_info(scenario.workload)  # raises DatasetError for unknown names
    method = estimator_method(scenario.estimator.method)
    measure_fn = resolve_measure(scenario.measure)
    policy = scenario.seed_policy
    if policy.kind == "fixed":
        seeds: Sequence[Any] = [
            policy.trial_seed(index) for index in range(scenario.ensemble_size)
        ]
    else:
        root = policy.root_seed() or np.random.SeedSequence()
        seeds = root.spawn(scenario.ensemble_size)
    params = {
        "workload": scenario.workload,
        "method": scenario.estimator.method,
        "estimator_params": scenario.estimator.params,
        "epsilon": scenario.epsilon,
        "delta": scenario.delta,
        "measure": scenario.measure,
        "measure_params": scenario.measure_params,
        # The trial cache fingerprints only the generic trial function
        # below; the code the trial dispatches to by *name* must salt
        # the key too, or editing a measure (or estimator front door)
        # would silently serve stale cached results.  The salt covers
        # the measure function and the method's front-door class — like
        # every trial function, code *they* call still requires clearing
        # the cache when edited.
        "code_fingerprints": (
            code_fingerprint(measure_fn),
            code_fingerprint(method.resolve_code_target()),
        ),
    }
    return [
        TrialSpec(fn=_scenario_trial, params=params, index=index, seed=seeds[index])
        for index in range(scenario.ensemble_size)
    ]


def run_scenario(
    scenario: ScenarioSpec,
    *,
    n_jobs: int | None = None,
    cache=None,
    on_error: str | None = None,
) -> ScenarioReport:
    """Execute one scenario through the runtime engine.

    ``on_error`` is the engine's failure policy: the default ``raise``
    aborts on the first permanently failed trial, ``collect`` records
    failures as :class:`~repro.runtime.TrialFailure` results and keeps
    the rest of the ensemble.
    """
    specs = compile_scenario(scenario)
    report = run_trials(
        specs,
        n_jobs=n_jobs,
        cache=cache,
        label=f"scenario:{scenario.name}",
        on_error=on_error,
    )
    return ScenarioReport(
        scenario=scenario,
        results=report.results,
        report=report,
        seeds=tuple(spec.seed for spec in specs),
    )


def run_scenarios(
    scenarios: Iterable[ScenarioSpec],
    *,
    n_jobs: int | None = None,
    cache=None,
    label: str = "scenarios",
    on_error: str | None = None,
) -> list[ScenarioReport]:
    """Execute a scenario list as **one** batched engine call.

    All compiled trials enter a single :func:`repro.runtime.run_trials`
    call, so trials from different scenarios fan across the worker pool
    together (Table 1's twelve single-fit cells parallelise exactly like
    the pre-scenario harness did).  Per-scenario reports attribute the
    executed/cached split — and, under ``on_error="collect"``, the
    failed/retried trials — back to each scenario's own positions;
    ``elapsed`` is the whole batch's wall clock and ``pool_restarts``
    (a batch-wide event) is carried on every sub-report.
    """
    scenarios = list(scenarios)
    specs: list[TrialSpec] = []
    extents: list[tuple[int, int]] = []
    for scenario in scenarios:
        compiled = compile_scenario(scenario)
        extents.append((len(specs), len(compiled)))
        specs.extend(compiled)
    batch = run_trials(
        specs,
        n_jobs=n_jobs,
        cache=cache,
        label=f"{label}[{len(scenarios)}]",
        on_error=on_error,
    )
    cached_positions = set(batch.cached_indices)
    failed_positions = set(batch.failed_indices)
    retried_positions = set(batch.retried_indices)
    reports: list[ScenarioReport] = []
    for scenario, (offset, size) in zip(scenarios, extents):
        results = batch.results[offset : offset + size]
        span = range(offset, offset + size)
        cached = tuple(p - offset for p in span if p in cached_positions)
        failed = tuple(p - offset for p in span if p in failed_positions)
        retried = tuple(p - offset for p in span if p in retried_positions)
        reports.append(
            ScenarioReport(
                scenario=scenario,
                results=results,
                report=TrialRunReport(
                    results=results,
                    executed=size - len(cached),
                    cached=len(cached),
                    n_jobs=batch.n_jobs,
                    elapsed=batch.elapsed,
                    cached_indices=cached,
                    failed=len(failed),
                    retried=len(retried),
                    pool_restarts=batch.pool_restarts,
                    failed_indices=failed,
                    retried_indices=retried,
                ),
                seeds=tuple(spec.seed for spec in specs[offset : offset + size]),
            )
        )
    return reports


def _scenario_trial(
    rng: np.random.Generator,
    *,
    workload: str | None,
    method: str,
    estimator_params: Sequence[tuple[str, Any]],
    epsilon: float | None,
    delta: float | None,
    measure: str,
    measure_params: Sequence[tuple[str, Any]],
    code_fingerprints: tuple[str, ...] = (),
):
    """One scenario trial: load → build → fit → measure.

    The trial's RNG stream is consumed in fit order first (the estimator
    receives it as ``seed`` where the method accepts one), then by the
    measurement — the same order as the hand-rolled trial functions the
    scenario layer replaced, which is what makes the refactor
    bit-identical.  ``code_fingerprints`` is unused at run time: it
    carries the dispatched-to code's fingerprints into the trial cache
    key (see :func:`compile_scenario`).
    """
    graph = load_dataset(workload) if workload is not None else None
    estimator = build_estimator(
        method, estimator_params, epsilon=epsilon, delta=delta, seed=rng
    )
    model = estimator.fit(graph)
    return resolve_measure(measure)(rng, model, graph, **dict(measure_params))
