"""The run record: one executed scenario batch as plain, frozen data.

:class:`RunRecord` is deliberately *data*, not behaviour: every field is
built from JSON-representable values (dicts, lists, strings, numbers,
booleans, ``None``), so a record written to disk and loaded back
compares equal to the original (the schema round-trip guarantee the
tracking tests pin).  :func:`build_run_record` converts live
:class:`~repro.scenarios.engine.ScenarioReport` objects into that form:

* the frozen scenario specs plus the resolved
  :class:`~repro.evaluation.experiments.ExperimentConfig`,
* the **eagerly materialized per-trial seeds** the engine actually used
  (carried on the report by :func:`repro.scenarios.engine.run_scenarios`,
  serialized by :func:`seed_token` — spawn policies record the exact
  child :class:`~numpy.random.SeedSequence` streams),
* per-trial metric tables (:func:`repro.tracking.metrics.trial_metrics`),
* wall-clock and executed/cached attribution from
  :attr:`~repro.runtime.spec.TrialRunReport.cached_indices`,
* an environment fingerprint: python/numpy/scipy versions, the resolved
  counting, chain and sampler kernels (always ``cext``, loaded to record
  them), the trial-engine knobs,
  and the CPU count.

Everything sits under a ``schema_version`` so loaders can refuse records
written by an incompatible layout instead of misreading them.
"""

from __future__ import annotations

import dataclasses
import os
from dataclasses import dataclass, field
from datetime import datetime, timezone
from typing import Any, Iterable, Mapping

import numpy as np

from repro.errors import ValidationError
from repro.tracking.metrics import trial_metrics

__all__ = [
    "SCHEMA_VERSION",
    "RunRecord",
    "build_run_record",
    "environment_fingerprint",
    "seed_token",
]

# Bump when the run.json layout changes; repro.tracking.store refuses to
# load records written under a different version.
# v2: failure observability — per-scenario failed/retried attribution,
# batch-level failed/retried/pool_restarts timing, and the fault/retry
# knobs in the environment fingerprint.
SCHEMA_VERSION = 2


@dataclass(frozen=True)
class RunRecord:
    """One tracked run, as plain JSON-representable data.

    Attributes
    ----------
    schema_version:
        Layout version of the record (see :data:`SCHEMA_VERSION`).
    created:
        UTC timestamp (``YYYY-MM-DDTHH:MM:SSZ``) the record was built.
    label:
        Short run label: the preset name, or ``"grid"`` for ad-hoc grids.
    preset:
        The registered preset the run executed, or ``None`` for grids.
    config:
        The resolved experiment configuration (every knob, post
        environment overrides) as a field → value mapping.
    environment:
        The host fingerprint (:func:`environment_fingerprint`).
    timing:
        Batch-level telemetry: wall-clock seconds, executed/cached trial
        totals, the resolved worker count, and the failure attribution
        (``failed``/``retried`` trial totals, ``pool_restarts``).
    scenarios:
        One entry per scenario: the frozen spec payload, the materialized
        per-trial seed tokens, the per-trial ``metrics`` rows, and the
        scenario's executed/cached and failed/retried attribution.
    """

    schema_version: int
    created: str
    label: str
    preset: str | None
    config: dict[str, Any]
    environment: dict[str, Any]
    timing: dict[str, Any]
    scenarios: list = field(repr=False)


def seed_token(seed: Any) -> dict[str, Any]:
    """A JSON-representable token of an engine seed.

    Round-trips the two per-trial seed forms the engine hands out —
    plain integers and spawned :class:`numpy.random.SeedSequence`
    children (entropy + spawn key) — so a record states the *exact*
    stream every trial consumed.
    """
    if isinstance(seed, np.random.SeedSequence):
        entropy = seed.entropy
        if isinstance(entropy, (list, tuple)):
            entropy = [int(word) for word in entropy]
        elif entropy is not None:
            entropy = int(entropy)
        return {
            "kind": "seedsequence",
            "entropy": entropy,
            "spawn_key": [int(key) for key in seed.spawn_key],
        }
    if seed is None:
        return {"kind": "none"}
    return {"kind": "int", "value": int(seed)}


def environment_fingerprint() -> dict[str, Any]:
    """The host/runtime fingerprint stamped into every record.

    Captures what the comparison layer needs to explain a drift that is
    *not* in the config: interpreter and library versions, the resolved
    backend of each of the three native kernel families, the trial-engine
    knobs, and the machine's core count.
    """
    import platform
    from importlib.metadata import version

    from repro.knobs import knob
    from repro.native.chain import resolve_multichain_backend
    from repro.native.sampling import resolve_sampler_backend
    from repro.runtime import resolve_n_jobs
    from repro.stats.kernels import resolve_kernel_backend

    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": version("scipy"),
        "platform": platform.platform(),
        "cpu_count": os.cpu_count() or 1,
        "counting_backend": resolve_kernel_backend(),
        "chain_backend": resolve_multichain_backend(),
        "sampler_backend": resolve_sampler_backend(),
        "n_jobs": resolve_n_jobs(),
        "trial_retries": knob("REPRO_TRIAL_RETRIES"),
        "trial_timeout": knob("REPRO_TRIAL_TIMEOUT"),
        "fault_inject": knob("REPRO_FAULT_INJECT") or None,
    }


def build_run_record(
    reports: Iterable,
    *,
    config=None,
    label: str = "scenarios",
    preset: str | None = None,
    created: str | None = None,
) -> RunRecord:
    """Build the record of one executed scenario batch.

    ``reports`` are the :class:`~repro.scenarios.engine.ScenarioReport`
    objects a :func:`repro.scenarios.run_scenarios` call returned — they
    carry the materialized per-trial seeds the engine actually used, so
    the record never has to re-derive (and possibly mis-derive)
    randomness after the fact.
    """
    if config is None:
        from repro.evaluation.experiments import default_config

        config = default_config()
    reports = list(reports)
    if created is None:
        created = datetime.now(timezone.utc).strftime("%Y-%m-%dT%H:%M:%SZ")
    scenarios = [_scenario_entry(report) for report in reports]
    executed = sum(entry["executed"] for entry in scenarios)
    cached = sum(entry["cached"] for entry in scenarios)
    failed = sum(entry["failed"] for entry in scenarios)
    retried = sum(entry["retried"] for entry in scenarios)
    elapsed = max((report.report.elapsed for report in reports), default=0.0)
    n_jobs = max((report.report.n_jobs for report in reports), default=1)
    # Batched scenarios share one engine call, so every sub-report carries
    # the same batch-wide restart count — max, not sum.
    pool_restarts = max(
        (report.report.pool_restarts for report in reports), default=0
    )
    return RunRecord(
        schema_version=SCHEMA_VERSION,
        created=created,
        label=str(label),
        preset=preset,
        config=_jsonify(dataclasses.asdict(config)),
        environment=_jsonify(environment_fingerprint()),
        timing={
            "elapsed_seconds": float(elapsed),
            "executed": int(executed),
            "cached": int(cached),
            "n_jobs": int(n_jobs),
            "failed": int(failed),
            "retried": int(retried),
            "pool_restarts": int(pool_restarts),
        },
        scenarios=scenarios,
    )


def _scenario_entry(report) -> dict[str, Any]:
    """One scenario's record entry: spec + seeds + metrics + attribution."""
    scenario = report.scenario
    run = report.report
    seeds = list(report.seeds)
    if len(seeds) != scenario.ensemble_size:
        raise ValidationError(
            f"scenario {scenario.name!r}: report carries {len(seeds)} "
            f"materialized seeds for {scenario.ensemble_size} trials; "
            f"was it produced by repro.scenarios.run_scenarios?"
        )
    policy = scenario.seed_policy
    return {
        "name": scenario.name,
        "workload": scenario.workload,
        "estimator": {
            "method": scenario.estimator.method,
            "params": _jsonify(scenario.estimator.params),
        },
        "epsilon": scenario.epsilon,
        "delta": scenario.delta,
        "ensemble_size": int(scenario.ensemble_size),
        "seed_policy": {
            "kind": policy.kind,
            "entropy": [int(word) for word in policy.entropy],
            "seeds": [seed_token(seed) for seed in policy.seeds],
        },
        "measure": scenario.measure,
        "measure_params": _jsonify(scenario.measure_params),
        "seeds": [seed_token(seed) for seed in seeds],
        "metrics": [_jsonify(trial_metrics(result)) for result in report.results],
        "executed": int(run.executed),
        "cached": int(run.cached),
        "cached_indices": [int(index) for index in run.cached_indices],
        "failed": int(run.failed),
        "retried": int(run.retried),
        "failed_indices": [int(index) for index in run.failed_indices],
        "retried_indices": [int(index) for index in run.retried_indices],
    }


def _jsonify(value: Any) -> Any:
    """Canonicalize to the JSON value vocabulary (tuples → lists, numpy
    scalars → python numbers); unsupported types fail loudly."""
    if value is None or isinstance(value, (str, bool)):
        return value
    if isinstance(value, (int, np.integer)):
        return int(value)
    if isinstance(value, (float, np.floating)):
        return float(value)
    if isinstance(value, (list, tuple)):
        return [_jsonify(item) for item in value]
    if isinstance(value, Mapping):
        return {str(key): _jsonify(item) for key, item in value.items()}
    if isinstance(value, np.random.SeedSequence):
        return seed_token(value)
    if isinstance(value, np.ndarray):
        return [_jsonify(item) for item in value.tolist()]
    raise ValidationError(
        f"run records must be JSON-representable; cannot serialize "
        f"{type(value).__qualname__}"
    )
