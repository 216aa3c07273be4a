"""repro.tracking — tracked run directories for scenario executions.

Scenario runs used to emit transient reports: once a CI job or a local
run finished, its configuration, seeds, metrics, and timings were gone,
and cross-PR performance claims lived only as prose.  This subsystem
makes every run a queryable, diffable artifact:

* :class:`RunRecord` (:mod:`repro.tracking.record`) — one executed
  scenario batch as plain schema-versioned data: the frozen scenario
  specs with resolved config, eagerly materialized per-trial seeds,
  per-trial metric tables, executed/cached attribution, and an
  environment fingerprint (python/numpy/scipy versions, resolved kernel
  backends, pool mode, CPU count);
* the atomic on-disk layout (:mod:`repro.tracking.store`) —
  ``runs/<timestamp>__<preset>__<shorthash>/run.json`` plus per-scenario
  metric tables under ``metrics/``, written tempdir-then-rename so a
  failed run never leaves a partial ``run.json``, with a loader/query
  API (:func:`load_run`, :func:`list_runs`, :func:`find_run`);
* run diffing (:mod:`repro.tracking.compare`) — config deltas,
  per-scenario per-metric drift with tolerance flags, and cache-hit
  attribution, behind the ``repro compare`` subcommand.

The CLI front doors are ``repro run-scenario --track [--runs-dir]``,
``repro compare RUN_A RUN_B``, and ``repro runs list/show``; the runs
directory defaults to ``runs/`` and honours ``REPRO_RUNS_DIR``.
"""

from repro.tracking.compare import (
    RunComparison,
    compare_runs,
    render_comparison,
)
from repro.tracking.metrics import trial_metrics
from repro.tracking.record import (
    SCHEMA_VERSION,
    RunRecord,
    build_run_record,
    environment_fingerprint,
    seed_token,
)
from repro.tracking.store import (
    find_run,
    list_runs,
    load_run,
    resolve_runs_dir,
    write_run,
)

__all__ = [
    "SCHEMA_VERSION",
    "RunRecord",
    "RunComparison",
    "build_run_record",
    "compare_runs",
    "environment_fingerprint",
    "find_run",
    "list_runs",
    "load_run",
    "render_comparison",
    "resolve_runs_dir",
    "seed_token",
    "trial_metrics",
    "write_run",
]
