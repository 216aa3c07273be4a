"""repro.runtime — the parallel, cached, fault-tolerant trial engine.

Every repeated-trial ensemble in the reproduction (the "Expected" series
behind Figures 1–4, Table 1's twelve fits, the ε-ablation sweeps, the
baseline comparison) is a list of independent trials.  This subsystem runs
such lists through one engine:

* :class:`TrialSpec` — one trial: a module-level callable plus its keyword
  configuration, ensemble index, and optional explicit seed;
* :func:`run_trials` — fans specs across a process pool (serial fallback
  at ``n_jobs=1``), derives bit-identical per-trial RNG streams from the
  root seed via ``SeedSequence.spawn``, and memoizes completed trials in a
  :class:`TrialCache`;
* :class:`TrialRunReport` — the ordered results plus executed/cached
  counts, failed/retried/pool-restart attribution, and timing;
* :class:`TrialFailure` — the structured stand-in a permanently failed
  trial leaves in the results under the ``on_error="collect"`` policy.

Parallel runs reuse one **persistent worker pool** across calls, so
consecutive ensembles pay the worker start-up cost once;
:func:`shutdown_pool` releases it.  The persistent pool is the only
executor lifecycle.

The engine is fault-tolerant without giving up bit-identity: bounded
retries with deterministic backoff (``REPRO_TRIAL_RETRIES``,
``REPRO_TRIAL_BACKOFF``), an optional per-attempt timeout
(``REPRO_TRIAL_TIMEOUT``), and self-healing pool rebuilds
(``REPRO_POOL_RESTARTS``) all re-derive the same ``(root seed, index)``
streams, so a run with transient faults matches a clean run bit for bit.
Every recovery path is exercisable deterministically through the
fault-injection harness (:mod:`repro.runtime.faults`,
``REPRO_FAULT_INJECT``).

The ``REPRO_N_JOBS`` and ``REPRO_CACHE_DIR`` environment knobs (declared
with every other knob in :mod:`repro.knobs`) wire the engine into every
bench and the ``repro run-ensemble`` CLI subcommand.
"""

from repro.runtime.cache import TrialCache
from repro.runtime.engine import (
    ON_ERROR_POLICIES,
    TrialTimeoutError,
    call_with_timeout,
    persistent_executor,
    pool_worker_pids,
    resolve_n_jobs,
    resolve_on_error,
    run_trials,
    shutdown_pool,
)
from repro.runtime.faults import (
    CRASH_EXIT_CODE,
    FAULT_KINDS,
    SERVE_FAULT_KINDS,
    FaultClause,
    FaultPlan,
    InjectedFault,
    RequestFaults,
    ServeFaultPlan,
    TrialFaults,
    parse_fault_plan,
    parse_serve_fault_plan,
    resolve_fault_plan,
    resolve_serve_fault_plan,
)
from repro.runtime.hashing import code_fingerprint, stable_hash, trial_key
from repro.runtime.spec import TrialFailure, TrialRunReport, TrialSeed, TrialSpec

__all__ = [
    "TrialSpec",
    "TrialRunReport",
    "TrialSeed",
    "TrialFailure",
    "TrialCache",
    "run_trials",
    "resolve_n_jobs",
    "resolve_on_error",
    "persistent_executor",
    "shutdown_pool",
    "pool_worker_pids",
    "call_with_timeout",
    "TrialTimeoutError",
    "ON_ERROR_POLICIES",
    "FAULT_KINDS",
    "SERVE_FAULT_KINDS",
    "CRASH_EXIT_CODE",
    "InjectedFault",
    "TrialFaults",
    "RequestFaults",
    "FaultClause",
    "FaultPlan",
    "ServeFaultPlan",
    "parse_fault_plan",
    "parse_serve_fault_plan",
    "resolve_fault_plan",
    "resolve_serve_fault_plan",
    "stable_hash",
    "code_fingerprint",
    "trial_key",
]
