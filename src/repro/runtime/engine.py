"""The parallel, fault-tolerant trial-execution engine.

:func:`run_trials` fans a list of :class:`~repro.runtime.spec.TrialSpec`
across a :class:`concurrent.futures.ProcessPoolExecutor` (or runs them
in-process when ``n_jobs=1``), with four guarantees:

* **Determinism** — per-trial RNG streams are derived from the root seed
  with :meth:`numpy.random.SeedSequence.spawn`, indexed by trial position.
  A trial's stream depends only on ``(root seed, index)`` — never on which
  worker ran it, in what order, or on which attempt — so ensemble results
  are bit-identical for any ``n_jobs`` *and under transient faults*: a
  retried or resubmitted trial re-derives exactly the stream a clean run
  would have used.
* **Memoization** — with a cache directory configured, completed trials
  are persisted keyed by a stable hash of (function qualname + source
  fingerprint, params, trial index, effective seed); a rerun executes only
  the missing trials, which makes interrupted ensembles resumable.
* **Fault tolerance** — each trial gets bounded retries with
  deterministic exponential backoff (``REPRO_TRIAL_RETRIES``,
  ``REPRO_TRIAL_BACKOFF``) and an optional per-attempt timeout
  (``REPRO_TRIAL_TIMEOUT``), applied identically on the serial and pool
  paths.  The per-trial **failure policy** decides what a permanently
  failed trial does: ``on_error="raise"`` (the default) aborts the
  ensemble with the original exception; ``on_error="collect"`` records a
  structured :class:`~repro.runtime.spec.TrialFailure` at the trial's
  position and keeps going.  A broken worker pool
  (:class:`~concurrent.futures.process.BrokenProcessPool`, e.g. an
  OOM-killed worker) **self-heals**: the executor is rebuilt and only the
  lost in-flight trials are resubmitted — completed results and cache
  hits are kept — within a bounded restart budget
  (``REPRO_POOL_RESTARTS``) before the breakage surfaces as a hard error.
* **Observability** — the returned
  :class:`~repro.runtime.spec.TrialRunReport` carries the executed/cached
  split, the failed/retried/pool-restart attribution, and wall-clock
  timing, and progress is logged through :mod:`repro.utils.logging`.

Worker count resolution: an explicit ``n_jobs`` argument wins, then the
``REPRO_N_JOBS`` environment variable, then the serial default of 1.
``n_jobs <= 0`` means "all available cores".  Trial callables must be
module-level functions (workers import them by name).

Parallel runs execute on a **persistent worker pool** by default: one
process-wide :class:`~concurrent.futures.ProcessPoolExecutor`, created on
first parallel use and reused across :func:`run_trials` calls, so
consecutive ensembles (Table 1's fits, figure ensembles, bench
trajectories) pay the worker fork/spawn cost once instead of per call.
The persistent pool is the only executor lifecycle: it is resized only
when a caller asks for a *different* worker count, shut down at
interpreter exit (and discarded on breakage), and :func:`shutdown_pool`
releases it eagerly.  The serial default (``n_jobs=1``) never touches
the pool, and results are bit-identical either way — per-trial seeds
depend only on (root seed, index), never on which worker ran what.
Workers inherit the parent's state (environment, loaded modules) at pool
creation time, not per call.

Every recovery path above is exercisable deterministically through the
fault-injection harness (:mod:`repro.runtime.faults`,
``REPRO_FAULT_INJECT``): injected trial errors, worker crashes, and slow
trials are threaded into the task payloads — never the environment — so
chaos runs behave identically at any worker count.
"""

from __future__ import annotations

import atexit
import concurrent.futures
import os
from concurrent.futures.process import BrokenProcessPool
import threading
import time
import traceback
from dataclasses import dataclass
from typing import Any, Callable, Iterable, Sequence

import numpy as np

from repro.errors import ValidationError
from repro.knobs import default, knob, usable_cores
from repro.runtime.cache import TrialCache
from repro.runtime.faults import (
    CRASH_EXIT_CODE,
    FaultPlan,
    InjectedFault,
    NO_FAULTS,
    TrialFaults,
    resolve_fault_plan,
)
from repro.runtime.hashing import trial_key
from repro.runtime.spec import TrialFailure, TrialRunReport, TrialSpec
from repro.utils.logging import get_logger
from repro.utils.validation import check_integer

__all__ = [
    "run_trials",
    "resolve_n_jobs",
    "resolve_on_error",
    "persistent_executor",
    "shutdown_pool",
    "pool_worker_pids",
    "call_with_timeout",
    "TrialTimeoutError",
    "ON_ERROR_POLICIES",
]

_logger = get_logger(__name__)

ON_ERROR_POLICIES = ("raise", "collect")

# Deterministic retry pacing: attempt N sleeps BACKOFF * 2**(N-1) seconds
# (no jitter — two chaos runs with the same faults back off identically),
# capped so a deep retry budget cannot stall a worker for minutes.
MAX_RETRY_BACKOFF = 5.0

# The process-wide persistent executor: the pool itself, the worker count
# it was created for, and whether the atexit hook is installed.  All three
# are guarded by _pool_lock: concurrent serve handlers (threads) acquire
# and shut the pool down concurrently, and the create/resize/discard
# decisions must see a consistent snapshot.  The lock is reentrant so a
# signal handler firing mid-acquisition can still run shutdown_pool.
_pool: concurrent.futures.ProcessPoolExecutor | None = None
_pool_workers = 0
_atexit_registered = False
_pool_lock = threading.RLock()


class TrialTimeoutError(RuntimeError):
    """An attempt exceeded the per-trial timeout (retryable)."""


def resolve_on_error(on_error: str | None = None) -> str:
    """Resolve the failure policy: argument, else the ``raise`` default.

    ``raise`` aborts the ensemble on the first permanently failed trial
    (the original exception propagates); ``collect`` records failures as
    :class:`~repro.runtime.spec.TrialFailure` results and keeps going.
    The policy is an API/CLI choice, not an environment knob — silently
    swallowing failures because of an inherited variable would be a
    footgun.
    """
    if on_error is None:
        return "raise"
    if on_error not in ON_ERROR_POLICIES:
        raise ValidationError(
            f"on_error must be one of {', '.join(ON_ERROR_POLICIES)}, "
            f"got {on_error!r}"
        )
    return on_error


def persistent_executor(n_workers: int) -> concurrent.futures.ProcessPoolExecutor:
    """The process-wide pool, (re)created for ``n_workers`` workers.

    Reused as long as callers keep asking for the same worker count; a
    different count (or a broken pool) shuts the old executor down and
    builds a fresh one.  Workers are started lazily by the executor, so a
    pool sized for N workers running fewer pending trials forks only what
    it needs.
    """
    global _pool, _pool_workers, _atexit_registered
    n_workers = check_integer(n_workers, "n_workers", minimum=1)
    with _pool_lock:
        broken = _pool is not None and getattr(_pool, "_broken", False)
        if _pool is None or _pool_workers != n_workers or broken:
            shutdown_pool()
            _pool = concurrent.futures.ProcessPoolExecutor(max_workers=n_workers)
            _pool_workers = n_workers
            if not _atexit_registered:
                atexit.register(shutdown_pool)
                _atexit_registered = True
            _logger.debug("persistent pool created with %d workers", n_workers)
        return _pool


def shutdown_pool() -> None:
    """Shut the persistent pool down (idempotent; next use recreates it).

    Safe to call concurrently from multiple threads and reentrantly from
    a signal handler: the pool reference is detached under the lock
    first, so overlapping calls see no pool and return immediately while
    one caller performs the actual (blocking) shutdown.
    """
    global _pool, _pool_workers
    with _pool_lock:
        pool = _pool
        _pool = None
        _pool_workers = 0
    if pool is not None:
        pool.shutdown(wait=True, cancel_futures=True)


def pool_worker_pids() -> tuple[int, ...]:
    """PIDs of the live persistent-pool workers (empty without a pool).

    Workers fork lazily, so the tuple grows as tasks are submitted; a
    stable tuple across consecutive ensembles is the observable "zero
    re-fork" guarantee the pool-reuse tests assert.
    """
    pool = _pool
    if pool is None:
        return ()
    processes = getattr(pool, "_processes", None) or {}
    return tuple(sorted(processes))


def resolve_n_jobs(n_jobs: int | None = None) -> int:
    """Resolve a worker count: argument, then ``REPRO_N_JOBS``, then 1.

    ``n_jobs <= 0`` (from either source) requests one worker per usable
    core (:func:`repro.knobs.usable_cores`).
    """
    n_jobs = knob("REPRO_N_JOBS", n_jobs)
    return usable_cores() if n_jobs <= 0 else n_jobs


@dataclass(frozen=True)
class _ExecutionSettings:
    """Per-submission execution policy, shipped inside the task payload.

    Picklable and explicit: retries, timeout, backoff, the collect/raise
    policy, this trial's injected faults, and whether *this submission*
    should crash its worker (the parent re-decides per submission so a
    pool rebuild never re-arms an exhausted crash fault).
    """

    retries: int = 0
    timeout: float | None = None
    backoff: float = default("REPRO_TRIAL_BACKOFF")
    collect: bool = False
    faults: TrialFaults = NO_FAULTS
    crash: bool = False


@dataclass(frozen=True)
class _TrialOutcome:
    """What one executed trial sends back: a value or a failure, plus the
    attempt count (for retry attribution)."""

    value: Any = None
    failure: TrialFailure | None = None
    attempts: int = 1


def run_trials(
    specs: Iterable[TrialSpec],
    *,
    seed: Any = None,
    n_jobs: int | None = None,
    cache: TrialCache | str | os.PathLike | None = None,
    label: str = "trials",
    on_error: str | None = None,
    retries: int | None = None,
    timeout: float | None = None,
    backoff: float | None = None,
    pool_restarts: int | None = None,
    faults: str | FaultPlan | None = None,
) -> TrialRunReport:
    """Execute an ensemble of trials, in parallel and with memoization.

    Parameters
    ----------
    specs:
        The trials.  Results come back in spec order regardless of
        completion order.
    seed:
        Root seed for the ensemble (``None``, int,
        :class:`~numpy.random.SeedSequence`, or
        :class:`~numpy.random.Generator`).  Each trial receives the child
        stream at its ``index``; specs carrying an explicit ``seed`` keep
        it.  Pass a fixed seed for reproducible (and cacheable) ensembles.
    n_jobs:
        Worker processes; see :func:`resolve_n_jobs`.  ``1`` runs serially
        in-process (no pickling, monkeypatch-friendly).
    cache:
        ``None`` (no caching), a directory path, or a
        :class:`~repro.runtime.cache.TrialCache`.
    label:
        Human-readable ensemble name for progress logging.
    on_error:
        Failure policy once a trial's retries are exhausted: ``raise``
        (default; the original exception aborts the ensemble) or
        ``collect`` (a :class:`~repro.runtime.spec.TrialFailure` takes
        the trial's place in the results and the ensemble continues).
    retries:
        Extra attempts per trial after the first (``REPRO_TRIAL_RETRIES``,
        default 0).  Every attempt re-derives the same per-trial stream, so a
        retried run is bit-identical to a clean one.
    timeout:
        Per-attempt wall-clock budget in seconds (``REPRO_TRIAL_TIMEOUT``,
        default none).  A timed-out attempt counts as a failure (and is retried
        if budget remains).  Enforced identically on the serial and pool
        paths via an in-process watchdog; the abandoned attempt finishes
        in a daemon thread whose result is discarded, so trial callables
        should be pure (they already must be, for caching).
    backoff:
        Base seconds of the deterministic exponential backoff between
        attempts (``REPRO_TRIAL_BACKOFF``).
    pool_restarts:
        How many broken-pool rebuilds this call may perform before
        surfacing the breakage (``REPRO_POOL_RESTARTS``).
    faults:
        Deterministic fault-injection plan — a spec string, a parsed
        :class:`~repro.runtime.faults.FaultPlan`, or ``None`` to honour
        ``REPRO_FAULT_INJECT`` (see :mod:`repro.runtime.faults`).

    Returns
    -------
    TrialRunReport
        Ordered results plus the executed/cached split, the
        failed/retried/pool-restart attribution, and elapsed time.
    """
    specs = list(specs)
    n_jobs = resolve_n_jobs(n_jobs)
    # Validate eagerly: a bad knob or fault spec must fail on the
    # serial/cached branches too, not only once the call site first runs
    # parallel (or first injects a fault).
    on_error = resolve_on_error(on_error)
    retries = knob("REPRO_TRIAL_RETRIES", retries)
    timeout = knob("REPRO_TRIAL_TIMEOUT", timeout)
    backoff = knob("REPRO_TRIAL_BACKOFF", backoff)
    restart_budget = knob("REPRO_POOL_RESTARTS", pool_restarts)
    plan = resolve_fault_plan(faults)
    store = _as_cache(cache)
    seeds = _effective_seeds(specs, seed)
    start = time.perf_counter()

    results: list[Any] = [None] * len(specs)
    keys: list[str | None] = [None] * len(specs)
    pending: list[int] = []
    for position, (spec, trial_seed) in enumerate(zip(specs, seeds)):
        if store is not None:
            keys[position] = trial_key(spec, trial_seed)
            hit, value = store.load(keys[position])
            if hit:
                results[position] = value
                continue
        pending.append(position)
    cached = len(specs) - len(pending)
    trial_faults = plan.for_pending(pending)
    if trial_faults:
        _logger.warning(
            "%s: fault injection active on %d trial(s): %s",
            label, len(trial_faults), sorted(trial_faults),
        )

    state = _RunState(results=results, keys=keys, store=store, label=label)
    base = _ExecutionSettings(
        retries=retries,
        timeout=timeout,
        backoff=backoff,
        collect=(on_error == "collect"),
    )

    _logger.info(
        "%s: %d trials (%d cached, %d to run) with n_jobs=%d",
        label, len(specs), cached, len(pending), n_jobs,
    )
    restarts = 0
    if pending:
        if n_jobs == 1 or len(pending) == 1:
            # Serial path: same retry/timeout/policy semantics, no pool
            # (worker_crash faults are inert — there is no worker to kill
            # without killing the ensemble itself).
            for position in pending:
                settings = _settings_for(base, trial_faults.get(position))
                outcome = _execute_trial(specs[position], seeds[position], settings)
                state.fold(position, specs[position], outcome)
        else:
            restarts = _collect(
                specs, seeds, pending, state, base, trial_faults,
                n_jobs=n_jobs, restart_budget=restart_budget,
            )

    elapsed = time.perf_counter() - start
    _logger.info(
        "%s: completed %d trials in %.2fs "
        "(%d executed, %d cached, %d failed, %d retried, %d pool restart(s))",
        label, len(specs), elapsed, len(pending), cached,
        len(state.failed), len(state.retried), restarts,
    )
    pending_set = set(pending)
    return TrialRunReport(
        results=results,
        executed=len(pending),
        cached=cached,
        n_jobs=n_jobs,
        elapsed=elapsed,
        cached_indices=tuple(
            position for position in range(len(specs)) if position not in pending_set
        ),
        failed=len(state.failed),
        retried=len(state.retried),
        pool_restarts=restarts,
        failed_indices=tuple(sorted(state.failed)),
        retried_indices=tuple(sorted(state.retried)),
    )


class _RunState:
    """Mutable fold target shared by the serial and pool paths."""

    def __init__(self, *, results, keys, store, label):
        self.results = results
        self.keys = keys
        self.store = store
        self.label = label
        self.failed: set[int] = set()
        self.retried: set[int] = set()

    def fold(self, position: int, spec: TrialSpec, outcome: _TrialOutcome) -> None:
        if outcome.attempts > 1:
            self.retried.add(position)
        if outcome.failure is not None:
            self.results[position] = outcome.failure
            self.failed.add(position)
            _logger.warning("%s: %s", self.label, outcome.failure)
            return
        self.results[position] = outcome.value
        _store_result(self.store, self.keys[position], outcome.value)
        _logger.debug("%s: trial %d done", self.label, spec.index)


def _settings_for(
    base: _ExecutionSettings,
    faults: TrialFaults | None,
    submission: int = 0,
) -> _ExecutionSettings:
    """The settings one submission of one trial ships with.

    ``submission`` is the 1-based pool-submission counter; the serial
    path passes 0 (its default), which keeps ``worker_crash`` faults
    disarmed — there is no worker process to kill, and arming the crash
    in-process would take down the ensemble itself.
    """
    if faults is None:
        return base
    return _ExecutionSettings(
        retries=base.retries,
        timeout=base.timeout,
        backoff=base.backoff,
        collect=base.collect,
        faults=faults,
        crash=0 < submission <= faults.crash_submissions,
    )


def _collect(
    specs: Sequence[TrialSpec],
    seeds: Sequence[Any],
    pending: Sequence[int],
    state: _RunState,
    base: _ExecutionSettings,
    trial_faults: dict[int, TrialFaults],
    *,
    n_jobs: int,
    restart_budget: int,
) -> int:
    """Run the pending trials on an executor, self-healing pool breakage.

    Returns the number of pool restarts performed.  Each round submits
    the not-yet-completed trials; when the pool breaks mid-round
    (a worker died — OOM killer, segfault, injected crash), results that
    completed before the breakage are kept, the executor is rebuilt, and
    only the lost trials are resubmitted.  On any *trial* exception
    (``raise`` policy) the not-yet-started futures are cancelled before
    the exception propagates, so the pool is left idle (and usable)
    rather than draining abandoned work.  The pool is sized by the
    requested ``n_jobs`` (stable across calls with the same budget), not
    by the pending count — workers fork lazily, so a small ensemble on a
    big pool only starts what it uses.
    """
    todo = list(pending)
    submissions = dict.fromkeys(pending, 0)
    restarts = 0
    while todo:
        executor = persistent_executor(n_jobs)
        futures: dict[concurrent.futures.Future, int] = {}
        for position in todo:
            submissions[position] += 1
            settings = _settings_for(
                base, trial_faults.get(position), submissions[position]
            )
            futures[
                executor.submit(_execute_trial, specs[position], seeds[position], settings)
            ] = position
        completed: set[int] = set()
        try:
            for future in concurrent.futures.as_completed(futures):
                position = futures[future]
                state.fold(position, specs[position], future.result())
                completed.add(position)
        except BrokenProcessPool:
            # Keep every result that finished before the breakage, even
            # ones as_completed had not yielded yet.
            for future, position in futures.items():
                if position in completed or not future.done() or future.cancelled():
                    continue
                if future.exception() is None:
                    state.fold(position, specs[position], future.result())
                    completed.add(position)
            shutdown_pool()  # do not hand a dead pool to the next round/caller
            todo = [position for position in todo if position not in completed]
            restarts += 1
            if restarts > restart_budget:
                _logger.error(
                    "%s: worker pool broke %d time(s), exceeding the restart "
                    "budget of %d (REPRO_POOL_RESTARTS=%d); %d trial(s) "
                    "unrecovered",
                    state.label, restarts, restart_budget, restart_budget,
                    len(todo),
                )
                raise
            _logger.warning(
                "%s: worker pool broke (a worker process died); rebuilding "
                "and resubmitting %d lost trial(s) (restart %d of at most %d, "
                "%d completed result(s) kept)",
                state.label, len(todo), restarts, restart_budget, len(completed),
            )
            continue
        except BaseException:
            for future in futures:
                future.cancel()
            raise
        todo = []
    return restarts


def _execute_trial(
    spec: TrialSpec, trial_seed: Any, settings: _ExecutionSettings
) -> _TrialOutcome:
    """Execute one trial under the run's policy (runs in workers too).

    Retries re-derive the generator from the same ``trial_seed``, so a
    successful attempt N returns bit-identical results to a clean
    attempt 1.  Only :class:`Exception` is retried/collected —
    ``KeyboardInterrupt``/``SystemExit`` always propagate.
    """
    if settings.crash:
        # Simulated worker death (OOM killer / segfault): bypass every
        # Python-level cleanup, exactly like the real thing.
        os._exit(CRASH_EXIT_CODE)
    attempts = settings.retries + 1
    start = time.perf_counter()
    final: Exception | None = None
    final_traceback = ""
    for attempt in range(1, attempts + 1):
        try:
            value = _attempt(spec, trial_seed, settings, attempt)
            return _TrialOutcome(value=value, attempts=attempt)
        except Exception as exc:
            final = exc
            final_traceback = traceback.format_exc()
            if attempt < attempts:
                _sleep_backoff(settings.backoff, attempt)
    elapsed = time.perf_counter() - start
    if settings.collect:
        return _TrialOutcome(
            failure=TrialFailure(
                index=spec.index,
                error_type=type(final).__name__,
                message=str(final),
                traceback=final_traceback,
                attempts=attempts,
                elapsed=elapsed,
            ),
            attempts=attempts,
        )
    raise final


def _sleep_backoff(backoff: float, attempt: int) -> None:
    if backoff > 0:
        time.sleep(min(backoff * 2 ** (attempt - 1), MAX_RETRY_BACKOFF))


def _attempt(
    spec: TrialSpec, trial_seed: Any, settings: _ExecutionSettings, attempt: int
) -> Any:
    """One attempt: injected faults first, then the trial callable."""
    faults = settings.faults

    def call() -> Any:
        if faults.slow_attempts >= attempt and faults.slow_seconds > 0:
            time.sleep(faults.slow_seconds)
        if faults.error_attempts >= attempt:
            raise InjectedFault(
                f"injected trial error (trial {spec.index}, attempt {attempt}; "
                "REPRO_FAULT_INJECT)"
            )
        rng = np.random.default_rng(trial_seed)
        return spec.fn(rng, **dict(spec.params))

    if settings.timeout is None:
        return call()
    return call_with_timeout(call, settings.timeout, spec.index)


def call_with_timeout(call: Callable[[], Any], timeout: float, index: int) -> Any:
    """Run ``call`` under a watchdog; raise :class:`TrialTimeoutError` on
    expiry.

    The attempt runs in a daemon thread; on timeout the thread is
    abandoned (its eventual result is discarded) rather than killed —
    Python cannot safely preempt arbitrary code — which is why this works
    identically in-process and inside pool workers without breaking the
    pool.  The serve layer reuses this watchdog for per-request deadlines
    (``index`` is then the request sequence number).
    """
    box: dict[str, Any] = {}

    def runner() -> None:
        try:
            box["value"] = call()
        except BaseException as exc:  # ferried to the caller, not lost
            box["error"] = exc

    thread = threading.Thread(
        target=runner, name=f"repro-trial-{index}", daemon=True
    )
    thread.start()
    thread.join(timeout)
    if thread.is_alive():
        raise TrialTimeoutError(
            f"trial {index} exceeded the per-attempt timeout of {timeout:g}s"
        )
    if "error" in box:
        raise box["error"]
    return box["value"]


def _store_result(store: TrialCache | None, key: str | None, result: Any) -> None:
    if store is not None and key is not None:
        store.store(key, result)


def _as_cache(cache: TrialCache | str | os.PathLike | None) -> TrialCache | None:
    if cache is None:
        return None
    if isinstance(cache, TrialCache):
        return cache
    return TrialCache(cache)


def _effective_seeds(specs: Sequence[TrialSpec], seed: Any) -> list[Any]:
    """Per-trial seeds: spawned children of the root, or spec overrides."""
    if isinstance(seed, np.random.Generator):
        seed = int(seed.integers(0, 2**63 - 1))
    root = seed if isinstance(seed, np.random.SeedSequence) else np.random.SeedSequence(seed)
    children = root.spawn(len(specs)) if specs else []
    return [
        spec.seed if spec.seed is not None else child
        for spec, child in zip(specs, children)
    ]
