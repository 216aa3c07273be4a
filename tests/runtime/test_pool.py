"""Tests for the persistent worker pool behind parallel ``run_trials``.

The contract: parallel runs reuse one process-wide executor across
consecutive ensembles (zero re-fork between them), results stay
bit-identical to serial at any worker count, and the pool is
lifecycle-managed — resized on a different worker budget,
discarded on breakage, released by :func:`shutdown_pool`, and never
created by serial runs.
"""

from __future__ import annotations

import os

import pytest

from repro.runtime import (
    TrialSpec,
    pool_worker_pids,
    run_trials,
    shutdown_pool,
)
from repro.runtime import engine as engine_module


def _pid_trial(rng):
    """Report which worker ran the trial."""
    return os.getpid()


def _draw_trial(rng, *, size):
    """Deterministic function of the trial's RNG stream alone."""
    return rng.standard_normal(size).tolist()


def _failing_trial(rng):
    raise RuntimeError("pool trial exploded")


def _specs(fn=_draw_trial, count=6, **params):
    if fn is _draw_trial and not params:
        params = {"size": 3}
    return [TrialSpec(fn=fn, params=params, index=trial) for trial in range(count)]


@pytest.fixture(autouse=True)
def fresh_pool():
    """Isolate every test from pools created by earlier tests."""
    shutdown_pool()
    yield
    shutdown_pool()


class TestPersistentReuse:
    def test_zero_refork_between_consecutive_ensembles(self):
        first = run_trials(_specs(_pid_trial, count=8), seed=1, n_jobs=2)
        executor = engine_module._pool
        pids_after_first = pool_worker_pids()
        second = run_trials(_specs(_pid_trial, count=8), seed=2, n_jobs=2)
        assert engine_module._pool is executor  # same executor object
        assert pool_worker_pids() == pids_after_first  # zero re-fork
        assert set(second.results) <= set(pids_after_first)
        assert set(first.results) <= set(pids_after_first)

    def test_bit_identical_to_serial_at_any_worker_count(self):
        serial = run_trials(_specs(), seed=11, n_jobs=1)
        for n_jobs in (2, 4):
            parallel = run_trials(_specs(), seed=11, n_jobs=n_jobs)
            assert parallel.results == serial.results

    def test_different_worker_budget_resizes_the_pool(self):
        run_trials(_specs(_pid_trial, count=4), seed=1, n_jobs=2)
        first_executor = engine_module._pool
        run_trials(_specs(_pid_trial, count=4), seed=1, n_jobs=3)
        assert engine_module._pool is not first_executor
        assert engine_module._pool_workers == 3

    def test_serial_runs_never_create_a_pool(self):
        run_trials(_specs(), seed=11, n_jobs=1)
        assert pool_worker_pids() == ()
        assert engine_module._pool is None

    def test_shutdown_is_idempotent_and_pool_recreates(self):
        run_trials(_specs(_pid_trial, count=4), seed=1, n_jobs=2)
        assert pool_worker_pids()
        shutdown_pool()
        shutdown_pool()
        assert pool_worker_pids() == ()
        report = run_trials(_specs(_pid_trial, count=4), seed=1, n_jobs=2)
        assert len(report.results) == 4

    def test_trial_exception_propagates_and_pool_stays_usable(self):
        run_trials(_specs(_pid_trial, count=4), seed=1, n_jobs=2)
        executor = engine_module._pool
        with pytest.raises(RuntimeError, match="pool trial exploded"):
            run_trials(_specs(_failing_trial, count=3), seed=0, n_jobs=2)
        # A raised trial does not break the pool: the next ensemble reuses it.
        report = run_trials(_specs(), seed=11, n_jobs=2)
        assert engine_module._pool is executor
        assert report.results == run_trials(_specs(), seed=11, n_jobs=1).results


class TestSignalShutdown:
    """The serve layer's drain path: ``shutdown_pool`` from a signal
    handler must be safe alongside (and after) ordinary calls."""

    def test_shutdown_from_a_signal_handler_is_idempotent(self):
        import signal as signal_module
        import time

        fired = []

        def handler(signum, frame):
            # Exactly what a drain-on-SIGTERM handler does — including
            # the accidental double call.
            shutdown_pool()
            shutdown_pool()
            fired.append(signum)

        previous = signal_module.signal(signal_module.SIGUSR1, handler)
        try:
            report = run_trials(_specs(_pid_trial, count=4), seed=0, n_jobs=2)
            assert pool_worker_pids()  # a live pool to tear down
            os.kill(os.getpid(), signal_module.SIGUSR1)
            deadline = time.monotonic() + 5.0
            while not fired and time.monotonic() < deadline:
                time.sleep(0.01)
            assert fired == [signal_module.SIGUSR1]
            assert pool_worker_pids() == ()
            # A main-thread call after the handler already shut down.
            shutdown_pool()
            # And the pool comes back on demand, fully usable.
            again = run_trials(_specs(_pid_trial, count=4), seed=0, n_jobs=2)
            assert len(again.results) == len(report.results)
            assert pool_worker_pids()
        finally:
            signal_module.signal(signal_module.SIGUSR1, previous)

    def test_concurrent_shutdown_calls_from_threads(self):
        import threading

        run_trials(_specs(count=4), seed=0, n_jobs=2)
        assert pool_worker_pids()
        barrier = threading.Barrier(8)
        errors = []

        def racer():
            barrier.wait()
            try:
                shutdown_pool()
            except Exception as exc:  # pragma: no cover - the failure mode
                errors.append(repr(exc))

        threads = [threading.Thread(target=racer) for _ in range(8)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        assert errors == []
        assert pool_worker_pids() == ()
