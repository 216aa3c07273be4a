"""Tests for the fault-injection harness and the engine's recovery paths.

The contract under test: every recovery mechanism — per-trial retries,
per-attempt timeouts, the ``collect`` failure policy, and pool
self-healing after a worker death — preserves **bit-identity**: a run
with transient faults produces exactly the results of a clean run,
because retried and resubmitted trials re-derive the same
``(root seed, index)`` streams.  The harness itself must be strict (a
typo'd fault spec raises, never silently no-ops) and deterministic
(faults ride in task payloads, so serial and pool runs see the same
injections).
"""

from __future__ import annotations

import os
import tempfile

import numpy as np
import pytest

from repro.errors import ValidationError
from repro.knobs import knob
from repro.runtime import (
    InjectedFault,
    TrialCache,
    TrialFailure,
    TrialSpec,
    TrialTimeoutError,
    parse_fault_plan,
    resolve_fault_plan,
    resolve_on_error,
    run_trials,
    shutdown_pool,
)
from concurrent.futures.process import BrokenProcessPool


def _draw_trial(rng, *, size=3):
    """Deterministic function of the trial's RNG stream alone."""
    return rng.standard_normal(size).tolist()


def _marked_trial(rng, *, marker_dir, position, size=3):
    """Like :func:`_draw_trial`, but records each execution on disk.

    One ``exec-<position>-*`` file per execution, created atomically via
    ``mkstemp`` — a cross-process execution counter the resubmission
    tests read back.
    """
    descriptor, _ = tempfile.mkstemp(
        dir=marker_dir, prefix=f"exec-{position:03d}-"
    )
    os.close(descriptor)
    return rng.standard_normal(size).tolist()


def _kronfit_trial(rng, *, k):
    """A two-start KronFit fit seeded by the trial's own stream."""
    from repro.kronecker import Initiator
    from repro.kronecker.kronfit import KronFitEstimator

    graph = Initiator(0.9, 0.5, 0.2).sample(k, seed=1)
    fit = KronFitEstimator(
        n_iterations=2, warmup_swaps=30, n_permutation_samples=1,
        sample_spacing=10, n_starts=2, seed=rng,
    ).fit(graph)
    return fit.start_log_likelihoods


def _specs(count=6, fn=_draw_trial, **params):
    return [TrialSpec(fn=fn, params=params or {"size": 3}, index=i) for i in range(count)]


def _executions(marker_dir) -> dict[int, int]:
    counts: dict[int, int] = {}
    for name in os.listdir(marker_dir):
        position = int(name.split("-")[1])
        counts[position] = counts.get(position, 0) + 1
    return counts


@pytest.fixture(autouse=True)
def fresh_pool():
    shutdown_pool()
    yield
    shutdown_pool()


class TestParsing:
    def test_empty_spec_is_the_empty_plan(self):
        assert not parse_fault_plan("")
        assert parse_fault_plan("").clauses == ()

    def test_all_kinds_parse(self):
        plan = parse_fault_plan(
            "trial_error:index=3:attempts=2; worker_crash:nth=2;"
            "slow_trial:index=5:seconds=30"
        )
        kinds = [clause.kind for clause in plan.clauses]
        assert kinds == ["trial_error", "worker_crash", "slow_trial"]
        assert plan.clauses[0].index == 3 and plan.clauses[0].attempts == 2
        assert plan.clauses[1].nth == 2
        assert plan.clauses[2].seconds == 30.0

    @pytest.mark.parametrize(
        "spec",
        [
            "typo_kind:index=1",
            "trial_error",  # needs index=
            "trial_error:index",  # malformed field
            "trial_error:index=1:index=2",  # duplicate key
            "trial_error:index=x",  # non-integer
            "trial_error:index=-1",  # negative position
            "trial_error:index=1:seconds=5",  # seconds not allowed here
            "slow_trial:index=1",  # needs seconds=
            "slow_trial:index=1:seconds=0",  # must be positive
            "worker_crash:index=1:nth=2",  # exactly one selector
            "worker_crash:attempts=1",  # no selector at all
            "worker_crash:nth=0",  # nth is 1-based
        ],
    )
    def test_malformed_specs_raise(self, spec):
        with pytest.raises(ValidationError, match="fault clause"):
            parse_fault_plan(spec)

    def test_number_errors_keep_their_cause(self):
        with pytest.raises(ValidationError) as info:
            parse_fault_plan("trial_error:index=banana")
        assert isinstance(info.value.__cause__, ValueError)

    def test_env_resolution(self, monkeypatch):
        monkeypatch.setenv("REPRO_FAULT_INJECT", "trial_error:index=1")
        plan = resolve_fault_plan()
        assert plan.clauses[0].index == 1
        monkeypatch.delenv("REPRO_FAULT_INJECT")
        assert not resolve_fault_plan()

    def test_argument_beats_environment(self, monkeypatch):
        monkeypatch.setenv("REPRO_FAULT_INJECT", "trial_error:index=1")
        explicit = parse_fault_plan("slow_trial:index=2:seconds=1")
        assert resolve_fault_plan(explicit) is explicit
        assert resolve_fault_plan("").clauses == ()


class TestTargeting:
    def test_nth_binds_over_pending_not_positions(self):
        plan = parse_fault_plan("worker_crash:nth=2")
        faults = plan.for_pending([3, 5, 7])
        assert set(faults) == {5}
        assert faults[5].crash_submissions == 1

    def test_out_of_range_clauses_are_inert(self):
        plan = parse_fault_plan("worker_crash:nth=9;trial_error:index=40")
        assert plan.for_pending([0, 1]) == {}

    def test_index_must_be_pending_cached_trials_cannot_fault(self):
        plan = parse_fault_plan("trial_error:index=2")
        assert plan.for_pending([0, 1]) == {}
        assert set(plan.for_pending([0, 1, 2])) == {2}

    def test_clauses_on_the_same_trial_merge(self):
        plan = parse_fault_plan(
            "trial_error:index=1:attempts=2;slow_trial:index=1:seconds=4"
        )
        faults = plan.for_pending([0, 1])[1]
        assert faults.error_attempts == 2
        assert faults.slow_attempts == 1
        assert faults.slow_seconds == 4.0


class TestKnobResolution:
    def test_defaults(self, monkeypatch):
        for name in ("REPRO_TRIAL_RETRIES", "REPRO_TRIAL_TIMEOUT",
                     "REPRO_TRIAL_BACKOFF", "REPRO_POOL_RESTARTS"):
            monkeypatch.delenv(name, raising=False)
        assert knob("REPRO_TRIAL_RETRIES") == 0
        assert knob("REPRO_TRIAL_TIMEOUT") is None
        assert knob("REPRO_TRIAL_BACKOFF") == pytest.approx(0.05)
        assert knob("REPRO_POOL_RESTARTS") == 2
        assert resolve_on_error() == "raise"

    def test_environment_values(self, monkeypatch):
        monkeypatch.setenv("REPRO_TRIAL_RETRIES", "3")
        monkeypatch.setenv("REPRO_TRIAL_TIMEOUT", "1.5")
        monkeypatch.setenv("REPRO_TRIAL_BACKOFF", "0")
        monkeypatch.setenv("REPRO_POOL_RESTARTS", "5")
        assert knob("REPRO_TRIAL_RETRIES") == 3
        assert knob("REPRO_TRIAL_TIMEOUT") == 1.5
        assert knob("REPRO_TRIAL_BACKOFF") == 0.0
        assert knob("REPRO_POOL_RESTARTS") == 5

    @pytest.mark.parametrize(
        "env",
        [
            "REPRO_TRIAL_RETRIES",
            "REPRO_TRIAL_TIMEOUT",
            "REPRO_TRIAL_BACKOFF",
            "REPRO_POOL_RESTARTS",
        ],
    )
    def test_bad_environment_values_chain_their_cause(self, monkeypatch, env):
        monkeypatch.setenv(env, "banana")
        with pytest.raises(ValidationError, match=env) as info:
            knob(env)
        assert isinstance(info.value.__cause__, ValueError)

    def test_invalid_direct_values(self):
        with pytest.raises(ValidationError):
            knob("REPRO_TRIAL_RETRIES", -1)
        with pytest.raises(ValidationError):
            knob("REPRO_TRIAL_TIMEOUT", 0)
        with pytest.raises(ValidationError):
            knob("REPRO_TRIAL_BACKOFF", -0.1)
        with pytest.raises(ValidationError):
            resolve_on_error("ignore")

    def test_bad_fault_spec_fails_even_a_serial_run(self, monkeypatch):
        monkeypatch.setenv("REPRO_FAULT_INJECT", "not-a-kind:index=1")
        with pytest.raises(ValidationError, match="fault clause"):
            run_trials(_specs(2), seed=0)


class TestRetries:
    def test_transient_error_heals_bit_identically(self):
        specs = _specs()
        clean = run_trials(specs, seed=0)
        healed = run_trials(
            specs, seed=0, retries=1, backoff=0,
            faults="trial_error:index=3:attempts=1",
        )
        assert healed.results == clean.results
        assert healed.retried == 1 and healed.retried_indices == (3,)
        assert healed.failed == 0 and healed.failed_indices == ()

    def test_environment_faults_do_not_leak_into_multi_start_fits(
        self, monkeypatch
    ):
        """A multi-start fit inside a trial must not re-read
        REPRO_FAULT_INJECT: the injected fault hits the outer trial's
        first attempt only, so the retry heals bit-identically."""
        specs = _specs(1, fn=_kronfit_trial, k=5)
        monkeypatch.delenv("REPRO_FAULT_INJECT", raising=False)
        clean = run_trials(specs, seed=0)
        monkeypatch.setenv("REPRO_FAULT_INJECT", "trial_error:index=0:attempts=1")
        healed = run_trials(specs, seed=0, retries=2, backoff=0)
        assert healed.results == clean.results
        assert healed.retried_indices == (0,)
        assert healed.failed == 0

    def test_raise_policy_propagates_after_exhausted_retries(self):
        with pytest.raises(InjectedFault, match="trial 2"):
            run_trials(
                _specs(), seed=0, retries=1, backoff=0,
                faults="trial_error:index=2:attempts=5",
            )

    def test_collect_policy_records_a_structured_failure(self):
        specs = _specs()
        clean = run_trials(specs, seed=0)
        report = run_trials(
            specs, seed=0, on_error="collect", retries=1, backoff=0,
            faults="trial_error:index=2:attempts=5",
        )
        failure = report.results[2]
        assert isinstance(failure, TrialFailure)
        assert failure.index == 2
        assert failure.error_type == "InjectedFault"
        assert failure.attempts == 2
        assert "InjectedFault" in failure.traceback
        assert failure.elapsed >= 0.0
        assert "failed after 2 attempt(s)" in str(failure)
        assert report.failed == 1 and report.failed_indices == (2,)
        assert report.retried_indices == (2,)
        # Every surviving trial is untouched by its neighbour's failure.
        for position in (0, 1, 3, 4, 5):
            assert report.results[position] == clean.results[position]

    def test_deterministic_backoff_schedule(self, monkeypatch):
        import repro.runtime.engine as engine_module

        sleeps: list[float] = []
        monkeypatch.setattr(engine_module.time, "sleep", sleeps.append)
        run_trials(
            _specs(2), seed=0, retries=3, backoff=0.1, on_error="collect",
            faults="trial_error:index=0:attempts=4",
        )
        assert sleeps == [pytest.approx(0.1), pytest.approx(0.2), pytest.approx(0.4)]


class TestTimeouts:
    def test_slow_trial_times_out_and_collects(self):
        report = run_trials(
            _specs(3), seed=0, on_error="collect", timeout=0.2, backoff=0,
            faults="slow_trial:index=1:seconds=30",
        )
        failure = report.results[1]
        assert isinstance(failure, TrialFailure)
        assert failure.error_type == "TrialTimeoutError"

    def test_timed_out_attempt_retries_bit_identically(self):
        specs = _specs()
        clean = run_trials(specs, seed=0)
        healed = run_trials(
            specs, seed=0, timeout=0.2, retries=1, backoff=0,
            faults="slow_trial:index=1:seconds=30",  # first attempt only
        )
        assert healed.results == clean.results
        assert healed.retried_indices == (1,)

    def test_raise_policy_propagates_the_timeout(self):
        with pytest.raises(TrialTimeoutError, match="0.2s"):
            run_trials(
                _specs(2), seed=0, timeout=0.2, backoff=0,
                faults="slow_trial:index=0:seconds=30",
            )


class TestSerialCrashInertia:
    def test_worker_crash_is_a_no_op_without_workers(self):
        specs = _specs()
        clean = run_trials(specs, seed=0)
        report = run_trials(specs, seed=0, faults="worker_crash:nth=1")
        assert report.results == clean.results
        assert report.pool_restarts == 0


class TestCacheInteraction:
    def test_faults_cannot_target_cached_trials(self, tmp_path):
        specs = _specs()
        cache = TrialCache(tmp_path / "cache")
        first = run_trials(specs, seed=0, cache=cache)
        rerun = run_trials(
            specs, seed=0, cache=cache, faults="trial_error:index=2:attempts=9",
        )
        assert rerun.executed == 0 and rerun.cached == len(specs)
        assert rerun.results == first.results
        assert rerun.failed == 0


class TestPoolSelfHealing:
    def test_worker_death_resubmits_only_lost_trials(self, tmp_path):
        """The satellite scenario: cache hits + completed results survive
        a worker crash; only the lost in-flight trials are resubmitted."""
        marker_dir = tmp_path / "markers"
        marker_dir.mkdir()
        # Explicit per-trial seeds so a 3-trial warm-up run produces the
        # same cache keys as the 6-trial chaos batch.
        children = np.random.SeedSequence(0).spawn(6)
        specs = [
            TrialSpec(
                fn=_marked_trial,
                params={"marker_dir": str(marker_dir), "position": i},
                index=i,
                seed=children[i],
            )
            for i in range(6)
        ]
        clean = run_trials(specs, seed=0)  # serial, uncached reference
        for name in os.listdir(marker_dir):
            os.unlink(marker_dir / name)

        cache = TrialCache(tmp_path / "cache")
        warmup = run_trials(specs[:3], seed=0, cache=cache)
        assert warmup.executed == 3
        for name in os.listdir(marker_dir):
            os.unlink(marker_dir / name)

        report = run_trials(
            specs, seed=0, cache=cache, n_jobs=2, backoff=0,
            faults="worker_crash:nth=2",
        )
        assert report.cached == 3 and report.cached_indices == (0, 1, 2)
        assert report.pool_restarts == 1
        assert report.failed == 0 and report.retried == 0
        # Bit-identity: the healed parallel run matches the clean serial
        # run everywhere, cache hits and resubmissions alike.
        assert report.results == clean.results

        executions = _executions(marker_dir)
        # Cached trials never re-executed...
        assert all(position >= 3 for position in executions), executions
        # ...and no pending trial ran more than twice (once before the
        # breakage, at most once as a resubmission).  The crash trial
        # itself dies before marking, so 1 execution = its resubmission.
        assert set(executions) == {3, 4, 5}
        assert all(1 <= count <= 2 for count in executions.values()), executions

    def test_restart_budget_exhaustion_surfaces_the_breakage(self):
        with pytest.raises(BrokenProcessPool):
            run_trials(
                _specs(), seed=0, n_jobs=2, backoff=0, pool_restarts=1,
                faults="worker_crash:nth=1:attempts=9",
            )

    def test_zero_budget_disables_self_healing(self):
        with pytest.raises(BrokenProcessPool):
            run_trials(
                _specs(), seed=0, n_jobs=2, backoff=0, pool_restarts=0,
                faults="worker_crash:nth=1",
            )

    def test_parallel_faulted_run_matches_clean_serial_run(self):
        """Transient error + worker crash together, healed in parallel."""
        specs = _specs()
        clean = run_trials(specs, seed=0)
        report = run_trials(
            specs, seed=0, n_jobs=2, retries=1, backoff=0,
            faults="trial_error:index=0:attempts=1;worker_crash:nth=2",
        )
        assert report.results == clean.results
        assert report.pool_restarts == 1
        assert report.retried_indices == (0,)
        assert report.failed == 0


def parse_serve_fault_plan(spec):
    """The ``REPRO_SERVE_FAULT_INJECT`` family's parse."""
    return parse_fault_plan(spec, "REPRO_SERVE_FAULT_INJECT")


class TestServeFaultGrammar:
    """The serve-side clauses: same strictness, request-order targeting."""

    def test_empty_spec_is_falsy(self):
        from repro.runtime.faults import NO_FAULTS

        plan = parse_serve_fault_plan("")
        assert not plan
        assert plan.for_request(1) == NO_FAULTS

    def test_all_three_kinds_parse(self):
        from repro.runtime.faults import NO_FAULTS

        plan = parse_serve_fault_plan(
            "slow_request:nth=2:seconds=0.5;handler_error:nth=3;"
            "pool_breakage:nth=4:attempts=2"
        )
        assert plan.for_request(1) == NO_FAULTS
        assert plan.for_request(2).slow_seconds == 0.5
        assert plan.for_request(3).error_attempts == 1
        assert plan.for_request(4).crash_submissions == 2

    def test_each_kind_maps_onto_trial_faults_by_effect(self):
        from repro.runtime import TrialFaults

        plan = parse_serve_fault_plan(
            "handler_error:nth=1;slow_request:nth=2:seconds=0.5;"
            "pool_breakage:nth=3:attempts=4;pool_breakage:nth=4"
        )
        assert plan.for_request(1) == TrialFaults(error_attempts=1)
        assert plan.for_request(2) == TrialFaults(slow_attempts=1, slow_seconds=0.5)
        assert plan.for_request(3) == TrialFaults(crash_submissions=4)
        assert plan.for_request(4) == TrialFaults(crash_submissions=1)

    def test_clauses_on_the_same_request_merge(self):
        plan = parse_serve_fault_plan(
            "slow_request:nth=1:seconds=0.2;handler_error:nth=1;"
            "slow_request:nth=1:seconds=0.1"
        )
        faults = plan.for_request(1)
        assert faults.error_attempts == 1
        assert faults.slow_seconds == 0.2

    def test_trial_kinds_are_rejected_with_serve_examples(self):
        with pytest.raises(ValidationError) as excinfo:
            parse_serve_fault_plan("worker_crash:nth=1")
        message = str(excinfo.value)
        assert "slow_request" in message
        assert "worker_crash:nth=1" in message

    def test_slow_request_requires_seconds(self):
        with pytest.raises(ValidationError, match="seconds="):
            parse_serve_fault_plan("slow_request:nth=1")

    def test_nth_is_mandatory(self):
        with pytest.raises(ValidationError, match="nth="):
            parse_serve_fault_plan("handler_error")

    def test_unknown_keys_rejected_per_kind(self):
        with pytest.raises(ValidationError, match="seconds"):
            parse_serve_fault_plan("handler_error:nth=1:seconds=2")

    def test_environment_resolution(self, monkeypatch):
        from repro.runtime import resolve_fault_plan

        monkeypatch.setenv("REPRO_SERVE_FAULT_INJECT", "handler_error:nth=7")
        plan = resolve_fault_plan(knob_name="REPRO_SERVE_FAULT_INJECT")
        assert plan.for_request(7).error_attempts == 1

    def test_argument_beats_environment(self, monkeypatch):
        from repro.runtime import resolve_fault_plan

        monkeypatch.setenv("REPRO_SERVE_FAULT_INJECT", "handler_error:nth=7")
        plan = resolve_fault_plan(
            "slow_request:nth=1:seconds=1", knob_name="REPRO_SERVE_FAULT_INJECT"
        )
        assert not plan.for_request(7).error_attempts
        assert plan.for_request(1).slow_seconds == 1.0


# One valid clause per kind, trial family first.
_VALID_CLAUSES = {
    "trial_error": "trial_error:index=1:attempts=2",
    "worker_crash": "worker_crash:nth=2:attempts=2",
    "slow_trial": "slow_trial:index=1:seconds=2",
    "slow_request": "slow_request:nth=1:seconds=2",
    "handler_error": "handler_error:nth=1",
    "pool_breakage": "pool_breakage:nth=1:attempts=2",
}


def _broken_clause(clause: str, case: str) -> str:
    kind, *fields = clause.split(":")
    if case == "unknown key":
        return f"{clause}:bogus=1"
    if case == "duplicate key":
        return f"{clause}:{fields[0]}"
    if case == "missing target":
        kept = [f for f in fields if f.split("=")[0] not in ("index", "nth")]
        return ":".join([kind, *kept])
    if case == "non-positive seconds":
        kept = [f for f in fields if not f.startswith("seconds=")]
        return ":".join([kind, *kept, "seconds=0"])
    return clause  # "other family": a valid clause, parsed by the wrong entry point


class TestOneClauseGrammar:
    """Both entry points share one clause parser and one per-kind table:
    every kind rejects the same malformations, and each family rejects the
    other's kinds, always naming the offending clause."""

    @pytest.mark.parametrize(
        "case",
        ["unknown key", "duplicate key", "missing target",
         "non-positive seconds", "other family"],
    )
    @pytest.mark.parametrize("kind", list(_VALID_CLAUSES))
    def test_malformed_clause_is_rejected_by_both_entry_points(self, kind, case):
        from repro.runtime import FAULT_KINDS

        own, other = parse_fault_plan, parse_serve_fault_plan
        if kind not in FAULT_KINDS:
            own, other = other, own
        assert [c.kind for c in own(_VALID_CLAUSES[kind]).clauses] == [kind]
        clause = _broken_clause(_VALID_CLAUSES[kind], case)
        entry_points = (other,) if case == "other family" else (own, other)
        for parse in entry_points:
            with pytest.raises(ValidationError) as info:
                parse(clause)
            assert f"bad fault clause {clause!r}" in str(info.value)
