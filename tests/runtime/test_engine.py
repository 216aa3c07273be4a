"""Tests for the trial-execution engine: determinism, parallelism, caching."""

from __future__ import annotations

import numpy as np
import pytest

from repro.errors import ValidationError
from repro.graphs.generators import star_graph
from repro.kronecker.initiator import Initiator
from repro.kronecker.sampling import sample_skg
from repro.runtime import TrialSpec, resolve_n_jobs, run_trials, shutdown_pool
from repro.stats.counts import matching_statistics


def _draw_trial(rng, *, size):
    """Deterministic function of the trial's RNG stream alone."""
    return rng.standard_normal(size).tolist()


def _skg_trial(rng, *, a, b, c, k):
    graph = sample_skg(Initiator(a, b, c), k, seed=rng)
    return matching_statistics(graph)


def _failing_trial(rng):
    raise RuntimeError("trial exploded")


def _graph_trial(rng, *, graph, boom=False):
    """The graph's shape and an edge checksum; ``boom`` interrupts."""
    if boom:
        raise KeyboardInterrupt
    u, v = graph.edge_arrays
    return (graph.n_nodes, graph.n_edges, int(u.sum() + 3 * v.sum()))


def _specs(count=6, size=4):
    return [
        TrialSpec(fn=_draw_trial, params={"size": size}, index=trial)
        for trial in range(count)
    ]


class TestDeterminism:
    def test_same_seed_same_results(self):
        first = run_trials(_specs(), seed=11, n_jobs=1)
        second = run_trials(_specs(), seed=11, n_jobs=1)
        assert first.results == second.results

    def test_different_seed_different_results(self):
        first = run_trials(_specs(), seed=11, n_jobs=1)
        second = run_trials(_specs(), seed=12, n_jobs=1)
        assert first.results != second.results

    def test_bit_identical_across_worker_counts(self):
        serial = run_trials(_specs(), seed=11, n_jobs=1)
        parallel = run_trials(_specs(), seed=11, n_jobs=4)
        assert parallel.n_jobs == 4
        assert parallel.results == serial.results

    def test_skg_ensemble_bit_identical_across_worker_counts(self):
        specs = [
            TrialSpec(
                fn=_skg_trial,
                params={"a": 0.99, "b": 0.45, "c": 0.25, "k": 7},
                index=trial,
            )
            for trial in range(8)
        ]
        serial = run_trials(specs, seed=20120330, n_jobs=1)
        parallel = run_trials(specs, seed=20120330, n_jobs=4)
        assert parallel.results == serial.results

    def test_explicit_spec_seed_overrides_root(self):
        spec = TrialSpec(fn=_draw_trial, params={"size": 3}, index=0, seed=123)
        report = run_trials([spec], seed=999, n_jobs=1)
        expected = np.random.default_rng(123).standard_normal(3).tolist()
        assert report.results == [expected]

    def test_generator_root_seed_accepted(self):
        rng = np.random.default_rng(5)
        report = run_trials(_specs(2), seed=rng, n_jobs=1)
        assert len(report.results) == 2

    def test_results_in_spec_order(self):
        specs = [
            TrialSpec(fn=_draw_trial, params={"size": 1}, index=trial, seed=trial)
            for trial in range(5)
        ]
        report = run_trials(specs, n_jobs=4)
        expected = [
            np.random.default_rng(trial).standard_normal(1).tolist()
            for trial in range(5)
        ]
        assert report.results == expected


class TestCaching:
    def test_second_run_executes_zero_trials(self, tmp_path):
        cache = tmp_path / "cache"
        first = run_trials(_specs(), seed=11, n_jobs=1, cache=cache)
        second = run_trials(_specs(), seed=11, n_jobs=1, cache=cache)
        assert (first.executed, first.cached) == (6, 0)
        assert (second.executed, second.cached) == (0, 6)
        assert second.results == first.results

    def test_cache_shared_between_worker_counts(self, tmp_path):
        cache = tmp_path / "cache"
        first = run_trials(_specs(), seed=11, n_jobs=4, cache=cache)
        second = run_trials(_specs(), seed=11, n_jobs=1, cache=cache)
        assert second.executed == 0
        assert second.results == first.results

    def test_config_change_invalidates(self, tmp_path):
        cache = tmp_path / "cache"
        run_trials(_specs(size=4), seed=11, n_jobs=1, cache=cache)
        changed = run_trials(_specs(size=5), seed=11, n_jobs=1, cache=cache)
        assert changed.executed == 6
        assert changed.cached == 0

    def test_seed_change_invalidates(self, tmp_path):
        cache = tmp_path / "cache"
        run_trials(_specs(), seed=11, n_jobs=1, cache=cache)
        reseeded = run_trials(_specs(), seed=12, n_jobs=1, cache=cache)
        assert reseeded.executed == 6

    def test_partial_cache_runs_only_missing(self, tmp_path):
        cache = tmp_path / "cache"
        run_trials(_specs(count=3), seed=11, n_jobs=1, cache=cache)
        extended = run_trials(_specs(count=6), seed=11, n_jobs=1, cache=cache)
        assert extended.cached == 3
        assert extended.executed == 3

    def test_no_cache_reruns_everything(self):
        first = run_trials(_specs(), seed=11, n_jobs=1)
        second = run_trials(_specs(), seed=11, n_jobs=1)
        assert first.executed == second.executed == 6


class TestResolveNJobs:
    def test_default_is_serial(self, monkeypatch):
        monkeypatch.delenv("REPRO_N_JOBS", raising=False)
        assert resolve_n_jobs(None) == 1

    def test_env_override(self, monkeypatch):
        monkeypatch.setenv("REPRO_N_JOBS", "3")
        assert resolve_n_jobs(None) == 3

    def test_argument_beats_env(self, monkeypatch):
        monkeypatch.setenv("REPRO_N_JOBS", "3")
        assert resolve_n_jobs(2) == 2

    def test_zero_means_all_cores(self):
        assert resolve_n_jobs(0) >= 1

    def test_bad_env_value_raises(self, monkeypatch):
        monkeypatch.setenv("REPRO_N_JOBS", "many")
        with pytest.raises(ValueError, match="REPRO_N_JOBS"):
            resolve_n_jobs(None)

    def test_non_integer_argument_raises(self):
        with pytest.raises(ValidationError):
            resolve_n_jobs(2.5)


class TestErrors:
    def test_trial_exception_propagates_serial(self):
        with pytest.raises(RuntimeError, match="trial exploded"):
            run_trials([TrialSpec(fn=_failing_trial)], seed=0, n_jobs=1)

    def test_trial_exception_propagates_parallel(self):
        specs = [TrialSpec(fn=_failing_trial, index=trial) for trial in range(3)]
        with pytest.raises(RuntimeError, match="trial exploded"):
            run_trials(specs, seed=0, n_jobs=2)

    def test_empty_spec_list(self):
        report = run_trials([], seed=0, n_jobs=2)
        assert report.results == []
        assert report.executed == report.cached == 0


class TestGraphParams:
    """Graphs in trial params reach pool workers pickled by value, through
    the compact canonical-array ``Graph.__reduce__``."""

    # 70,000 edges: about 1.1 MiB of int64 endpoint pairs.
    GRAPHS = (star_graph(70_001), star_graph(70_002))

    def _specs(self, count, **extra):
        return [
            TrialSpec(
                fn=_graph_trial,
                params={"graph": self.GRAPHS[index % 2], **extra},
                index=index,
            )
            for index in range(count)
        ]

    def test_bit_identical_across_worker_counts(self):
        serial = run_trials(self._specs(4), seed=0, n_jobs=1)
        pooled = run_trials(self._specs(4), seed=0, n_jobs=2)
        assert pooled.results == serial.results
        assert [row[1] for row in pooled.results] == [70_000, 70_001] * 2

    def test_worker_crash_self_heals(self):
        clean = run_trials(self._specs(6), seed=0, n_jobs=1)
        report = run_trials(
            self._specs(6), seed=0, n_jobs=2, backoff=0,
            faults="worker_crash:nth=2",
        )
        assert report.pool_restarts >= 1
        assert report.results == clean.results

    def test_keyboard_interrupt_in_a_worker_propagates(self):
        specs = [
            TrialSpec(
                fn=_graph_trial,
                params={"graph": self.GRAPHS[0], "boom": index == 1},
                index=index,
            )
            for index in range(4)
        ]
        try:
            with pytest.raises(KeyboardInterrupt):
                run_trials(specs, seed=0, n_jobs=2)
        finally:
            shutdown_pool()
