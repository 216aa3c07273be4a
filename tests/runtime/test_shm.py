"""Lifecycle tests for the shared-memory CSR handoff (`repro.runtime.shm`).

The contract under test: graphs above the sharing threshold travel to
pool workers as ~100-byte attach tokens instead of pickled edge arrays,
results stay bit-identical to serial runs, and — the part that can rot
silently — **every segment this process publishes is released** by the
time ``run_trials`` returns, on every path: serial (no sharing at all),
the pool, and mid-run pool self-healing after a ``worker_crash`` fault
(the fault-injection harness).  A leak would survive process
exit (POSIX shared memory is a named file under ``/dev/shm``), so every
test runs under a fixture that asserts both the module bookkeeping and
the filesystem are clean afterwards.
"""

from __future__ import annotations

import os
import pickle

import numpy as np
import pytest

from repro.errors import ValidationError
from repro.knobs import knob
from repro.graphs.generators import star_graph
from repro.graphs.graph import Graph
from repro.runtime import TrialSpec, run_trials, shutdown_pool
from repro.runtime import shm as shm_module
from repro.runtime.shm import (
    AUTO_THRESHOLD_BYTES,
    attached_segments,
    live_segments,
    share_graph,
    should_share,
)

# 70000 edges = ~1.1 MiB of int64 pairs: above the `auto` threshold.
BIG_EDGES = 70_000
SMALL_GRAPH = Graph(8, [(0, 1), (1, 2), (2, 3)])


def big_graph() -> Graph:
    return star_graph(BIG_EDGES + 1)


def _shm_dir_entries() -> set:
    try:
        return set(os.listdir("/dev/shm"))
    except FileNotFoundError:  # pragma: no cover - non-Linux hosts
        return set()


def _drain_parent_attachments():
    """Detach segments this (parent) process attached to in earlier tests.

    Attachments are deliberately process-lifetime on the worker side, but
    between tests they would pollute ``attached_segments()`` counts — and
    forked workers inherit the parent's table — so tests start clean.
    """
    for name, segment in list(shm_module._ATTACHED.items()):
        shm_module._ATTACHED.pop(name, None)
        try:
            segment.close()
        except BufferError:  # a live view still exports the buffer
            pass


@pytest.fixture(autouse=True)
def leak_check():
    """Fail any test that leaves a published segment behind."""
    shutdown_pool()
    _drain_parent_attachments()
    before = _shm_dir_entries()
    assert live_segments() == ()
    yield
    shutdown_pool()
    assert live_segments() == ()
    leaked = _shm_dir_entries() - before
    assert not leaked, f"segments leaked in /dev/shm: {sorted(leaked)}"
    _drain_parent_attachments()


def graph_trial(rng, graph=None, scale=1):
    """Pool-side probe: the graph's shape plus this worker's attachments."""
    u, v = graph.edge_arrays
    checksum = int(u.sum() + scale * v.sum())
    return (graph.n_nodes, graph.n_edges, checksum, len(attached_segments()))


def _specs(graph: Graph, count: int = 4) -> list[TrialSpec]:
    return [
        TrialSpec(fn=graph_trial, params={"graph": graph, "scale": 1}, index=trial)
        for trial in range(count)
    ]


class TestModeResolution:
    def test_default_is_auto(self, monkeypatch):
        monkeypatch.delenv("REPRO_SHM", raising=False)
        assert knob("REPRO_SHM") == "auto"
        monkeypatch.setenv("REPRO_SHM", "")
        assert knob("REPRO_SHM") == "auto"

    def test_environment_knob(self, monkeypatch):
        monkeypatch.setenv("REPRO_SHM", "off")
        assert knob("REPRO_SHM") == "off"
        assert knob("REPRO_SHM", "auto") == "auto"  # argument beats environment

    def test_invalid_values_rejected(self, monkeypatch):
        with pytest.raises(ValidationError, match="shared-memory mode"):
            knob("REPRO_SHM", "mmap")
        with pytest.raises(ValidationError, match="shared-memory mode"):
            knob("REPRO_SHM", "on")  # not a mode: lower the threshold to force sharing
        monkeypatch.setenv("REPRO_SHM", "yes")
        with pytest.raises(ValidationError, match="REPRO_SHM"):
            knob("REPRO_SHM")

    def test_should_share_thresholds(self, monkeypatch):
        big = big_graph()
        assert 2 * 8 * big.n_edges >= AUTO_THRESHOLD_BYTES
        assert should_share(big)
        assert not should_share(SMALL_GRAPH)
        monkeypatch.setattr(shm_module, "AUTO_THRESHOLD_BYTES", 0)
        assert should_share(SMALL_GRAPH)
        assert not should_share(Graph(4))  # empty: nothing to map
        monkeypatch.setenv("REPRO_SHM", "off")
        assert not should_share(big)


class TestShareGraphLifecycle:
    def test_segment_published_and_released(self):
        graph = big_graph()
        with share_graph(graph) as shared:
            assert shared is graph
            assert graph._shm is not None
            name, n_nodes, n_edges = graph._shm
            assert (n_nodes, n_edges) == (graph.n_nodes, graph.n_edges)
            assert live_segments() == (name,)
        assert graph._shm is None
        assert live_segments() == ()

    def test_below_threshold_is_untouched(self):
        with share_graph(SMALL_GRAPH):
            assert SMALL_GRAPH._shm is None
            assert live_segments() == ()

    def test_nested_share_is_a_no_op(self):
        graph = big_graph()
        with share_graph(graph):
            first = graph._shm
            with share_graph(graph):
                assert graph._shm == first
                assert live_segments() == (first[0],)
            # The inner exit must not tear down the outer session.
            assert graph._shm == first
            assert live_segments() == (first[0],)

    def test_pickle_reduces_to_token_and_roundtrips(self):
        graph = big_graph()
        plain = len(pickle.dumps(graph))
        with share_graph(graph):
            payload = pickle.dumps(graph)
            assert len(payload) < 512 < plain
            clone = pickle.loads(payload)
            assert clone._shm is None  # tokens never propagate
            assert clone.n_edges == graph.n_edges
            for got, want in zip(clone.edge_arrays, graph.edge_arrays):
                np.testing.assert_array_equal(got, want)
            # Re-pickling an attached clone ships the arrays by value.
            assert len(pickle.dumps(clone)) >= plain // 2

    def test_exception_inside_session_still_releases(self):
        graph = big_graph()
        with pytest.raises(RuntimeError, match="boom"):
            with share_graph(graph):
                assert live_segments() != ()
                raise RuntimeError("boom")
        assert graph._shm is None
        assert live_segments() == ()


class TestEngineIntegration:
    def test_serial_runs_never_share(self):
        report = run_trials(_specs(big_graph()), seed=0, n_jobs=1)
        # Serial trials see the original in-process graph: no attachments.
        assert [r[3] for r in report.results] == [0, 0, 0, 0]

    def test_pool_run_attaches_and_releases(self):
        graph = big_graph()
        serial = run_trials(_specs(graph), seed=0, n_jobs=1)
        pooled = run_trials(_specs(graph), seed=0, n_jobs=2)
        # Bit-identical results; every worker saw exactly one attachment.
        assert [r[:3] for r in pooled.results] == [r[:3] for r in serial.results]
        assert all(r[3] == 1 for r in pooled.results)
        assert graph._shm is None

    def test_pool_run_with_sharing_off(self, monkeypatch):
        monkeypatch.setenv("REPRO_SHM", "off")
        report = run_trials(_specs(big_graph()), seed=0, n_jobs=2)
        assert all(r[3] == 0 for r in report.results)

    def test_small_graph_forced_on(self, monkeypatch):
        monkeypatch.setattr(shm_module, "AUTO_THRESHOLD_BYTES", 0)
        report = run_trials(_specs(SMALL_GRAPH), seed=0, n_jobs=2)
        assert all(r[3] == 1 for r in report.results)
        assert all(r[1] == SMALL_GRAPH.n_edges for r in report.results)

    def test_distinct_graphs_get_distinct_segments(self):
        first = big_graph()
        second = star_graph(BIG_EDGES + 2)
        specs = [
            TrialSpec(fn=graph_trial, params={"graph": g, "scale": 1}, index=i)
            for i, g in enumerate((first, second, first, second))
        ]
        report = run_trials(specs, seed=0, n_jobs=2)
        sizes = [r[1] for r in report.results]
        assert sizes == [BIG_EDGES, BIG_EDGES + 1, BIG_EDGES, BIG_EDGES + 1]


class TestPoolSelfHealing:
    def test_worker_crash_does_not_leak_segments(self):
        """PR 7's scenario: a worker dies mid-run, the pool self-heals and
        replacement workers re-attach by name — the parent's exit is
        still the single release point, so nothing leaks."""
        graph = big_graph()
        clean = run_trials(_specs(graph, count=6), seed=0, n_jobs=2)
        report = run_trials(
            _specs(graph, count=6), seed=0, n_jobs=2, backoff=0,
            faults="worker_crash:nth=2",
        )
        assert report.pool_restarts >= 1
        assert [r[:3] for r in report.results] == [r[:3] for r in clean.results]
        assert graph._shm is None
        assert live_segments() == ()


def interrupting_trial(rng, graph=None, boom=False):
    """Raises KeyboardInterrupt in the worker when ``boom`` is set."""
    if boom:
        raise KeyboardInterrupt
    u, v = graph.edge_arrays
    return int(u.sum() + v.sum())


class TestInterruptCleanup:
    """Ctrl-C mid-run must not leak published segments.

    A KeyboardInterrupt surfacing from a worker unwinds ``run_trials``
    through the pool-session ExitStack, which is the single release
    point for shared graphs — the ``leak_check`` fixture then audits
    both the module bookkeeping and ``/dev/shm`` itself.
    """

    def test_keyboard_interrupt_mid_run_releases_segments(self):
        graph = big_graph()
        specs = [
            TrialSpec(
                fn=interrupting_trial,
                params={"graph": graph, "boom": index == 1},
                index=index,
            )
            for index in range(4)
        ]
        with pytest.raises(KeyboardInterrupt):
            run_trials(specs, seed=0, n_jobs=2)
        shutdown_pool()
        assert live_segments() == ()
