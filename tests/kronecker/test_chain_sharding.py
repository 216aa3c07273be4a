"""How a multichain run shards its chains over threads.

On the cext engine :meth:`MultiChainSampler.run` cuts its S chains into
``min(threads, S)`` contiguous ranges (:func:`shard_bounds`) and makes
one kernel call per range: the first range on the calling
thread, each other range on a short-lived thread of its own.  The
equivalence suites pin that the results are bit-identical for any
thread count; this module pins the sharding itself:

* the ranges cover ``[0, S)`` once and in order, one kernel call each,
  and a second range runs on a second thread;
* ``threads > S`` is capped at S, and a one-chain run starts no thread;
* a failed ``Thread.start`` or a failed call on another thread is
  re-raised only after every started thread has joined, and no thread
  outlives ``run``.

Every test starts at most a few threads.
"""

from __future__ import annotations

import functools
import threading
import time

import numpy as np
import pytest

from repro.kronecker.initiator import Initiator
from repro.kronecker.likelihood import MultiChainSampler
from repro.kronecker.sampling import sample_skg
from repro.native import chain as native_chain
from repro.native.chain import MULTICHAIN_KERNEL
from repro.native.registry import shard_bounds

pytestmark = pytest.mark.skipif(
    not MULTICHAIN_KERNEL.available("cext"),
    reason=f"cext backend unavailable: {MULTICHAIN_KERNEL.error('cext')}",
)

THETAS = (
    Initiator(0.9, 0.5, 0.2),
    Initiator(0.99, 0.45, 0.25),
    Initiator(0.6, 0.6, 0.6),
)


@functools.lru_cache(maxsize=None)
def _graph():
    return sample_skg(Initiator(0.99, 0.45, 0.25), 6, seed=11), 6


def _sampler(n_chains: int, threads: int) -> MultiChainSampler:
    graph, k = _graph()
    thetas = [THETAS[s % 3] for s in range(n_chains)]
    return MultiChainSampler(graph, k, thetas, backend="cext", threads=threads)


def _rngs(n_chains: int) -> list[np.random.Generator]:
    return [np.random.default_rng(40 + s) for s in range(n_chains)]


@pytest.fixture
def run_calls(monkeypatch):
    """The run-mode kernel calls, as ``(c_begin, c_end, thread ident)``,
    recorded once each call returns.  ``slow[(c_begin, c_end)]`` delays
    that range's calls by the given seconds; ``fail`` holds the ranges
    whose calls raise."""
    kernel = MULTICHAIN_KERNEL.kernel("cext")
    calls: list[tuple[int, int, int]] = []
    slow: dict[tuple[int, int], float] = {}
    fail: set[tuple[int, int]] = set()

    def recorded(*args):
        if args[0] != native_chain._RUN:
            return kernel(*args)
        bounds = tuple(args[-2:])
        time.sleep(slow.get(bounds, 0.0))
        if bounds in fail:
            raise RuntimeError(f"chain range {bounds} failed")
        result = kernel(*args)
        calls.append((*bounds, threading.get_ident()))
        return result

    monkeypatch.setitem(MULTICHAIN_KERNEL.states, "cext", (recorded, None))
    recorded.calls, recorded.slow, recorded.fail = calls, slow, fail
    return recorded


@pytest.fixture
def starts(monkeypatch):
    """Every thread ``Thread.start`` launched; ``failing_after`` makes the
    start after that many successful ones raise."""
    launched: list[threading.Thread] = []
    real_start = threading.Thread.start
    state = {"failing_after": None}

    def start(thread):
        if state["failing_after"] is not None and len(launched) >= state["failing_after"]:
            raise RuntimeError("can't start new thread")
        real_start(thread)
        launched.append(thread)

    monkeypatch.setattr(threading.Thread, "start", start)
    return launched, state


class TestShardBounds:
    @pytest.mark.parametrize("count", (0, 1, 2, 5, 64))
    @pytest.mark.parametrize("shards", (1, 2, 3, 8))
    def test_contiguous_cover_in_order(self, count, shards):
        bounds = shard_bounds(count, shards)
        assert len(bounds) == max(1, min(shards, count))
        assert bounds[0][0] == 0 and bounds[-1][1] == count
        for (_, end), (begin, _) in zip(bounds, bounds[1:]):
            assert end == begin
        sizes = [end - begin for begin, end in bounds]
        assert max(sizes) - min(sizes) <= 1
        assert count == 0 or min(sizes) >= 1

    def test_bounds_are_count_times_r_over_shards(self):
        assert shard_bounds(5, 2) == [(0, 2), (2, 5)]
        assert shard_bounds(3, 8) == [(0, 1), (1, 2), (2, 3)]
        assert shard_bounds(7, 1) == [(0, 7)]


class TestSharding:
    def test_one_call_per_range_and_a_second_thread(self, run_calls, starts):
        launched, _ = starts
        sampler = _sampler(5, threads=2)
        sampler.run(300, _rngs(5))
        assert sorted(call[:2] for call in run_calls.calls) == [(0, 2), (2, 5)]
        threads = {call[:2]: call[2] for call in run_calls.calls}
        assert threads[(0, 2)] == threading.get_ident()
        assert threads[(2, 5)] != threading.get_ident()
        assert len(launched) == 1 and not launched[0].is_alive()

    def test_threads_beyond_the_chain_count_are_capped(self, run_calls, starts):
        launched, _ = starts
        sampler = _sampler(3, threads=8)
        sampler.run(200, _rngs(3))
        assert sorted(call[:2] for call in run_calls.calls) == [(0, 1), (1, 2), (2, 3)]
        assert len(launched) == 2
        assert not any(thread.is_alive() for thread in launched)

    def test_one_chain_starts_no_thread(self, run_calls, starts):
        launched, state = starts
        state["failing_after"] = 0  # any start would raise
        sampler = _sampler(1, threads=4)
        sampler.run(200, _rngs(1), n_samples=2, sample_spacing=50)
        assert run_calls.calls == [(0, 1, threading.get_ident())]
        assert launched == []

    def test_sharded_run_equals_the_serial_run(self):
        states = []
        for threads in (1, 2):
            sampler = _sampler(5, threads)
            snapshots = sampler.run(300, _rngs(5), n_samples=3, sample_spacing=40)
            states.append((snapshots, sampler._sigma.copy(), list(sampler.accepted)))
        np.testing.assert_array_equal(states[0][0], states[1][0])
        np.testing.assert_array_equal(states[0][1], states[1][1])
        assert states[0][2] == states[1][2]


class TestFailures:
    def test_failed_start_joins_the_started_threads_first(self, run_calls, starts):
        """The second start raises while the first started thread is still
        in its (slowed) kernel call: ``run`` re-raises only once that
        thread has finished its call and joined."""
        launched, state = starts
        state["failing_after"] = 1
        run_calls.slow[(1, 2)] = 0.2
        sampler = _sampler(3, threads=3)
        with pytest.raises(RuntimeError, match="can't start new thread"):
            sampler.run(200, _rngs(3))
        assert len(launched) == 1 and not launched[0].is_alive()
        assert [call[:2] for call in run_calls.calls] == [(1, 2)]

    def test_a_failed_call_on_another_thread_is_raised_by_run(self, run_calls, starts):
        launched, _ = starts
        run_calls.fail.add((2, 5))
        sampler = _sampler(5, threads=2)
        with pytest.raises(RuntimeError, match=r"chain range \(2, 5\) failed"):
            sampler.run(300, _rngs(5))
        assert len(launched) == 1 and not launched[0].is_alive()
        assert [call[:2] for call in run_calls.calls] == [(0, 2)]
