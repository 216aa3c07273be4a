"""Tests for the serve concurrency primitives."""

from __future__ import annotations

import sys
import threading
import time

import pytest

from repro.runtime.cache import TrialCache
from repro.serve.admission import (
    AdmissionGate,
    CircuitBreaker,
    KeyedLocks,
    SingleFlightMemo,
)


class TestAdmissionGate:
    def test_admits_up_to_capacity_then_rejects(self):
        gate = AdmissionGate(2)
        assert gate.try_enter()
        assert gate.try_enter()
        assert not gate.try_enter()
        gate.leave()
        assert gate.try_enter()
        snapshot = gate.snapshot()
        assert snapshot["limit"] == 2
        assert snapshot["in_flight"] == 2
        assert snapshot["peak_in_flight"] == 2
        assert snapshot["rejected"] == 1

    def test_unmatched_leave_raises(self):
        gate = AdmissionGate(1)
        with pytest.raises(RuntimeError):
            gate.leave()

    def test_wait_idle_times_out_with_work_in_flight(self):
        gate = AdmissionGate(1)
        gate.try_enter()
        start = time.monotonic()
        assert not gate.wait_idle(0.05)
        assert time.monotonic() - start >= 0.05

    def test_wait_idle_wakes_on_last_leave(self):
        gate = AdmissionGate(2)
        gate.try_enter()

        def leaver():
            time.sleep(0.05)
            gate.leave()

        thread = threading.Thread(target=leaver)
        thread.start()
        assert gate.wait_idle(5.0)
        thread.join()
        assert gate.in_flight == 0

    def test_rejections_do_not_consume_slots(self):
        gate = AdmissionGate(1)
        gate.try_enter()
        for _ in range(5):
            assert not gate.try_enter()
        gate.leave()
        assert gate.in_flight == 0
        assert gate.snapshot()["rejected"] == 5


class TestCircuitBreaker:
    def test_trips_after_consecutive_breakages(self):
        breaker = CircuitBreaker(3)
        breaker.record_breakage()
        breaker.record_breakage()
        assert not breaker.is_open
        breaker.record_breakage()
        assert breaker.is_open
        assert breaker.snapshot()["trips"] == 1

    def test_success_resets_the_streak(self):
        breaker = CircuitBreaker(2)
        breaker.record_breakage()
        breaker.record_success()
        breaker.record_breakage()
        assert not breaker.is_open

    def test_probe_is_single_flight(self):
        breaker = CircuitBreaker(1)
        breaker.record_breakage()
        assert breaker.is_open
        assert breaker.begin_probe()
        assert not breaker.begin_probe()  # one at a time
        assert breaker.state == "probing"
        breaker.end_probe(success=False)
        assert breaker.is_open
        assert breaker.begin_probe()  # can try again
        breaker.end_probe(success=True)
        assert not breaker.is_open
        assert breaker.state == "closed"

    def test_probe_refused_while_closed(self):
        breaker = CircuitBreaker(1)
        assert not breaker.begin_probe()


class TestKeyedLocks:
    def test_serializes_per_key(self):
        locks = KeyedLocks()
        order = []

        def worker(tag):
            with locks.lock("model-a"):
                order.append(f"{tag}-in")
                time.sleep(0.02)
                order.append(f"{tag}-out")

        threads = [threading.Thread(target=worker, args=(t,)) for t in "xy"]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        # Strict nesting: whoever entered first left before the other
        # entered.
        assert order[0].endswith("-in") and order[1] == order[0].replace("-in", "-out")

    def test_distinct_keys_run_concurrently(self):
        locks = KeyedLocks()
        started = threading.Barrier(2, timeout=5.0)

        def worker(key):
            with locks.lock(key):
                started.wait()  # both inside their locks at once

        threads = [
            threading.Thread(target=worker, args=(key,)) for key in ("a", "b")
        ]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()

    def test_table_empties_when_idle(self):
        locks = KeyedLocks()
        with locks.lock("k"):
            assert len(locks) == 1
        assert len(locks) == 0


def _run_together(count, call):
    """Run ``call()`` on ``count`` threads at once, switching threads
    often so a lost update would show; return their results."""
    barrier = threading.Barrier(count, timeout=5.0)
    results = [None] * count

    def worker(slot):
        barrier.wait()
        results[slot] = call()

    threads = [threading.Thread(target=worker, args=(slot,)) for slot in range(count)]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=10.0)
    finally:
        sys.setswitchinterval(interval)
    assert not any(thread.is_alive() for thread in threads)
    return results


class TestSingleFlightMemo:
    def test_concurrent_callers_on_one_key_compute_once(self):
        memo = SingleFlightMemo(None, 8)
        calls = []

        def compute():
            calls.append(1)
            time.sleep(0.05)  # hold the key while the others arrive
            return {"value": 7}

        results = _run_together(8, lambda: memo.get("k", compute))
        assert len(calls) == 1
        assert all(value is results[0][0] for value, _source in results)
        assert sorted(source for _value, source in results) == ["computed"] + ["memory"] * 7
        assert memo.counts() == {"memory": 7, "disk": 0, "computed": 1}
        assert len(memo) == 1

    def test_disk_hit_never_computes(self, tmp_path):
        cache = TrialCache(tmp_path)
        cache.store("ab" * 32, {"value": 3})
        memo = SingleFlightMemo(cache, 8)

        def compute():
            raise AssertionError("a disk hit must not compute")

        assert memo.get("ab" * 32, compute) == ({"value": 3}, "disk")
        assert memo.get("ab" * 32, compute) == ({"value": 3}, "memory")
        assert memo.counts() == {"memory": 1, "disk": 1, "computed": 0}

    def test_restart_counts_one_disk_hit_under_concurrency(self, tmp_path):
        cache = TrialCache(tmp_path)
        SingleFlightMemo(cache, 8).get("cd" * 32, lambda: "fitted")
        restarted = SingleFlightMemo(TrialCache(tmp_path), 8)
        results = _run_together(6, lambda: restarted.get("cd" * 32, lambda: "refit"))
        assert {value for value, _source in results} == {"fitted"}
        assert restarted.counts() == {"memory": 5, "disk": 1, "computed": 0}

    def test_compute_that_raises_stores_nothing(self, tmp_path):
        cache = TrialCache(tmp_path)
        memo = SingleFlightMemo(cache, 8)

        def failing():
            raise RuntimeError("fit failed")

        with pytest.raises(RuntimeError, match="fit failed"):
            memo.get("ef" * 32, failing)
        assert len(memo) == 0
        assert len(cache) == 0
        assert memo.counts() == {"memory": 0, "disk": 0, "computed": 0}
        assert memo.get("ef" * 32, lambda: 5) == (5, "computed")
        assert len(cache) == 1

    def test_counts_and_len_track_distinct_keys(self):
        memo = SingleFlightMemo(None, 8)
        for key in ("a", "b", "a", "c", "a"):
            memo.get(key, lambda key=key: key.upper())
        assert memo.counts() == {"memory": 2, "disk": 0, "computed": 3}
        assert len(memo) == 3

    def test_insert_past_the_bound_evicts_the_least_recent(self):
        memo = SingleFlightMemo(None, 2)
        for key in ("a", "b", "c"):
            memo.get(key, lambda key=key: key.upper())
        assert len(memo) == 2
        assert memo.get("b", lambda: "recomputed") == ("B", "memory")
        assert memo.get("c", lambda: "recomputed") == ("C", "memory")
        assert memo.get("a", lambda: "A again") == ("A again", "computed")
        assert memo.counts() == {"memory": 2, "disk": 0, "computed": 4}

    def test_a_recall_refreshes_recency(self):
        memo = SingleFlightMemo(None, 2)
        memo.get("a", lambda: 1)
        memo.get("b", lambda: 2)
        assert memo.get("a", lambda: "evicted") == (1, "memory")
        memo.get("c", lambda: 3)  # evicts b, the least recent, not a
        assert memo.get("a", lambda: "evicted") == (1, "memory")
        assert memo.get("b", lambda: "refit") == ("refit", "computed")

    def test_an_evicted_key_recomputes_once_under_concurrency(self):
        memo = SingleFlightMemo(None, 1)
        memo.get("k", lambda: "first")
        memo.get("other", lambda: "evicts k")
        calls = []

        def compute():
            calls.append(1)
            time.sleep(0.05)  # hold the key while the others arrive
            return "again"

        results = _run_together(8, lambda: memo.get("k", compute))
        assert len(calls) == 1
        assert sorted(source for _value, source in results) == ["computed"] + ["memory"] * 7
        assert {value for value, _source in results} == {"again"}
        assert len(memo) == 1

    def test_the_disk_layer_serves_an_evicted_key(self, tmp_path):
        memo = SingleFlightMemo(TrialCache(tmp_path), 1)
        memo.get("ab" * 32, lambda: {"value": 1})
        memo.get("cd" * 32, lambda: {"value": 2})

        def compute():
            raise AssertionError("an evicted key on disk must not compute")

        assert memo.get("ab" * 32, compute) == ({"value": 1}, "disk")
        assert memo.get("cd" * 32, lambda: "x") == ({"value": 2}, "disk")
        assert memo.counts() == {"memory": 0, "disk": 2, "computed": 2}

    def test_bound_must_be_positive(self):
        with pytest.raises(ValueError, match="maxsize"):
            SingleFlightMemo(None, 0)
