"""Concurrency primitives of the serve layer.

Four small, self-contained pieces, each guarding one robustness
promise:

* :class:`AdmissionGate` — bounded admission with explicit backpressure.
  At most ``capacity`` work requests are in flight; an arrival beyond
  that is **rejected immediately** (the HTTP layer answers 429 +
  ``Retry-After``) instead of queueing unboundedly — under overload the
  server stays responsive and callers get an honest signal to back off.
  The gate also tracks in-flight counts for ``/stats`` and lets the
  drain path wait (bounded) for the last request to finish.
* :class:`CircuitBreaker` — trips open after N *consecutive*
  pool-breakage events.  While open, work requests fail fast with 503
  (no queue time wasted on a broken pool) and ``/readyz`` drives a
  single-flight recovery probe; a successful probe closes the breaker.
* :class:`KeyedLocks` — per-key mutual exclusion.  Lock objects are
  refcounted and dropped when idle, so the table stays bounded by live
  concurrency, not by the key universe.
* :class:`SingleFlightMemo` — the one memo behind both fitted models and
  response bodies: memory, then a keyed lock, then disk (the optional
  :class:`~repro.runtime.cache.TrialCache`), then ``compute``.
  Concurrent identical requests serialize on the key, so the work — and
  for private fits, the **budget charge** — happens once, with the
  waiters served from memory.  It counts where each value came from
  (``memory`` / ``disk`` / ``computed``) for ``/stats``.  Memory is an
  LRU of ``maxsize`` entries: a recall refreshes its entry, and an
  insert past the bound evicts the least recent one, whose next request
  finds it on disk or computes it again.
"""

from __future__ import annotations

import threading
import time
from collections import OrderedDict
from contextlib import contextmanager
from typing import Any, Callable, Iterator

from repro.runtime.cache import TrialCache
from repro.utils.validation import check_integer

__all__ = ["AdmissionGate", "CircuitBreaker", "KeyedLocks", "SingleFlightMemo"]


class AdmissionGate:
    """Bounded in-flight work admission with rejection, not queueing."""

    def __init__(self, capacity: int) -> None:
        self.capacity = check_integer(capacity, "capacity", minimum=1)
        self._condition = threading.Condition()
        self._in_flight = 0
        self._peak = 0
        self._rejected = 0

    def try_enter(self) -> bool:
        """Claim an admission slot; ``False`` (count it) when full."""
        with self._condition:
            if self._in_flight >= self.capacity:
                self._rejected += 1
                return False
            self._in_flight += 1
            self._peak = max(self._peak, self._in_flight)
            return True

    def leave(self) -> None:
        """Release a slot claimed by :meth:`try_enter`."""
        with self._condition:
            if self._in_flight <= 0:
                raise RuntimeError("AdmissionGate.leave() without a matching enter")
            self._in_flight -= 1
            if self._in_flight == 0:
                self._condition.notify_all()

    def wait_idle(self, timeout: float) -> bool:
        """Block until no request is in flight (drain); ``False`` on
        expiry with work still running."""
        deadline = time.monotonic() + timeout
        with self._condition:
            while self._in_flight > 0:
                remaining = deadline - time.monotonic()
                if remaining <= 0:
                    return False
                self._condition.wait(remaining)
            return True

    @property
    def in_flight(self) -> int:
        with self._condition:
            return self._in_flight

    def snapshot(self) -> dict:
        """Counters for ``/stats``."""
        with self._condition:
            return {
                "limit": self.capacity,
                "in_flight": self._in_flight,
                "peak_in_flight": self._peak,
                "rejected": self._rejected,
            }


class CircuitBreaker:
    """Trips after ``threshold`` consecutive pool breakages; a probe
    (driven by ``/readyz``) closes it again.

    ``record_breakage`` / ``record_success`` are called from the work
    path; ``begin_probe`` / ``end_probe`` bracket the single-flight
    recovery attempt — only one probe runs at a time, and while it runs
    other ``/readyz`` calls keep answering 503 without piling on.
    """

    def __init__(self, threshold: int) -> None:
        self.threshold = check_integer(threshold, "threshold", minimum=1)
        self._lock = threading.Lock()
        self._consecutive = 0
        self._breakages = 0
        self._trips = 0
        self._probes = 0
        self._open = False
        self._probing = False

    def record_breakage(self) -> None:
        """One pool-breakage event; trips the breaker at the threshold."""
        with self._lock:
            self._breakages += 1
            self._consecutive += 1
            if not self._open and self._consecutive >= self.threshold:
                self._open = True
                self._trips += 1

    def record_success(self) -> None:
        """A work item completed on the pool; resets the streak."""
        with self._lock:
            self._consecutive = 0

    @property
    def is_open(self) -> bool:
        with self._lock:
            return self._open

    @property
    def state(self) -> str:
        with self._lock:
            if not self._open:
                return "closed"
            return "probing" if self._probing else "open"

    def begin_probe(self) -> bool:
        """Claim the single probe slot; ``False`` if closed or one is
        already running."""
        with self._lock:
            if not self._open or self._probing:
                return False
            self._probing = True
            self._probes += 1
            return True

    def end_probe(self, success: bool) -> None:
        """Finish the probe; success closes the breaker."""
        with self._lock:
            self._probing = False
            if success:
                self._open = False
                self._consecutive = 0

    def snapshot(self) -> dict:
        """Counters for ``/stats``."""
        with self._lock:
            return {
                "state": "closed" if not self._open else (
                    "probing" if self._probing else "open"
                ),
                "threshold": self.threshold,
                "consecutive_breakages": self._consecutive,
                "pool_breakages": self._breakages,
                "trips": self._trips,
                "probes": self._probes,
            }


class KeyedLocks:
    """Refcounted per-key mutual exclusion (single-flight execution)."""

    def __init__(self) -> None:
        self._master = threading.Lock()
        self._locks: dict[str, tuple[threading.Lock, int]] = {}

    @contextmanager
    def lock(self, key: str) -> Iterator[None]:
        with self._master:
            entry, holders = self._locks.get(key, (None, 0))
            if entry is None:
                entry = threading.Lock()
            self._locks[key] = (entry, holders + 1)
        try:
            with entry:
                yield
        finally:
            with self._master:
                entry, holders = self._locks[key]
                if holders <= 1:
                    del self._locks[key]
                else:
                    self._locks[key] = (entry, holders - 1)

    def __len__(self) -> int:
        with self._master:
            return len(self._locks)


class SingleFlightMemo:
    """Memory → keyed lock → memory → disk → compute, once per key.

    A computed value is stored to disk, and every value found on disk or
    computed is stored to memory, before the key's lock is released, so
    a waiter on the same key finds it in memory unless ``maxsize`` other
    keys were stored in between: the ``disk`` count stays exact when
    identical requests arrive together after a restart.  A ``compute``
    that raises stores and counts nothing; the next call for the key
    computes again.  Memory holds at most ``maxsize`` values, evicting
    the least recently stored or recalled.
    """

    def __init__(self, cache: TrialCache | None, maxsize: int) -> None:
        self._cache = cache
        self.maxsize = check_integer(maxsize, "maxsize", minimum=1)
        self._memory: OrderedDict[str, Any] = OrderedDict()
        self._lock = threading.Lock()
        self._locks = KeyedLocks()
        self._counts = {"memory": 0, "disk": 0, "computed": 0}

    def get(self, key: str, compute: Callable[[], Any]) -> tuple[Any, str]:
        """``(value, source)`` for ``key``; ``source`` is ``memory``,
        ``disk`` or ``computed``."""
        found, value = self._recall(key)
        if found:
            return value, "memory"
        with self._locks.lock(key):
            found, value = self._recall(key)
            if found:
                return value, "memory"
            source = "disk"
            found, value = (False, None) if self._cache is None else self._cache.load(key)
            if not found:
                source = "computed"
                value = compute()
                if self._cache is not None:
                    self._cache.store(key, value)
            with self._lock:
                self._memory[key] = value
                if len(self._memory) > self.maxsize:
                    self._memory.popitem(last=False)
                self._counts[source] += 1
            return value, source

    def _recall(self, key: str) -> tuple[bool, Any]:
        with self._lock:
            if key not in self._memory:
                return False, None
            self._memory.move_to_end(key)
            self._counts["memory"] += 1
            return True, self._memory[key]

    def counts(self) -> dict[str, int]:
        """How many values each source has served so far."""
        with self._lock:
            return dict(self._counts)

    def __len__(self) -> int:
        with self._lock:
            return len(self._memory)
