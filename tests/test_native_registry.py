"""Thread safety of :class:`repro.native.registry.NativeKernel` probes."""

from __future__ import annotations

import os
import threading
import time

from repro.native.registry import NativeKernel


class CountingKernel(NativeKernel):
    """A kernel whose cext probe only counts its calls (no compiler)."""

    def __init__(self) -> None:
        super().__init__(
            name="probe-count",
            reference="numpy",
            c_source="",
            c_symbol="",
            c_restype=None,
            c_argtypes=(),
            smoke_test=lambda kernel: None,
        )
        self.probes = 0

    def _probe_cext(self):
        self.probes += 1
        time.sleep(0.05)  # a slow compile widens any race window
        return lambda *args: 0


def _race(kernel: NativeKernel, call, n_threads: int = 8) -> list:
    barrier = threading.Barrier(n_threads)
    results = [None] * n_threads

    def worker(slot: int) -> None:
        barrier.wait()
        results[slot] = call()

    threads = [threading.Thread(target=worker, args=(i,)) for i in range(n_threads)]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()
    return results


def test_racing_first_callers_probe_once():
    kernel = CountingKernel()
    results = _race(kernel, lambda: kernel.available("cext"))
    assert results == [True] * 8
    assert kernel.probes == 1
    assert set(kernel.states) == {"cext"}


def test_a_failed_probe_is_remembered_once():
    kernel = CountingKernel()

    def failing_probe():
        kernel.probes += 1
        time.sleep(0.05)
        raise RuntimeError("no compiler")

    kernel._probe_cext = failing_probe
    results = _race(kernel, lambda: kernel.error("cext"))
    assert results == ["no compiler"] * 8
    assert kernel.probes == 1


def test_a_fork_during_a_probe_does_not_deadlock_the_child():
    """A pool worker forked while another thread holds a probe lock gets
    a fresh lock, so its own first probe runs instead of waiting forever."""
    kernel = CountingKernel()
    kernel._probe_lock.acquire()  # a parent thread mid-probe at the fork
    try:
        pid = os.fork()
        if pid == 0:  # the child: probe, then report through the exit code
            code = 1
            try:
                code = 0 if kernel.available("cext") else 1
            finally:
                os._exit(code)
        deadline = time.monotonic() + 10.0
        while time.monotonic() < deadline:
            done, status = os.waitpid(pid, os.WNOHANG)
            if done:
                break
            time.sleep(0.01)
        else:
            os.kill(pid, 9)
            os.waitpid(pid, 0)
            raise AssertionError("the forked child deadlocked on the probe lock")
        assert os.waitstatus_to_exitcode(status) == 0
    finally:
        kernel._probe_lock.release()
