""":class:`repro.native.registry.NativeKernel`: one engine, loud failure.

Each kernel family has exactly one runtime engine, its C kernel.  A host
that cannot build one gets a :class:`KernelUnavailableError` naming the
reason at the family's first use, never a slower engine; probes are
thread-safe, memoized and fork-safe.
"""

from __future__ import annotations

import os
import threading
import time

import numpy as np
import pytest

from repro.errors import KernelUnavailableError, ReproError, ValidationError
from repro.graphs import Graph
from repro.graphs.generators import complete_graph
from repro.kronecker.initiator import Initiator
from repro.kronecker.kronmom import KronMomEstimator
from repro.kronecker.likelihood import MultiChainSampler
from repro.kronecker.sampling import sample_skg
from repro.native import registry
from repro.native.chain import (
    MULTICHAIN_KERNEL,
    resolve_chain_backend,
    resolve_multichain_backend,
)
from repro.native.counting import COUNTING_KERNEL
from repro.native.isotonic import ISOTONIC_KERNEL
from repro.native.kronmom import KRONMOM_KERNEL
from repro.native.registry import NativeKernel
from repro.native.sampling import SAMPLER_KERNEL, resolve_sampler_backend
from repro.privacy.isotonic import isotonic_regression
from repro.stats.counts import MatchingStatistics
from repro.stats.kernels import resolve_kernel_backend, triangle_pass


class CountingKernel(NativeKernel):
    """A kernel whose probe only counts its calls (no compiler)."""

    def __init__(self) -> None:
        super().__init__(
            name="probe-count",
            c_source="",
            c_symbol="",
            c_restype=None,
            c_argtypes=(),
            smoke_test=lambda kernel: None,
        )
        self.probes = 0

    def _probe(self):
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


def _failure(kernel: NativeKernel) -> str | None:
    try:
        kernel.kernel()
    except KernelUnavailableError as error:
        return str(error)
    return None


def test_racing_first_callers_probe_once():
    kernel = CountingKernel()
    results = _race(kernel, lambda: kernel.kernel() is kernel.kernel())
    assert results == [True] * 8
    assert kernel.probes == 1
    assert kernel.state[1] is None


def test_a_failed_probe_is_remembered_once():
    kernel = CountingKernel()

    def failing_probe():
        kernel.probes += 1
        time.sleep(0.05)
        raise RuntimeError("no compiler")

    kernel._probe = failing_probe
    results = _race(kernel, lambda: _failure(kernel))
    assert results == ["the probe-count kernel is unavailable: no compiler"] * 8
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
                code = 0 if _failure(kernel) is None else 1
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


# Each family's kernel, and a first use of it through the runtime.
FAMILIES = {
    "counting": (COUNTING_KERNEL, lambda: triangle_pass(complete_graph(4))),
    "multichain": (
        MULTICHAIN_KERNEL,
        lambda: MultiChainSampler(Graph(4, [(0, 1)]), 2, [Initiator(0.9, 0.5, 0.2)]),
    ),
    "sampler": (SAMPLER_KERNEL, lambda: sample_skg(Initiator(0.9, 0.5, 0.2), 4, seed=0)),
    "isotonic": (ISOTONIC_KERNEL, lambda: isotonic_regression(np.array([2.0, 1.0]))),
    "kronmom": (
        KRONMOM_KERNEL,
        lambda: KronMomEstimator().fit_statistics(MatchingStatistics(9.0, 20.0, 30.0, 1.0), 4),
    ),
}


@pytest.mark.parametrize("family", sorted(FAMILIES))
def test_a_missing_compiler_fails_loudly_at_first_use(monkeypatch, family):
    """No compiler: the family's first use raises the structured error
    naming the compiler's message, and so does every later use; nothing
    falls back to a Python engine."""
    kernel, first_use = FAMILIES[family]
    monkeypatch.delenv("CC", raising=False)
    monkeypatch.setattr(registry.shutil, "which", lambda name: None)
    monkeypatch.setattr(kernel, "state", None)  # as in a process that has not probed
    message = f"the {kernel.name} kernel is unavailable: no C compiler found"
    for _ in range(2):
        with pytest.raises(KernelUnavailableError, match=message) as raised:
            first_use()
    assert isinstance(raised.value, (ReproError, RuntimeError))
    assert not isinstance(raised.value, ValidationError)  # not the caller's fault


def test_resolvers_load_their_kernel_and_name_it():
    for resolve in (resolve_kernel_backend, resolve_multichain_backend,
                    resolve_chain_backend, resolve_sampler_backend):
        assert resolve() == "cext"
