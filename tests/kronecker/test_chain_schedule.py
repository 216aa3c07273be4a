"""Scheduled runs of the multichain sampler: the KronFit iteration call.

One :meth:`MultiChainSampler.run` with ``n_samples`` / ``sample_spacing``
runs a warm-up and P sample segments and returns the histogram after each
sample segment; on the cext engine that is one draw call and one run call.
This module pins the schedule to the per-segment calls it replaces, for
every backend × chain count × thread count × sample schedule:

* the snapshots equal per-segment ``run`` plus ``histograms()``, and σ,
  acceptances, touches and generator states match;
* chains may share one generator (drawn in chain order, its lock held
  once), on every backend, without deadlocking;
* the draw buffers are one set, grown to the longest run;
* the stacked log tables equal per-chain builds (and the pre-stacking
  formula) for random Θ, k and S;
* a KronFit iteration makes exactly two native calls on the cext engine.
"""

from __future__ import annotations

import functools
import threading

import numpy as np
import pytest

from repro.errors import ValidationError
from repro.kronecker.initiator import Initiator
from repro.kronecker.kronfit import KronFitEstimator
from repro.kronecker.likelihood import (
    _PARAM_CEIL,
    MultiChainSampler,
    _clamp,
    _LogTables,
)
from repro.kronecker.sampling import sample_skg
from repro.native.chain import MULTICHAIN_KERNEL
from repro.native.registry import NATIVE_BACKENDS


def _backend_params() -> list:
    params = [pytest.param("numpy")]
    for name in NATIVE_BACKENDS:
        if MULTICHAIN_KERNEL.available(name):
            params.append(pytest.param(name))
        else:
            reason = f"{name} backend unavailable: {MULTICHAIN_KERNEL.error(name)}"
            params.append(pytest.param(name, marks=pytest.mark.skip(reason=reason)))
    return params


BACKENDS = _backend_params()
THETAS = (
    Initiator(0.9, 0.5, 0.2),
    Initiator(0.99, 0.45, 0.25),
    Initiator(0.6, 0.6, 0.6),
)
WARMUP, N_SAMPLES, SPACING = 45, 3, 20
# (n_samples, spacing): KronFit-like, one-proposal segments, ragged.
SCHEDULES = ((N_SAMPLES, SPACING), (1, 1), (5, 7))


@functools.lru_cache(maxsize=None)
def _graph():
    return sample_skg(Initiator(0.99, 0.45, 0.25), 7, seed=7), 7


def _sampler(backend, n_chains, threads=1):
    graph, k = _graph()
    thetas = [THETAS[s % 3] for s in range(n_chains)]
    return MultiChainSampler(graph, k, thetas, backend=backend, threads=threads)


def _state(sampler, rngs):
    return {
        "sigma": sampler._sigma.copy(),
        "hist": sampler.histograms(),
        "accepted": list(sampler.accepted),
        "proposed": sampler.proposed,
        "touches": sampler._stats.tolist(),
        "rngs": [rng.bit_generator.state for rng in rngs],
    }


def _assert_same_state(got, want):
    np.testing.assert_array_equal(got["sigma"], want["sigma"])
    np.testing.assert_array_equal(got["hist"], want["hist"])
    assert got["accepted"] == want["accepted"]
    assert got["proposed"] == want["proposed"]
    assert got["touches"] == want["touches"]
    assert got["rngs"] == want["rngs"]


def _segmented(
    backend, n_chains, rngs, warmup=WARMUP, n_samples=N_SAMPLES, spacing=SPACING
):
    """The per-segment oracle: warm-up run, then one run per sample."""
    sampler = _sampler(backend, n_chains)
    sampler.run(warmup, rngs)
    snapshots = []
    for _ in range(n_samples):
        sampler.run(spacing, rngs)
        snapshots.append(sampler.histograms())
    return np.stack(snapshots), _state(sampler, rngs)


def _scheduled(
    backend, n_chains, rngs, threads=1, warmup=WARMUP, n_samples=N_SAMPLES, spacing=SPACING
):
    sampler = _sampler(backend, n_chains, threads)
    snapshots = sampler.run(
        warmup + n_samples * spacing, rngs, n_samples=n_samples, sample_spacing=spacing
    )
    return snapshots, _state(sampler, rngs)


class TestSchedule:
    @pytest.mark.parametrize("backend", BACKENDS)
    @pytest.mark.parametrize("n_samples, spacing", SCHEDULES)
    @pytest.mark.parametrize("threads", (1, 2))
    @pytest.mark.parametrize("n_chains", (1, 3))
    def test_snapshots_equal_per_segment_runs(
        self, n_chains, threads, n_samples, spacing, backend
    ):
        want_snapshots, want = _segmented(
            "numpy",
            n_chains,
            [np.random.default_rng(50 + s) for s in range(n_chains)],
            n_samples=n_samples,
            spacing=spacing,
        )
        snapshots, got = _scheduled(
            backend,
            n_chains,
            [np.random.default_rng(50 + s) for s in range(n_chains)],
            threads,
            n_samples=n_samples,
            spacing=spacing,
        )
        assert snapshots.shape == (n_samples, n_chains, 8, 8)
        np.testing.assert_array_equal(snapshots, want_snapshots)
        _assert_same_state(got, want)

    @pytest.mark.parametrize("backend", BACKENDS)
    def test_without_warmup(self, backend):
        want_snapshots, want = _segmented(
            "numpy", 2, [np.random.default_rng(7), np.random.default_rng(8)], warmup=0
        )
        snapshots, got = _scheduled(
            backend, 2, [np.random.default_rng(7), np.random.default_rng(8)], warmup=0
        )
        np.testing.assert_array_equal(snapshots, want_snapshots)
        _assert_same_state(got, want)

    @pytest.mark.parametrize("backend", BACKENDS)
    def test_unscheduled_run_returns_nothing(self, backend):
        sampler = _sampler(backend, 2)
        assert sampler.run(30, [np.random.default_rng(1), np.random.default_rng(2)]) is None

    @pytest.mark.parametrize(
        "n_steps, n_samples, spacing",
        [(10, 3, 4), (10, -1, 1), (10, 1, 0), (0, 1, 1)],
    )
    def test_schedules_that_do_not_fit_rejected(self, n_steps, n_samples, spacing):
        sampler = _sampler("numpy", 1)
        with pytest.raises(ValidationError, match="do not fit"):
            sampler.run(
                n_steps,
                [np.random.default_rng(0)],
                n_samples=n_samples,
                sample_spacing=spacing,
            )
        assert sampler.proposed == 0


class TestSharedGenerators:
    @pytest.mark.parametrize("backend", BACKENDS)
    @pytest.mark.parametrize("threads", (1, 2))
    def test_shared_generator_matches_numpy_without_deadlock(self, backend, threads):
        """Chains 0 and 2 draw from one Generator, in chain order.  The
        cext draw takes each distinct generator's lock once (numpy builds
        whose generator lock is not reentrant would hang on a second
        acquisition), so the run is timed out on a worker thread."""
        want_snapshots, want = _segmented(
            "numpy", 3, [g := np.random.default_rng(11), np.random.default_rng(12), g]
        )
        rngs = [shared := np.random.default_rng(11), np.random.default_rng(12), shared]
        outcome = {}
        worker = threading.Thread(
            target=lambda: outcome.update(
                result=_scheduled(backend, 3, rngs, threads)
            ),
            daemon=True,
        )
        worker.start()
        worker.join(timeout=120)
        assert not worker.is_alive(), "run deadlocked on a shared generator's lock"
        snapshots, got = outcome["result"]
        np.testing.assert_array_equal(snapshots, want_snapshots)
        _assert_same_state(got, want)
        # Released: this thread can take the lock the worker used.
        assert shared.bit_generator.lock.acquire(blocking=False)
        shared.bit_generator.lock.release()


class TestStreamBuffers:
    @pytest.mark.parametrize("backend", BACKENDS)
    def test_one_buffer_grown_to_the_longest_run(self, backend):
        sampler = _sampler(backend, 3)
        rngs = [np.random.default_rng(s) for s in range(3)]
        for n_steps in (100, 250, 40, 250, 7):
            sampler.run(n_steps, rngs)
        assert len(sampler._streams) == 3
        assert [buffer.size for buffer in sampler._streams] == [3 * 250] * 3


def _unstacked_tables(theta, k):
    """The per-Θ table formula the stacked build replaced."""
    a, b, c = _clamp(theta.a), _clamp(theta.b), _clamp(theta.c)
    z = np.arange(k + 1)[:, None]
    o = np.arange(k + 1)[None, :]
    x = k - z - o
    valid = x >= 0
    log_p = np.where(
        valid,
        z * np.log(a) + np.where(valid, x, 0) * np.log(b) + o * np.log(c),
        0.0,
    )
    p = np.where(valid, np.exp(log_p), 0.0)
    log_1mp = np.where(valid, np.log1p(-np.minimum(p, _PARAM_CEIL)), 0.0)
    return log_p, log_1mp, p


class TestStackedTables:
    @pytest.mark.parametrize("case", range(40))
    def test_rows_equal_per_chain_builds(self, case):
        rng = np.random.default_rng([2012, case])
        k = int(rng.integers(1, 22))
        n_chains = int(rng.integers(1, 65))
        # Include the clamp's edges: exact 0s and 1s.
        values = rng.choice([0.0, 1.0, 0.5], size=(n_chains, 3), p=[0.05, 0.05, 0.9])
        values = np.where(values == 0.5, rng.random((n_chains, 3)), values)
        thetas = [Initiator(*row) for row in values.tolist()]
        stacked = _LogTables.stack(thetas, k)
        assert stacked.p.shape == (n_chains, k + 1, k + 1)
        for s, theta in enumerate(thetas):
            solo = _LogTables.stack([theta], k)
            for field, reference in zip(
                ("log_p", "log_1mp", "p"), _unstacked_tables(theta, k)
            ):
                np.testing.assert_array_equal(getattr(stacked, field)[s], getattr(solo, field)[0])
                np.testing.assert_array_equal(getattr(solo, field)[0], reference)

    def test_set_thetas_writes_every_row(self):
        sampler = _sampler("numpy", 3)
        tables = sampler.set_thetas([THETAS[2], THETAS[0], THETAS[1]])
        assert sampler.thetas == [THETAS[2], THETAS[0], THETAS[1]]
        for s in range(3):
            np.testing.assert_array_equal(
                sampler._score[s], (tables.log_p[s] - tables.log_1mp[s]).ravel()
            )
            np.testing.assert_array_equal(sampler.tables[s].p, tables.p[s])
        with pytest.raises(ValidationError, match="2 thetas for 3 chains"):
            sampler.set_thetas(THETAS[:2])


@pytest.mark.skipif(
    not MULTICHAIN_KERNEL.available("cext"),
    reason=f"cext backend unavailable: {MULTICHAIN_KERNEL.error('cext')}",
)
def test_kronfit_iteration_is_two_native_calls(monkeypatch):
    kernel = MULTICHAIN_KERNEL.kernel("cext")
    modes = []

    def counted(*args):
        modes.append(args[0])
        return kernel(*args)

    monkeypatch.setitem(MULTICHAIN_KERNEL.states, "cext", (counted, None))
    graph, _ = _graph()
    KronFitEstimator(
        n_iterations=3, warmup_swaps=50, sample_spacing=10, n_starts=2, seed=1,
        backend="cext", kernel_threads=1,
    ).fit(graph)
    assert len(modes) == 6
    assert modes[0::2] != modes[1::2]
