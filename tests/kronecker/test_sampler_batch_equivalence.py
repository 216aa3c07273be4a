"""Equivalence of the batched sampler path with the per-sample oracle.

:func:`repro.kronecker.sampling.sample_skg_statistics_batch` counts S
samples of one (Θ, k) in one ``repro_sampler_batch`` call: numpy draws
each sample's class counts with one vectorised ``binomial`` over the
class table, and the kernel draws the uniforms from the sample's own
generator through its ``bitgen_t``.  This module pins that path to the
per-sample one, whose Python draw loop (``_draw_classes``) and reference
selection stay as the numpy oracle:

* batch rows equal per-seed :func:`sample_skg_statistics` and the
  oracle's ``matching_statistics(sample_skg(...))``, for every batch
  size, run split and k, including initiators with zero-probability
  classes;
* a caller's generator ends where the per-sample path leaves it;
* the portable unranking loops (the kernel compiled with the base flags
  only) emit the same keys as the build the registry loads, which uses
  BMI2 ``pdep`` where the host runs it well.
"""

from __future__ import annotations

import ctypes
import functools
from concurrent.futures import ThreadPoolExecutor

import numpy as np
import pytest

from repro.core.protocols import FixedInitiatorModel
from repro.kronecker.initiator import Initiator
from repro.kronecker.sampling import (
    _draw_classes,
    profile_class_size,
    sample_skg,
    sample_skg_statistics,
    sample_skg_statistics_batch,
)
from repro.native import registry
from repro.native import sampling as native_sampling
from repro.native.registry import NATIVE_BACKENDS, compile_shared_library
from repro.native.sampling import SAMPLER_KERNEL, draw_batch
from repro.serve.registry import _sample_work
from repro.stats.counts import matching_statistics


def _native_params() -> list:
    """One param per compiled engine; unavailable ones become visible skips."""
    params = []
    for name in NATIVE_BACKENDS:
        if SAMPLER_KERNEL.available(name):
            params.append(pytest.param(name))
        else:
            reason = f"{name} backend unavailable: {SAMPLER_KERNEL.error(name)}"
            params.append(pytest.param(name, marks=pytest.mark.skip(reason=reason)))
    return params


NATIVE = _native_params()

# The paper's Θ; c = 0, whose o > 0 classes are skipped before any draw;
# b = 0, where every class has probability 0 and the class table is empty.
THETAS = {
    "paper": Initiator(0.99, 0.45, 0.25),
    "c0": Initiator(0.99, 0.45, 0.0),
    "b0": Initiator(0.9, 0.0, 0.4),
}
SIZES = (0, 1, 2, 12, 13)
RUNS = (1, 2, 3)
KS = (1, 6, 13, 16)


def _seeds(count: int) -> list[np.random.SeedSequence]:
    return np.random.SeedSequence(2012).spawn(count)


@functools.lru_cache(maxsize=None)
def _oracle_rows(theta: str, k: int, count: int) -> tuple:
    """``matching_statistics(sample_skg(...))`` per seed.  The numpy
    engine's Python unranking takes seconds per graph at k=16, so there
    the graph comes from the compiled ``sample_skg``, which
    ``test_sampler_equivalence.py`` pins to the numpy graph."""
    engine = "numpy" if k <= 13 else "cext"
    rows = []
    for seed in _seeds(count):
        graph = sample_skg(THETAS[theta], k, seed=seed, backend=engine)
        rows.append((graph.n_edges, matching_statistics(graph)))
    return tuple(rows)


class TestBatchRows:
    @pytest.mark.parametrize("backend", NATIVE)
    @pytest.mark.parametrize("runs", RUNS)
    @pytest.mark.parametrize("count", SIZES)
    @pytest.mark.parametrize("k", KS)
    @pytest.mark.parametrize("theta", sorted(THETAS))
    def test_rows_equal_the_per_seed_and_oracle_rows(self, theta, k, count, runs, backend):
        initiator = THETAS[theta]
        seeds = _seeds(count)
        got = []
        for index in range(runs):
            run = seeds[index * count // runs : (index + 1) * count // runs]
            got.extend(sample_skg_statistics_batch(initiator, k, run, backend=backend))
        per_seed = [
            sample_skg_statistics(initiator, k, seed=seed, backend=backend)
            for seed in seeds
        ]
        assert got == per_seed == list(_oracle_rows(theta, k, count))
        assert all(type(edges) is int for edges, _ in got)

    @pytest.mark.parametrize("backend", NATIVE)
    def test_numpy_engine_is_the_per_seed_composition(self, backend):
        initiator = THETAS["paper"]
        seeds = list(range(4))
        assert sample_skg_statistics_batch(initiator, 6, seeds, backend="numpy") == (
            sample_skg_statistics_batch(initiator, 6, seeds, backend=backend)
        )

    @pytest.mark.parametrize("runs", RUNS)
    def test_sample_work_rows_do_not_depend_on_the_runs(self, runs):
        model = FixedInitiatorModel(Initiator(1.0, 0.537, 0.218), 10)
        serial = _sample_work(model=model, count=7, entropy=3)
        with ThreadPoolExecutor(max_workers=runs) as pool:
            sharded = _sample_work(
                model=model, count=7, entropy=3, mapper=pool.map, shards=runs
            )
        assert sharded == serial


class TestGeneratorState:
    @pytest.mark.parametrize("backend", NATIVE)
    @pytest.mark.parametrize("k", KS)
    @pytest.mark.parametrize("theta", sorted(THETAS))
    def test_caller_generator_ends_like_the_per_sample_path(self, theta, k, backend):
        initiator = THETAS[theta]
        oracle = np.random.default_rng(42)
        batch = np.random.default_rng(42)
        _draw_classes(initiator, k, oracle)
        sample_skg_statistics_batch(initiator, k, [batch], backend=backend)
        assert oracle.bit_generator.state == batch.bit_generator.state

    @pytest.mark.parametrize("backend", NATIVE)
    def test_a_repeated_generator_keeps_the_per_seed_order(self, backend):
        initiator = THETAS["paper"]
        shared_a, other_a = np.random.default_rng(1), np.random.default_rng(2)
        shared_b, other_b = np.random.default_rng(1), np.random.default_rng(2)
        got = sample_skg_statistics_batch(
            initiator, 9, [shared_a, other_a, shared_a], backend=backend
        )
        want = [
            sample_skg_statistics(initiator, 9, seed=rng, backend="numpy")
            for rng in (shared_b, other_b, shared_b)
        ]
        assert got == want
        assert shared_a.bit_generator.state == shared_b.bit_generator.state
        assert other_a.bit_generator.state == other_b.bit_generator.state


@functools.lru_cache(maxsize=None)
def _portable_kernel():
    """The sampler kernel compiled with the base flags only: the portable
    unranking loops, whatever the host's CPU."""
    library = ctypes.CDLL(
        str(compile_shared_library(native_sampling._C_SOURCE, "sampler"))
    )
    kernel = getattr(library, SAMPLER_KERNEL.c_symbol)
    kernel.restype = SAMPLER_KERNEL.c_restype
    kernel.argtypes = SAMPLER_KERNEL.c_argtypes
    return kernel


def _keys(kernel, k, z, x, sizes, counts, seed) -> np.ndarray:
    """Keys-only mode: one sample whose uniforms come from ``seed``."""
    keys, _ = draw_batch(
        kernel, k, z, x, sizes, [counts], [np.random.default_rng(seed)],
        keys_only=True,
    )
    return keys


def _i64(*values) -> np.ndarray:
    return np.array(values, dtype=np.int64)


class TestPortableUnranking:
    @pytest.mark.parametrize("backend", NATIVE)
    @pytest.mark.parametrize("k", range(1, 8))
    def test_every_class_matches_exhaustively(self, k, backend):
        """Drawing a whole class makes Floyd's algorithm emit every index."""
        loaded = SAMPLER_KERNEL.kernel(backend)
        for z in range(k + 1):
            for x in range(1, k - z + 1):
                size = profile_class_size(k, z, x, k - z - x)
                args = (k, _i64(z), _i64(x), _i64(size), _i64(size), size)
                np.testing.assert_array_equal(
                    _keys(loaded, *args), _keys(_portable_kernel(), *args)
                )

    @pytest.mark.parametrize("backend", NATIVE)
    @pytest.mark.parametrize("k", [13, 16])
    def test_random_draws_match(self, k, backend):
        loaded = SAMPLER_KERNEL.kernel(backend)
        for seed in range(3):
            draw = _draw_classes(THETAS["paper"], k, np.random.default_rng(seed))
            args = (k, draw.z, draw.x, draw.sizes, draw.counts, seed)
            np.testing.assert_array_equal(
                _keys(loaded, *args), _keys(_portable_kernel(), *args)
            )

    @pytest.mark.parametrize("backend", NATIVE)
    def test_loaded_build_uses_bmi2_where_the_host_runs_it(self, backend):
        SAMPLER_KERNEL.kernel(backend)  # probe
        flags = SAMPLER_KERNEL.cext_extra_flags
        assert ("-mbmi2" in flags) == registry._host_runs("-mbmi2"), flags


class TestHostGate:
    """``-mbmi2`` is offered only where ``pdep`` is fast; ``-mpopcnt``
    wherever the CPU has it.  Both read one cached ``/proc/cpuinfo``."""

    @pytest.mark.parametrize(
        "cpu, bmi2",
        [
            (("GenuineIntel", 6, {"bmi2", "popcnt"}), True),
            (("AuthenticAMD", 0x17, {"bmi2", "popcnt"}), False),  # Zen 1/2
            (("AuthenticAMD", 0x19, {"bmi2", "popcnt"}), True),  # Zen 3+
            (("GenuineIntel", 6, {"popcnt"}), False),
            (("", 0, set()), False),
        ],
    )
    def test_bmi2_gate(self, monkeypatch, cpu, bmi2):
        vendor, family, flags = cpu
        monkeypatch.setattr(
            registry, "_host_cpu", lambda: (vendor, family, frozenset(flags))
        )
        assert registry._host_runs("-mbmi2") is bmi2
        assert registry._host_runs("-mpopcnt") is ("popcnt" in flags)
        assert registry._enabled_optional_flags(("-mbmi2",)) == (
            ("-mbmi2",) if bmi2 else ()
        )
