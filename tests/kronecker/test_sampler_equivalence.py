"""Cross-backend equivalence harness for the grass-hopping sampler kernels.

:func:`repro.kronecker.sampling.sample_skg` executes its per-class Floyd
selection + combination unranking on one of two engines — the pure
Python reference and the compiled-C kernel of
:mod:`repro.native.sampling` — behind the same ``REPRO_KERNEL_BACKEND``
knob as the counting and chain kernels.  Both engines make identical
draws (the draw contract), so the sampled graph must be
**bit-identical** across engines for every (seed, k, initiator) cell.
This module is that matrix (the chain-equivalence pattern of
``test_chain_equivalence.py``, now for the sampler), plus the selection
knob's contracts: naming an unavailable engine fails loudly, ``auto``
silently falls back to the reference, ``scipy`` aliases it.

Backends unavailable on the host (e.g. no C compiler) appear as
explicit skips, which CI treats as failures, so the full matrix runs.
"""

from __future__ import annotations

import functools
from math import comb

import numpy as np
import pytest

from repro.errors import ValidationError
from repro.kronecker.initiator import Initiator
from repro.kronecker.sampling import (
    _unrank_pair_key,
    profile_class_size,
    sample_skg,
    sample_skg_naive,
    sample_skg_statistics,
)
from repro.native import sampling as native_sampling
from repro.native.registry import NATIVE_BACKENDS
from repro.native.sampling import (
    SAMPLER_KERNEL,
    bitgen_pointers,
    choose_table,
    draw_batch,
    lex_table,
)
from repro.stats.counts import MatchingStatistics, matching_statistics


def _backend_params() -> list:
    """One param per sampler engine; unavailable ones become visible skips."""
    params = [pytest.param("numpy")]
    for name in NATIVE_BACKENDS:
        if SAMPLER_KERNEL.available(name):
            params.append(pytest.param(name))
        else:
            reason = f"{name} backend unavailable: {SAMPLER_KERNEL.error(name)}"
            params.append(pytest.param(name, marks=pytest.mark.skip(reason=reason)))
    return params


BACKENDS = _backend_params()

# The equivalence matrix: paper-scale cells, dense and sparse initiators,
# and a large-k cell kept cheap by a sparse initiator (the paper's θ at
# k=20 draws ~2·10⁶ edges; (0.6, 0.3, 0.1) draws a few hundred while
# still exercising every class-size magnitude and the hash table reuse).
CELLS = {
    "paper-k8": (Initiator(0.99, 0.45, 0.25), 8),
    "paper-k12": (Initiator(0.99, 0.45, 0.25), 12),
    "paper-k14": (Initiator(0.99, 0.45, 0.25), 14),
    "skewed-k10": (Initiator(0.9, 0.5, 0.2), 10),
    "flat-k9": (Initiator(0.6, 0.6, 0.6), 9),
    "dense-k6": (Initiator(0.95, 0.8, 0.7), 6),
    "sparse-k20": (Initiator(0.6, 0.3, 0.1), 20),
    "tiny-k1": (Initiator(0.9, 0.5, 0.2), 1),
    "zero-b-k8": (Initiator(0.9, 0.0, 0.4), 8),
}

SEEDS = (0, 7, 20120330)


@functools.lru_cache(maxsize=None)
def reference_graph(cell: str, seed: int):
    theta, k = CELLS[cell]
    return sample_skg(theta, k, seed=seed, backend="numpy")


class TestSamplerMatrix:
    @pytest.mark.parametrize("backend", BACKENDS)
    @pytest.mark.parametrize("seed", SEEDS)
    @pytest.mark.parametrize("cell", sorted(CELLS))
    def test_cell_bit_identical(self, cell, seed, backend):
        theta, k = CELLS[cell]
        expected = reference_graph(cell, seed)
        graph = sample_skg(theta, k, seed=seed, backend=backend)
        assert graph.n_nodes == expected.n_nodes == 2**k
        assert graph.n_edges == expected.n_edges
        for got, want in zip(graph.edge_arrays, expected.edge_arrays):
            np.testing.assert_array_equal(got, want)

    @pytest.mark.parametrize("backend", BACKENDS)
    def test_rng_stream_consumption_is_engine_independent(self, backend):
        """The draw contract's point: after sampling, identical generator
        states — callers interleaving other draws stay reproducible."""
        theta, k = CELLS["paper-k8"]
        rng_a = np.random.default_rng(42)
        rng_b = np.random.default_rng(42)
        sample_skg(theta, k, seed=rng_a, backend="numpy")
        sample_skg(theta, k, seed=rng_b, backend=backend)
        assert rng_a.bit_generator.state == rng_b.bit_generator.state

    @pytest.mark.parametrize("backend", BACKENDS)
    def test_graphs_are_canonical_and_simple(self, backend):
        theta, k = CELLS["skewed-k10"]
        graph = sample_skg(theta, k, seed=5, backend=backend)
        u, v = graph.edge_arrays
        assert np.all(u < v)  # zero diagonal, upper triangle
        keys = (u.astype(np.int64) << k) | v.astype(np.int64)
        assert np.all(np.diff(keys) > 0)  # sorted, no duplicate pairs

    @pytest.mark.parametrize("backend", BACKENDS)
    def test_empty_draw(self, backend):
        """An all-but-zero initiator can draw no edges at small k."""
        graph = sample_skg(Initiator(1e-12, 1e-12, 1e-12), 2, seed=0, backend=backend)
        assert graph.n_edges == 0
        assert graph.n_nodes == 4

    @pytest.mark.parametrize("backend", BACKENDS)
    def test_matches_naive_distributionally_cheap_smoke(self, backend):
        """A quick same-order-of-magnitude check against the O(N²) oracle
        (the real distributional suite lives in
        ``test_sampler_distribution.py``)."""
        theta, k = Initiator(0.9, 0.5, 0.2), 6
        fast = np.mean(
            [sample_skg(theta, k, seed=s, backend=backend).n_edges for s in range(20)]
        )
        naive = np.mean(
            [sample_skg_naive(theta, k, seed=s).n_edges for s in range(20)]
        )
        assert abs(fast - naive) / naive < 0.25


NATIVE = [p for p in BACKENDS if p.values[0] != "numpy"]


def _i64(*values) -> np.ndarray:
    return np.array(values, dtype=np.int64)


class TestExhaustiveUnranking:
    """Drawing a whole class (count = class size) makes Floyd's algorithm
    emit every class index once, so the kernel's keys must be exactly the
    reference unranking of ``range(class_size)`` — at every k ≤ 7 and
    every class, so every (zero, differing, orientation) pattern the
    masked level walks can produce is checked."""

    @pytest.mark.parametrize("backend", NATIVE)
    @pytest.mark.parametrize("k", range(1, 8))
    def test_every_class_unranks_like_the_reference(self, k, backend):
        kernel = SAMPLER_KERNEL.kernel(backend)
        choose = choose_table(k)
        every_pair = []
        for z in range(k + 1):
            for x in range(1, k - z + 1):
                size = profile_class_size(k, z, x, k - z - x)
                keys, _ = draw_batch(
                    kernel, k, _i64(z), _i64(x), _i64(size), [[size]],
                    [np.random.default_rng(size)], keys_only=True,
                )
                assert keys.shape == (size,)
                expected = {
                    _unrank_pair_key(k, z, x, idx, choose) for idx in range(size)
                }
                assert sorted(keys.tolist()) == sorted(expected)
                every_pair.extend(keys.tolist())
        # The classes partition the upper triangle of the 2^k × 2^k matrix.
        n = 2**k
        assert sorted(every_pair) == [
            (u << k) | v for u in range(n) for v in range(u + 1, n)
        ]


class TestLexTable:
    """The compiled engine's unranking table (:func:`lex_table`)."""

    @pytest.mark.parametrize("k", range(1, 17))
    def test_popcount_grouped_bijection(self, k):
        lex, offsets = lex_table(k)
        assert lex.dtype == np.int32 and offsets.dtype == np.int64
        assert offsets.tolist() == [
            sum(comb(k, j) for j in range(r)) for r in range(k + 2)
        ]
        assert np.array_equal(np.sort(lex), np.arange(2**k))
        popcount = np.array([bin(mask).count("1") for mask in lex.tolist()])
        for r in range(k + 1):
            group = lex[offsets[r] : offsets[r + 1]]
            assert np.all(popcount[offsets[r] : offsets[r + 1]] == r)
            # Lex order, most significant level first: descending masks.
            assert np.all(np.diff(group) < 0)

    @pytest.mark.parametrize("k", range(1, 9))
    def test_entries_are_the_reference_unranking(self, k):
        """Group r, entry C(k, r) − C(n, r) + i is the rank-i r-subset of
        the low n levels, for every n ≤ k: the reference's both-0 walk
        at z = r over a k' = n level graph."""
        lex, offsets = lex_table(k)
        for n in range(1, k + 1):
            choose = choose_table(n)
            for r in range(n):
                for rank in range(comb(n, r)):
                    # x = n − r differing levels with w = 0: u carries the
                    # ones, so the zero mask is the complement of u's bits
                    # minus the differing levels; read it off directly.
                    key = _unrank_pair_key(n, r, n - r, rank * 2 ** (n - r - 1), choose)
                    zero_mask = (2**n - 1) & ~((key >> n) | (key & (2**n - 1)))
                    entry = lex[offsets[r] + comb(k, r) - comb(n, r) + rank]
                    assert entry == zero_mask

    def test_tables_are_cached_read_only(self):
        assert lex_table(9)[0] is lex_table(9)[0]
        assert choose_table(9) is choose_table(9)
        for table in (*lex_table(9), choose_table(9)):
            assert not table.flags.writeable


# Counts-mode cells: the paper's Θ, the hub-heavy Θ fitted to as20, and a
# c = 0 initiator whose o > 0 classes are skipped before any draw.
COUNT_THETAS = {
    "paper": Initiator(0.99, 0.45, 0.25),
    "hub": Initiator(1.0, 0.537, 0.218),
    "c0": Initiator(0.99, 0.45, 0.0),
}


class TestSampleStatistics:
    """``sample_skg_statistics``: the kernel's counts mode against the
    numpy engine, which is ``matching_statistics(sample_skg(...))``."""

    @pytest.mark.parametrize("backend", NATIVE)
    @pytest.mark.parametrize("theta", sorted(COUNT_THETAS))
    @pytest.mark.parametrize("k", [1, 2, 5, 10, 13])
    def test_counts_equal_the_numpy_rows(self, k, theta, backend):
        initiator = COUNT_THETAS[theta]
        for seed in (0, 1):
            expected = sample_skg_statistics(initiator, k, seed=seed, backend="numpy")
            got = sample_skg_statistics(initiator, k, seed=seed, backend=backend)
            assert got == expected
            assert type(got[0]) is int

    @pytest.mark.parametrize("backend", NATIVE)
    @pytest.mark.parametrize("theta", sorted(COUNT_THETAS))
    def test_counts_at_k16(self, theta, backend):
        """At k=16 the Python unranking of the numpy engine takes seconds
        per graph, so the oracle counts the cext-sampled graph (which the
        matrix above pins to the numpy graph) on the A² path."""
        initiator = COUNT_THETAS[theta]
        graph = sample_skg(initiator, 16, seed=3, backend=backend)
        got = sample_skg_statistics(initiator, 16, seed=3, backend=backend)
        assert got == (graph.n_edges, matching_statistics(graph))

    @pytest.mark.parametrize("backend", BACKENDS)
    def test_empty_draw(self, backend):
        got = sample_skg_statistics(
            Initiator(1e-12, 1e-12, 1e-12), 2, seed=0, backend=backend
        )
        assert got == (0, MatchingStatistics(0.0, 0.0, 0.0, 0.0))

    @pytest.mark.parametrize("backend", BACKENDS)
    def test_generator_ends_where_sample_skg_leaves_it(self, backend):
        theta = COUNT_THETAS["paper"]
        rng_a = np.random.default_rng(42)
        rng_b = np.random.default_rng(42)
        sample_skg(theta, 9, seed=rng_a, backend="numpy")
        sample_skg_statistics(theta, 9, seed=rng_b, backend=backend)
        assert rng_a.bit_generator.state == rng_b.bit_generator.state

    @pytest.mark.parametrize("backend", NATIVE)
    def test_short_scratch_is_refused(self, backend):
        """The kernel checks its scratch length instead of overrunning it."""
        scratch = np.zeros(3 * 4 + 2, dtype=np.int64)  # one slot short
        assert _call_kernel(backend, 1, scratch) == -1

    @pytest.mark.parametrize("backend", NATIVE)
    def test_keys_only_mode_takes_exactly_one_sample(self, backend):
        """Keys-only mode (no scratch) leaves one sample's keys behind."""
        no_scratch = np.zeros(0, dtype=np.int64)
        statuses = [_call_kernel(backend, n, no_scratch) for n in (0, 1, 2)]
        assert statuses == [-1, 0, -1]


def _call_kernel(backend, n_samples, scratch) -> int:
    """The raw kernel at k=2, each of up to two samples drawing both pairs
    of class (0, 1)."""
    k, size = 2, 2
    generators = [np.random.default_rng(seed) for seed in (0, 1)]
    return SAMPLER_KERNEL.kernel(backend)(
        k, 1, _i64(0), _i64(1), _i64(size), choose_table(k), *lex_table(k),
        n_samples, np.full((2, 1), size, dtype=np.int64),
        bitgen_pointers(generators), np.zeros(size, dtype=np.int64), size,
        np.zeros(16, dtype=np.int64), np.zeros(16, dtype=np.int64), 16,
        scratch, scratch.shape[0], np.zeros((2, 4), dtype=np.int64),
    )


class TestProbeSmokeTest:
    @pytest.mark.parametrize("backend", NATIVE)
    def test_passes_on_the_compiled_kernel(self, backend):
        native_sampling._smoke_test(SAMPLER_KERNEL.kernel(backend))

    @pytest.mark.parametrize("backend", NATIVE)
    def test_catches_wrong_counts(self, backend):
        kernel = SAMPLER_KERNEL.kernel(backend)

        def miscounting(*args):
            status = kernel(*args)
            args[18][:, 3] = 0  # drop the triangle count of counts mode
            return status

        with pytest.raises(RuntimeError, match="counts self-check"):
            native_sampling._smoke_test(miscounting)


class TestSamplerBackendSelection:
    def test_resolution_values(self, monkeypatch):
        monkeypatch.delenv("REPRO_KERNEL_BACKEND", raising=False)
        assert native_sampling.resolve_sampler_backend() in (
            SAMPLER_KERNEL.available_backends()
        )
        assert native_sampling.resolve_sampler_backend("numpy") == "numpy"
        # One REPRO_KERNEL_BACKEND value drives all three kernel families,
        # so the counting knob's reference name aliases the sampler's.
        assert native_sampling.resolve_sampler_backend("scipy") == "numpy"

    def test_environment_knob(self, monkeypatch):
        monkeypatch.setenv("REPRO_KERNEL_BACKEND", "scipy")
        assert native_sampling.resolve_sampler_backend() == "numpy"

    def test_invalid_name_rejected(self):
        for name in ("fortran", "numba"):
            with pytest.raises(ValidationError, match="kernel backend"):
                native_sampling.resolve_sampler_backend(name)

    def test_unavailable_cext_fails_loudly(self, monkeypatch):
        monkeypatch.setitem(
            SAMPLER_KERNEL.states, "cext", (None, "no C compiler found")
        )
        with pytest.raises(ValidationError, match="no C compiler found"):
            native_sampling.resolve_sampler_backend("cext")
        with pytest.raises(ValidationError, match="no C compiler found"):
            sample_skg(Initiator(0.9, 0.5, 0.2), 4, seed=0, backend="cext")

    def test_auto_silently_falls_back_to_numpy(self, monkeypatch):
        for name in NATIVE_BACKENDS:
            monkeypatch.setitem(SAMPLER_KERNEL.states, name, (None, f"{name} disabled"))
        monkeypatch.setenv("REPRO_KERNEL_BACKEND", "auto")
        assert native_sampling.resolve_sampler_backend() == "numpy"
        assert SAMPLER_KERNEL.available_backends() == ("numpy",)
        graph = sample_skg(Initiator(0.9, 0.5, 0.2), 4, seed=0)
        assert graph.n_nodes == 16

    @pytest.mark.skipif(
        not any(SAMPLER_KERNEL.available(name) for name in NATIVE_BACKENDS),
        reason="no fused sampler backend available on this host",
    )
    def test_auto_prefers_fused_backends(self, monkeypatch):
        monkeypatch.delenv("REPRO_KERNEL_BACKEND", raising=False)
        assert native_sampling.resolve_sampler_backend() != "numpy"
