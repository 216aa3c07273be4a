"""Cross-backend equivalence harness for the grass-hopping sampler kernels.

:func:`repro.kronecker.sampling.sample_skg` executes its per-class Floyd
selection + combination unranking on one of two engines — the pure
Python reference and the compiled-C kernel of
:mod:`repro.native.sampling` — behind the same ``REPRO_KERNEL_BACKEND``
knob as the counting and chain kernels.  Both engines consume identical
pre-drawn streams (the draw contract), so the sampled graph must be
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

import numpy as np
import pytest

from repro.errors import ValidationError
from repro.kronecker.initiator import Initiator
from repro.kronecker.sampling import sample_skg, sample_skg_naive
from repro.native import sampling as native_sampling
from repro.native.registry import KERNEL_BACKEND_ENV, NATIVE_BACKENDS
from repro.native.sampling import SAMPLER_KERNEL


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


class TestSamplerBackendSelection:
    def test_resolution_values(self, monkeypatch):
        monkeypatch.delenv(KERNEL_BACKEND_ENV, raising=False)
        assert native_sampling.resolve_sampler_backend() in (
            SAMPLER_KERNEL.available_backends()
        )
        assert native_sampling.resolve_sampler_backend("numpy") == "numpy"
        # One REPRO_KERNEL_BACKEND value drives all three kernel families,
        # so the counting knob's reference name aliases the sampler's.
        assert native_sampling.resolve_sampler_backend("scipy") == "numpy"

    def test_environment_knob(self, monkeypatch):
        monkeypatch.setenv(KERNEL_BACKEND_ENV, "scipy")
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
        monkeypatch.setenv(KERNEL_BACKEND_ENV, "auto")
        assert native_sampling.resolve_sampler_backend() == "numpy"
        assert SAMPLER_KERNEL.available_backends() == ("numpy",)
        graph = sample_skg(Initiator(0.9, 0.5, 0.2), 4, seed=0)
        assert graph.n_nodes == 16

    @pytest.mark.skipif(
        not any(SAMPLER_KERNEL.available(name) for name in NATIVE_BACKENDS),
        reason="no fused sampler backend available on this host",
    )
    def test_auto_prefers_fused_backends(self, monkeypatch):
        monkeypatch.delenv(KERNEL_BACKEND_ENV, raising=False)
        assert native_sampling.resolve_sampler_backend() != "numpy"
