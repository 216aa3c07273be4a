"""Cross-backend equivalence harness for the counting kernels.

The paper's utility experiments hinge on exact triangle/wedge counts and
the smooth-sensitivity quantity max-common-neighbours, so every execution
backend of :func:`repro.stats.kernels.triangle_pass` — the blocked scipy
SpGEMM and the fused C kernel — must be **bit-identical** to the
pre-blocking reference oracles, for every block size and graph family.
This module is that systematic matrix, plus the contracts around backend
selection:

* ``REPRO_KERNEL_BACKEND`` naming an unavailable backend fails loudly
  with a clear :class:`ValidationError`;
* ``auto`` silently falls back to scipy when no fused backend can run;
* spectral memoization performs zero extra adjacency conversions.

Backends unavailable on the host (e.g. no C compiler) appear as
explicit skips, which CI treats as failures, so the full matrix runs.
"""

from __future__ import annotations

import functools

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import ValidationError
from repro.graphs import Graph
from repro.graphs.generators import complete_graph, erdos_renyi_graph, star_graph
from repro.kronecker.initiator import Initiator
from repro.kronecker.sampling import sample_skg
from repro.native.counting import COUNTING_KERNEL
from repro.native.registry import NATIVE_BACKENDS
from repro.stats.kernels import (
    KERNEL_BACKEND_ENV,
    TrianglePassResult,
    available_kernel_backends,
    float64_conversion_count,
    kernel_pass_count,
    reference_count_triangles,
    reference_max_common_neighbors,
    reference_triangles_per_node,
    resolve_kernel_backend,
    stats_context,
    triangle_pass,
)
from repro.stats.spectral import network_values, singular_values


def _backend_params() -> list:
    """One param per backend; unavailable ones become visible skips."""
    params = []
    for name in ("scipy",) + NATIVE_BACKENDS:
        if name == "scipy" or COUNTING_KERNEL.available(name):
            params.append(pytest.param(name))
        else:
            reason = f"{name} backend unavailable: {COUNTING_KERNEL.error(name)}"
            params.append(pytest.param(name, marks=pytest.mark.skip(reason=reason)))
    return params


BACKENDS = _backend_params()
BLOCK_SIZES = (0, 1, 7)  # auto, degenerate, small; n and > n are added per-graph

# The structured families of the ISSUE matrix.  Builders are memoized so
# the (backend x block size) matrix reuses one graph per family.
FAMILIES = {
    "empty": lambda: Graph(0),
    "isolated-only": lambda: Graph(5),
    "star": lambda: star_graph(9),
    "clique": lambda: complete_graph(8),
    "triangle-and-edge-in-isolated-sea": lambda: Graph(
        20, [(3, 7), (7, 11), (3, 11), (15, 16)]
    ),
    "er-200": lambda: erdos_renyi_graph(200, 0.05, seed=7),
    "skg-k8": lambda: sample_skg(Initiator(0.99, 0.45, 0.25), 8, seed=8),
    "skg-k10": lambda: sample_skg(Initiator(0.99, 0.45, 0.25), 10, seed=10),
    "skg-k12": lambda: sample_skg(Initiator(0.99, 0.45, 0.25), 12, seed=12),
}


@functools.lru_cache(maxsize=None)
def family_graph(name: str) -> Graph:
    return FAMILIES[name]()


@functools.lru_cache(maxsize=None)
def family_reference(name: str) -> TrianglePassResult:
    """The oracle answer, computed once per family from the references."""
    graph = family_graph(name)
    degrees = graph.degrees
    return TrianglePassResult(
        triangles=reference_count_triangles(graph),
        per_node=reference_triangles_per_node(graph),
        max_common_neighbors=reference_max_common_neighbors(graph),
        n_blocks=-1,  # not part of the equivalence contract
        wedges=int((degrees * (degrees - 1) // 2).sum()),
        tripins=int((degrees * (degrees - 1) * (degrees - 2) // 6).sum()),
    )


def assert_bit_identical(graph: Graph, expected: TrianglePassResult, backend, block_size):
    result = triangle_pass(graph, block_size, backend)
    assert result.triangles == expected.triangles
    assert result.max_common_neighbors == expected.max_common_neighbors
    assert result.per_node.dtype == np.int64
    np.testing.assert_array_equal(
        np.asarray(result.per_node), np.asarray(expected.per_node)
    )
    assert result.wedges == expected.wedges
    assert result.tripins == expected.tripins


class TestBackendFamilyMatrix:
    @pytest.mark.parametrize("backend", BACKENDS)
    @pytest.mark.parametrize("block_size", BLOCK_SIZES)
    @pytest.mark.parametrize("family", sorted(FAMILIES))
    def test_family(self, backend, block_size, family):
        graph = family_graph(family)
        assert_bit_identical(graph, family_reference(family), backend, block_size)

    @pytest.mark.parametrize("backend", BACKENDS)
    @pytest.mark.parametrize("family", sorted(FAMILIES))
    def test_family_at_degenerate_block_sizes(self, backend, family):
        """Blocks of exactly n rows and of more rows than the graph has."""
        graph = family_graph(family)
        expected = family_reference(family)
        for block_size in (max(graph.n_nodes, 1), graph.n_nodes + 13):
            assert_bit_identical(graph, expected, backend, block_size)

    @pytest.mark.parametrize("backend", BACKENDS)
    @given(
        n=st.integers(min_value=1, max_value=40),
        p=st.floats(min_value=0.0, max_value=1.0),
        seed=st.integers(min_value=0, max_value=10**6),
        block_size=st.integers(min_value=0, max_value=50),
    )
    @settings(max_examples=25, deadline=None)
    def test_property_er(self, backend, n, p, seed, block_size):
        graph = erdos_renyi_graph(n, p, seed=seed)
        degrees = graph.degrees
        result = triangle_pass(graph, block_size, backend)
        assert result.triangles == reference_count_triangles(graph)
        assert result.max_common_neighbors == reference_max_common_neighbors(graph)
        np.testing.assert_array_equal(
            np.asarray(result.per_node), reference_triangles_per_node(graph)
        )
        assert result.wedges == int((degrees * (degrees - 1) // 2).sum())
        assert result.tripins == int((degrees * (degrees - 1) * (degrees - 2) // 6).sum())

    @pytest.mark.parametrize("backend", BACKENDS)
    def test_backends_agree_pairwise(self, backend):
        """Direct backend-vs-backend check on a graph with hub structure."""
        graph = family_graph("skg-k10")
        against_scipy = triangle_pass(graph, 0, "scipy")
        result = triangle_pass(graph, 0, backend)
        assert result.triangles == against_scipy.triangles
        assert result.max_common_neighbors == against_scipy.max_common_neighbors
        np.testing.assert_array_equal(
            np.asarray(result.per_node), np.asarray(against_scipy.per_node)
        )


class TestBackendResolution:
    def test_default_resolves_to_an_available_backend(self, monkeypatch):
        monkeypatch.delenv(KERNEL_BACKEND_ENV, raising=False)
        assert resolve_kernel_backend() in available_kernel_backends()

    def test_scipy_is_always_available(self):
        assert "scipy" in available_kernel_backends()
        assert resolve_kernel_backend("scipy") == "scipy"

    def test_numpy_aliases_the_reference_engine(self, monkeypatch):
        """The chain kernels call their reference 'numpy'; the counting
        resolution accepts it so one knob value drives both families."""
        assert resolve_kernel_backend("numpy") == "scipy"
        monkeypatch.setenv(KERNEL_BACKEND_ENV, "numpy")
        assert resolve_kernel_backend() == "scipy"
        result = triangle_pass(family_graph("star"), 0, "numpy")
        assert_bit_identical(
            family_graph("star"), family_reference("star"), "numpy", 0
        )
        assert result.triangles == family_reference("star").triangles

    def test_environment_knob(self, monkeypatch):
        monkeypatch.setenv(KERNEL_BACKEND_ENV, "scipy")
        assert resolve_kernel_backend() == "scipy"

    def test_empty_environment_value_means_auto(self, monkeypatch):
        monkeypatch.setenv(KERNEL_BACKEND_ENV, "")
        assert resolve_kernel_backend() in available_kernel_backends()

    def test_explicit_argument_wins_over_environment(self, monkeypatch):
        monkeypatch.setenv(KERNEL_BACKEND_ENV, "cext")
        assert resolve_kernel_backend("scipy") == "scipy"

    def test_invalid_argument_rejected(self):
        for name in ("fortran", "numba"):
            with pytest.raises(ValidationError, match="kernel backend"):
                resolve_kernel_backend(name)

    def test_invalid_environment_rejected(self, monkeypatch):
        for name in ("fortran", "numba"):
            monkeypatch.setenv(KERNEL_BACKEND_ENV, name)
            with pytest.raises(ValidationError, match=KERNEL_BACKEND_ENV):
                resolve_kernel_backend()

    def test_unavailable_cext_fails_loudly(self, monkeypatch):
        """REPRO_KERNEL_BACKEND=cext without a compiler is a clear, loud error."""
        monkeypatch.setitem(
            COUNTING_KERNEL.states, "cext", (None, "no C compiler found")
        )
        monkeypatch.setenv(KERNEL_BACKEND_ENV, "cext")
        with pytest.raises(ValidationError, match="no C compiler found"):
            resolve_kernel_backend()
        with pytest.raises(ValidationError, match="no C compiler found"):
            triangle_pass(family_graph("star"))

    def test_edgeless_graphs_still_validate_knobs(self):
        """The fail-loudly contract holds even when the first graph is empty."""
        with pytest.raises(ValidationError, match="kernel backend"):
            triangle_pass(Graph(5), backend="fortran")
        with pytest.raises(ValidationError):
            triangle_pass(Graph(5), block_size=2.5)

    def test_auto_silently_falls_back_to_scipy(self, monkeypatch):
        """With every fused backend unavailable, auto degrades without noise."""
        for name in NATIVE_BACKENDS:
            monkeypatch.setitem(
                COUNTING_KERNEL.states, name, (None, f"{name} disabled")
            )
        monkeypatch.setenv(KERNEL_BACKEND_ENV, "auto")
        assert resolve_kernel_backend() == "scipy"
        assert available_kernel_backends() == ("scipy",)
        graph = family_graph("clique")
        assert_bit_identical(graph, family_reference("clique"), None, 0)

    @pytest.mark.skipif(
        not any(COUNTING_KERNEL.available(name) for name in NATIVE_BACKENDS),
        reason="no fused backend available on this host",
    )
    def test_auto_prefers_fused_backends(self, monkeypatch):
        monkeypatch.delenv(KERNEL_BACKEND_ENV, raising=False)
        assert resolve_kernel_backend() != "scipy"


class TestSpectralMemoization:
    def make_graph(self) -> Graph:
        # Above the dense-SVD limit so the sparse (conversion-using) path runs.
        return erdos_renyi_graph(120, 0.08, seed=5)

    def test_zero_extra_adjacency_conversions(self):
        """Repeated spectral calls trigger zero extra float64 conversions."""
        graph = self.make_graph()
        singular_values(graph, k=6)  # warm: converts int8 -> float64 -> CSC
        warm = float64_conversion_count()
        singular_values(graph, k=6)
        network_values(graph, k=6)
        singular_values(graph, k=6)
        assert float64_conversion_count() == warm

    def test_scree_and_network_values_share_one_solve(self):
        graph = self.make_graph()
        context = stats_context(graph)
        assert context.svd_cache == {}
        singular_values(graph, k=6)
        network_values(graph, k=6)
        assert list(context.svd_cache) == [6]

    def test_spectral_calls_run_no_triangle_pass(self):
        graph = self.make_graph()
        before = kernel_pass_count()
        singular_values(graph, k=6)
        network_values(graph, k=6)
        assert kernel_pass_count() == before

    def test_cached_triplets_are_read_only_and_returns_are_copies(self):
        graph = self.make_graph()
        first = singular_values(graph, k=6)
        first[:] = -1.0  # mutating the returned copy must not poison the cache
        again = singular_values(graph, k=6)
        assert np.all(again >= 0)
        values, vector = stats_context(graph).svd_cache[6]
        assert not values.flags.writeable
        assert not vector.flags.writeable

    def test_cached_triplets_own_their_memory(self):
        """The cache must hold copies, not views pinning the factor matrices."""
        sparse_path = self.make_graph()
        dense_path = erdos_renyi_graph(30, 0.2, seed=6)  # under the dense limit
        for graph in (sparse_path, dense_path):
            singular_values(graph, k=6)
            values, vector = stats_context(graph).svd_cache[6]
            assert values.base is None
            assert vector.base is None

    def test_distinct_ranks_are_cached_separately(self):
        graph = self.make_graph()
        np.testing.assert_allclose(
            singular_values(graph, k=8)[:4], singular_values(graph, k=4), rtol=1e-6
        )
        assert sorted(stats_context(graph).svd_cache) == [4, 8]
