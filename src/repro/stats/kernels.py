"""The A² counting pass (one fused kernel call) and the per-graph cache.

Every statistic the pipeline derives from the sparse product ``A @ A`` —
the triangle total Δ, the per-node triangle vector, the off-diagonal
maximum common-neighbour count that drives LS_Δ, and the local clustering
numerators — used to materialize the *full* product independently.  Its
size is the wedge count, which for the paper's power-law graphs is orders
of magnitude larger than the edge count, and the pipeline recomputed it up
to three times per trial (Δ, LS_Δ, clustering).

This module fixes both costs:

* :func:`triangle_pass` runs the fused kernel
  (:mod:`repro.native.counting`) once over all rows: it walks the CSR
  rows directly with a dense accumulator, never materializes a product
  entry, and needs only O(n) scratch, so each path-2 contribution is
  produced exactly once.  All arithmetic is integer-exact, so results are
  **bit-identical** to the full-product oracles (enforced by
  ``tests/stats/test_backend_equivalence.py``).
* :class:`StatsContext` memoizes the pass (plus derived quantities,
  dtype conversions, and truncated-SVD triplets) per
  :class:`~repro.graphs.graph.Graph` instance, so ``matching_statistics``,
  the smooth-sensitivity release, the figure-series clustering, and the
  spectral statistics all share **one** computation of everything.

The pre-kernel implementations, and the scipy SpGEMM pass the fused
kernel replaced, are the oracles of :mod:`repro.reference.counting`: the
equivalence tests assert the kernel bit-matches them, and
``benchmarks/bench_stats.py`` measures the speedups against them.
"""

from __future__ import annotations

import weakref
from typing import TYPE_CHECKING, NamedTuple

import numpy as np

from repro.errors import ValidationError
from repro.graphs.graph import Graph
from repro.native.counting import COUNTING_KERNEL

if TYPE_CHECKING:
    import scipy.sparse as sp

__all__ = [
    "TrianglePassResult",
    "triangle_pass",
    "StatsContext",
    "stats_context",
    "kernel_pass_count",
    "float64_conversion_count",
    "resolve_kernel_backend",
]

# The kernel reads node ids as int32.  The bound is on n, which is public
# under edge-DP; a bound on E would make neighbouring graphs differ in
# whether they are refused, an exact private statistic branched on before
# the noise.
MAX_NODES = np.iinfo(np.int32).max

# Process-wide count of executed A² passes.  Tests and benches use this to
# assert the memoization contract: one pass per graph, no matter how many
# consumers (Δ, LS_Δ, clustering, ...) ask for its reductions.
_pass_count = 0

# Process-wide count of int8→float64 adjacency conversions (and the CSC
# re-layout for ARPACK).  The spectral/hop-plot memoization contract —
# repeated figure calls trigger zero extra conversions — is asserted
# against this counter.
_float64_conversions = 0


def kernel_pass_count() -> int:
    """Number of A² passes executed so far in this process."""
    return _pass_count


def float64_conversion_count() -> int:
    """Number of float64 adjacency materializations so far in this process."""
    return _float64_conversions


class TrianglePassResult(NamedTuple):
    """Every reduction of ``A @ A`` the pipeline consumes, from one pass.

    Attributes
    ----------
    triangles:
        The triangle total Δ.
    per_node:
        Triangles through each node (read-only int64, length ``n_nodes``).
    max_common_neighbors:
        ``max_{i ≠ j} |N(i) ∩ N(j)|`` over *all* node pairs — the local
        sensitivity LS_Δ of the triangle count.
    """

    triangles: int
    per_node: np.ndarray
    max_common_neighbors: int


def resolve_kernel_backend() -> str:
    """Load the counting kernel (run records and the benchmark pay its probe
    up front) and name it: always ``"cext"``."""
    COUNTING_KERNEL.kernel()
    return "cext"


def triangle_pass(graph: Graph) -> TrianglePassResult:
    """One pass over ``A @ A``: a single fused kernel call over all rows.

    The kernel writes the per-node triangles (the product restricted to
    edge positions, halved) and returns the off-diagonal maximum (the LS_Δ
    ingredient); the triangle total is ``Σ_v t_v / 3``.  It reads
    :attr:`Graph.csr`'s int64 ``indptr`` as is and an int32 copy of
    ``indices``, so a graph of more than :data:`MAX_NODES` nodes is refused
    with :class:`~repro.errors.ValidationError` before any kernel work.
    """
    n = graph.n_nodes
    if n > MAX_NODES:
        raise ValidationError(
            f"the counting pass addresses at most {MAX_NODES} nodes, got {n}"
        )
    per_node = np.zeros(n, dtype=np.int64)
    max_common = 0
    if graph.n_edges:
        global _pass_count
        _pass_count += 1
        indptr, indices = graph.csr
        max_common = int(COUNTING_KERNEL.kernel()(
            indptr, indices.astype(np.int32), n, per_node,
            np.zeros(n, dtype=np.int64), np.empty(n, dtype=np.int32),
        ))
    per_node.setflags(write=False)
    return TrianglePassResult(int(per_node.sum()) // 3, per_node, max_common)


def _degree_moments(degrees: np.ndarray) -> tuple[int, int]:
    """Exact (wedges, tripins) = (Σ C(d, 2), Σ C(d, 3)) of a degree sequence."""
    wedges = int((degrees * (degrees - 1) // 2).sum())
    tripins = int((degrees * (degrees - 1) * (degrees - 2) // 6).sum())
    return wedges, tripins


class StatsContext:
    """Memoized per-graph statistics sharing one A² pass.

    Obtained through :func:`stats_context`, which caches one context on
    each :class:`Graph` instance (alongside the graph's lazy adjacency and
    degrees), so every consumer in a trial — ``matching_statistics``, the
    smooth-sensitivity triangle release, the clustering figure series, the
    hop plot's BFS, the scree/network-value spectra — shares one
    computation per graph.

    All cached arrays are read-only; callers that need to mutate must copy.
    The context refers to its graph weakly: the graph owns the context, so
    a strong reference back would make every graph a reference cycle, freed
    only when the cycle collector runs.
    """

    __slots__ = (
        "_graph_ref",
        "_pass",
        "_local_clustering",
        "_adjacency_float",
        "_svd_operand",
        "_svd_cache",
    )

    def __init__(self, graph: Graph) -> None:
        self._graph_ref = weakref.ref(graph)
        self._pass: TrianglePassResult | None = None
        self._local_clustering: np.ndarray | None = None
        self._adjacency_float: sp.csr_array | None = None
        self._svd_operand: sp.csc_array | None = None
        self._svd_cache: dict[int, tuple[np.ndarray, np.ndarray]] = {}

    @property
    def graph(self) -> Graph:
        """The graph this context memoizes."""
        graph = self._graph_ref()
        if graph is None:
            raise ReferenceError("the graph of this StatsContext has been freed")
        return graph

    def triangle_pass_result(self) -> TrianglePassResult:
        """The (cached) result of the A² pass."""
        if self._pass is None:
            self._pass = triangle_pass(self.graph)
        return self._pass

    @property
    def triangle_count(self) -> int:
        """The triangle total Δ."""
        return self.triangle_pass_result().triangles

    @property
    def triangles_per_node(self) -> np.ndarray:
        """Triangles through each node (read-only int64)."""
        return self.triangle_pass_result().per_node

    @property
    def max_common_neighbors(self) -> int:
        """``max_{i ≠ j} |N(i) ∩ N(j)|`` — the local sensitivity LS_Δ."""
        return self.triangle_pass_result().max_common_neighbors

    # -- degree-moment pieces (functions of the cached degree sequence) ----

    @property
    def edge_count(self) -> int:
        """Number of undirected edges E."""
        return self.graph.n_edges

    @property
    def wedge_count(self) -> int:
        """Number of hairpins H = Σ_v C(d_v, 2).  Degree-only, so it never
        triggers an A² pass."""
        return _degree_moments(self.graph.degrees)[0]

    @property
    def tripin_count(self) -> int:
        """Number of tripins T = Σ_v C(d_v, 3).  Degree-only, like wedges."""
        return _degree_moments(self.graph.degrees)[1]

    # -- derived caches ----------------------------------------------------

    @property
    def local_clustering(self) -> np.ndarray:
        """Local clustering coefficient per node (read-only float64).

        ``c_v = 2 t_v / (d_v (d_v − 1))`` with degree-<2 nodes at 0; the
        numerators come from the shared A² pass.
        """
        if self._local_clustering is None:
            degrees = self.graph.degrees.astype(np.float64)
            triangles = self.triangles_per_node.astype(np.float64)
            possible = degrees * (degrees - 1.0) / 2.0
            coefficients = np.zeros(self.graph.n_nodes, dtype=np.float64)
            eligible = possible > 0
            coefficients[eligible] = triangles[eligible] / possible[eligible]
            coefficients.setflags(write=False)
            self._local_clustering = coefficients
        return self._local_clustering

    @property
    def adjacency_float64(self) -> sp.csr_array:
        """The adjacency matrix as a float64 CSR (cached conversion).

        BFS (:mod:`repro.stats.hopplot`) needs a float matrix; converting
        the int8 adjacency costs O(E) and used to be repaid on every call.
        """
        if self._adjacency_float is None:
            global _float64_conversions
            _float64_conversions += 1
            self._adjacency_float = self.graph.adjacency.astype(np.float64).tocsr()
        return self._adjacency_float

    @property
    def svd_operand(self) -> sp.csc_array:
        """The float64 CSC adjacency ARPACK factorizes (cached conversion).

        Builds on :attr:`adjacency_float64`, so the spectral statistics
        and the hop plot share one int8→float64 conversion per graph.
        """
        if self._svd_operand is None:
            global _float64_conversions
            _float64_conversions += 1
            self._svd_operand = self.adjacency_float64.tocsc()
        return self._svd_operand

    @property
    def svd_cache(self) -> dict[int, tuple[np.ndarray, np.ndarray]]:
        """Truncated-SVD triplets keyed by requested rank ``k``.

        Populated by :mod:`repro.stats.spectral`: each entry is the
        read-only ``(singular values, principal right-singular vector)``
        pair for one ``k``, so the scree plot and the network values of a
        figure column cost one solver run between them.
        """
        return self._svd_cache


def stats_context(graph: Graph) -> StatsContext:
    """The memoized :class:`StatsContext` of ``graph`` (created on demand).

    The context rides on the graph instance itself (graphs are immutable
    value objects, so the cache can never go stale) and is dropped with it.
    """
    context = graph._stats
    if context is None:
        context = StatsContext(graph)
        graph._stats = context
    return context
