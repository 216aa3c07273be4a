"""The fused Metropolis-chain kernel for KronFit permutation sampling.

One KronFit fit runs on the order of 10⁵ Metropolis proposals over node
correspondences σ (see :mod:`repro.kronecker.likelihood`).  Executed as
individual Python steps, each proposal costs ~10 tiny numpy operations;
this module executes whole proposal *batches* inside compiled code.
:func:`multichain_block` advances S *independent* chains — each with its
own σ, score table, histogram, and pre-drawn proposal streams — in one
native call, parallelized *across chains* (OpenMP in C, ``numba.prange``
in the jit; both optional and inert when unavailable).  It is the only
chain kernel: a solo :class:`~repro.kronecker.likelihood.PermutationSampler`
runs it at S=1.  Four contracts make every execution engine bit-identical:

**The draw contract** (:func:`draw_proposal_batch`).  All randomness is
pre-drawn in numpy-land, once per sampler ``run`` call and chain:

1. ``i ← rng.integers(0, n, size)`` — one draw per proposal;
2. ``j ← rng.integers(0, n, size)``, then, while any ``i == j`` collision
   remains, redraw exactly the colliding ``j`` entries (in index order).
   Resampling only ``j`` keeps the proposal uniform over *distinct*
   ordered pairs, and means every proposal is a real swap — ``proposed``
   and ``acceptance_rate`` count actual proposals;
3. ``log u ← log(rng.random(size))`` — the acceptance thresholds, drawn
   after the collision loop settles.

Kernels only ever *consume* these streams, so stream consumption cannot
depend on the engine or on how a run is chunked into kernel batches.

**The score contract.**  A swap of σ(i) and σ(j) changes the edge term by
``Σ_cells Δcount[cell] · score[cell]`` where ``score = log P − log(1−P)``
per profile cell and ``Δcount`` is the *integer* profile-histogram change
— computed exactly (increments), hence order-independent.  The float
accumulation visits the *touched* cells in ascending index order,
skipping zero counts; the numpy reference performs the identical scan
(``np.unique`` yields ascending touched cells), so the sum sequence —
and therefore every accept/reject decision — is bit-identical across
engines.  (The cext build passes ``-ffp-contract=off`` so no FMA
contraction can perturb the rounding.)  The profile cell of a neighbor
is derived via the popcount identity
``popcount(id ^ w) = popcount(id) + popcount(w) − 2·popcount(id & w)``,
so each neighbor costs three popcounts and the row index
``z = (k − popcount(id)) − popcount(w) + o`` hoists the two
``k − popcount(id)`` terms out of the neighbor loops.  All quantities are
integers, so the touched cells are exactly those of the direct
``(k − x − o, o)`` derivation the numpy reference uses.  The C twin uses
the compiler's ``__builtin_popcountll`` (same values as the SWAR popcount
the Python twin keeps).

**The delta-scan contract.**  Every ``counts[]`` update records its cell
in a touched-cell event list (at most ``2·(deg i + deg j)`` events per
proposal); the per-proposal scan, histogram fold, and scratch reset all
walk that list instead of the full ``(k+1)²`` table.  A proposal on a
sparse graph therefore costs O(deg) rather than O(deg + k²).  Because any
cell with a nonzero count necessarily appears in the event list, sorting
the events and skipping duplicates reproduces the full ascending scan's
float accumulation sequence exactly.  ``stats_all[c]`` accumulates chain
``c``'s score-table touches (nonzero cells accumulated), which is how
tests prove the O(k²) rescan stays gone.

**The histogram contract.**  ``Δcount`` of an accepted swap is folded
into the persistent profile histogram, so the histogram is maintained
incrementally on touched edges only — no O(E) ``edge_profiles`` recompute
per permutation sample.

The kernel is registered twice (numba jit of :func:`multichain_block`,
and the identical C loop compiled via :mod:`repro.native.registry`, with
``-fopenmp`` and ``-mpopcnt`` as optional compile flags); the numpy
reference lives with :class:`~repro.kronecker.likelihood.PermutationSampler`.
Threads only shard whole chains, so chain ``c`` of a batched call is
bit-identical to its solo trajectory for any chain count, batch size, or
thread count.  The equivalence matrices
(``tests/kronecker/test_chain_equivalence.py`` and
``test_multichain_equivalence.py``) pin every backend × batch size ×
graph family × θ cell to identical σ trajectories, histograms, and
acceptance counts.
"""

from __future__ import annotations

import ctypes
from typing import Callable

import numpy as np

from repro.errors import ValidationError
from repro.native.registry import (
    NativeKernel,
    available_backends,
    resolve_backend,
)

try:  # numba.prange parallelizes under njit(parallel=True); without
    # numba the plain function still runs — prange degrades to range.
    from numba import prange
except ImportError:  # pragma: no cover - exercised on numba-less hosts
    prange = range

__all__ = [
    "draw_proposal_batch",
    "MULTICHAIN_KERNEL",
    "multichain_block",
    "multichain_backend_available",
    "multichain_backend_error",
    "multichain_kernel",
    "resolve_multichain_backend",
    "resolve_chain_backend",
    "available_multichain_backends",
]


def draw_proposal_batch(
    rng: np.random.Generator, n_nodes: int, size: int
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Pre-draw ``size`` Metropolis proposals: ``(i, j, log u)`` streams.

    This function *is* the draw contract (see the module docstring): every
    chain engine consumes these arrays verbatim, so trajectories cannot
    depend on the engine or the kernel batch size.  Requires ``n_nodes >= 2``
    (with one node no distinct pair exists).
    """
    if n_nodes < 2:
        raise ValidationError(
            f"proposal draws need at least 2 nodes, got {n_nodes}"
        )
    i_nodes = rng.integers(0, n_nodes, size=size, dtype=np.int64)
    j_nodes = rng.integers(0, n_nodes, size=size, dtype=np.int64)
    while True:
        collisions = np.flatnonzero(i_nodes == j_nodes)
        if collisions.size == 0:
            break
        j_nodes[collisions] = rng.integers(
            0, n_nodes, size=collisions.size, dtype=np.int64
        )
    # rng.random() may return exactly 0.0 (probability 2^-53): log u is
    # -inf, which accepts — matching u < exp(delta) for any finite delta.
    with np.errstate(divide="ignore"):
        log_u = np.log(rng.random(size=size))
    return i_nodes, j_nodes, log_u


def multichain_block(
    indptr,
    indices,
    n_chains,
    n_nodes,
    sigma_all,
    k,
    score_all,
    hist_all,
    counts_all,
    touched_all,
    touched_len,
    stats_all,
    i_all,
    j_all,
    u_all,
    stream_len,
    start,
    stop,
    accepted_all,
    n_threads,
):
    """Execute proposals ``[start, stop)`` of S pre-drawn streams in place.

    Stacked per-chain state is passed as flat C-contiguous arrays: chain
    ``c`` owns ``sigma_all[c·n_nodes:]``, the ``(k+1)²``-long slices of
    ``score_all`` / ``hist_all`` / ``counts_all`` at ``c·(k+1)²``, the
    ``touched_len``-long event scratch at ``c·touched_len``, and the
    draw-contract streams ``i_all``/``j_all``/``u_all`` at
    ``c·stream_len``.  ``accepted_all[c]`` is *set* to the number of
    accepted swaps of this call (the caller accumulates);
    ``stats_all[c]`` accumulates chain ``c``'s score-table touches.
    The event scratch must be at least ``2·(deg i + deg j)`` long for any
    proposal (``4·max_degree`` suffices), and ``counts_all`` starts and
    ends all-zero.  ``n_threads`` only shards chains across OpenMP/numba
    threads — per-chain arithmetic is untouched, so results are
    bit-identical for any thread count.  Returns the total accepted
    across chains.
    """

    def popcount(v):
        # Branch-free SWAR popcount; the C twin uses the compiler
        # builtin, which returns identical values for Kronecker ids.
        v = v - ((v >> 1) & 0x5555555555555555)
        v = (v & 0x3333333333333333) + ((v >> 2) & 0x3333333333333333)
        v = (v + (v >> 4)) & 0x0F0F0F0F0F0F0F0F
        v = v + (v >> 8)
        v = v + (v >> 16)
        v = v + (v >> 32)
        return v & 0x7F

    n_cells = (k + 1) * (k + 1)
    for c in prange(n_chains):
        s0 = c * n_nodes
        g0 = c * n_cells
        t0 = c * touched_len
        d0 = c * stream_len
        accepted = 0
        touches = 0
        for t in range(start, stop):
            i = i_all[d0 + t]
            j = j_all[d0 + t]
            id_i = sigma_all[s0 + i]
            id_j = sigma_all[s0 + j]
            # Popcount identity: cell row z = (k − pc(id)) − pc(wid) + o,
            # so the two k − pc(id) terms hoist out of the neighbor loops
            # and each neighbor costs three popcounts instead of four.
            zi = k - popcount(id_i)
            zj = k - popcount(id_j)
            n_touched = 0
            for idx in range(indptr[i], indptr[i + 1]):
                w = indices[idx]
                if w == j:
                    continue
                wid = sigma_all[s0 + w]
                zw = zi - popcount(wid)
                o = popcount(id_i & wid)
                cell = (zw + o) * (k + 1) + o
                counts_all[g0 + cell] -= 1
                touched_all[t0 + n_touched] = cell
                n_touched += 1
                o = popcount(id_j & wid)
                cell = (zw - zi + zj + o) * (k + 1) + o
                counts_all[g0 + cell] += 1
                touched_all[t0 + n_touched] = cell
                n_touched += 1
            for idx in range(indptr[j], indptr[j + 1]):
                w = indices[idx]
                if w == i:
                    continue
                wid = sigma_all[s0 + w]
                zw = zj - popcount(wid)
                o = popcount(id_j & wid)
                cell = (zw + o) * (k + 1) + o
                counts_all[g0 + cell] -= 1
                touched_all[t0 + n_touched] = cell
                n_touched += 1
                o = popcount(id_i & wid)
                cell = (zw - zj + zi + o) * (k + 1) + o
                counts_all[g0 + cell] += 1
                touched_all[t0 + n_touched] = cell
                n_touched += 1
            for a in range(1, n_touched):
                key = touched_all[t0 + a]
                b = a - 1
                while b >= 0 and touched_all[t0 + b] > key:
                    touched_all[t0 + b + 1] = touched_all[t0 + b]
                    b -= 1
                touched_all[t0 + b + 1] = key
            delta = 0.0
            previous = -1
            for a in range(n_touched):
                cell = touched_all[t0 + a]
                if cell == previous:
                    continue
                previous = cell
                if counts_all[g0 + cell] != 0:
                    delta += counts_all[g0 + cell] * score_all[g0 + cell]
                    touches += 1
            if delta >= 0.0 or u_all[d0 + t] < delta:
                sigma_all[s0 + i] = id_j
                sigma_all[s0 + j] = id_i
                accepted += 1
                for a in range(n_touched):
                    cell = touched_all[t0 + a]
                    if counts_all[g0 + cell] != 0:
                        hist_all[g0 + cell] += counts_all[g0 + cell]
                        counts_all[g0 + cell] = 0
            else:
                for a in range(n_touched):
                    counts_all[g0 + touched_all[t0 + a]] = 0
        accepted_all[c] = accepted
        stats_all[c] += touches
    total = 0
    for c in range(n_chains):
        total += accepted_all[c]
    return total


# The cext twin of multichain_block.  Kept in lockstep with the Python
# loop nest above; the only deviations are the compiler-builtin popcount
# (identical values) and the OpenMP pragma (inert without -fopenmp, and
# chains are data-independent, so threading never changes results).
_MULTICHAIN_C_SOURCE = """\
#include <stdint.h>

int64_t repro_multichain_block(
    const int32_t *indptr,
    const int32_t *indices,
    int64_t n_chains,
    int64_t n_nodes,
    int64_t *sigma_all,
    int64_t k,
    const double *score_all,
    int64_t *hist_all,
    int64_t *counts_all,
    int64_t *touched_all,
    int64_t touched_len,
    int64_t *stats_all,
    const int64_t *i_all,
    const int64_t *j_all,
    const double *u_all,
    int64_t stream_len,
    int64_t start,
    int64_t stop,
    int64_t *accepted_all,
    int64_t n_threads)
{
    int64_t n_cells = (k + 1) * (k + 1);
    int nt = n_threads > 0 ? (int)n_threads : 1;
    (void)nt;
#pragma omp parallel for num_threads(nt) schedule(static)
    for (int64_t c = 0; c < n_chains; c++) {
        int64_t *sigma = sigma_all + c * n_nodes;
        const double *score = score_all + c * n_cells;
        int64_t *hist = hist_all + c * n_cells;
        int64_t *counts = counts_all + c * n_cells;
        int64_t *touched = touched_all + c * touched_len;
        const int64_t *i_nodes = i_all + c * stream_len;
        const int64_t *j_nodes = j_all + c * stream_len;
        const double *log_u = u_all + c * stream_len;
        int64_t accepted = 0;
        int64_t touches = 0;
        for (int64_t t = start; t < stop; t++) {
            int64_t i = i_nodes[t];
            int64_t j = j_nodes[t];
            int64_t id_i = sigma[i];
            int64_t id_j = sigma[j];
            int64_t o, wid, cell;
            int64_t zi = k - __builtin_popcountll((uint64_t)id_i);
            int64_t zj = k - __builtin_popcountll((uint64_t)id_j);
            int64_t n_touched = 0;
            for (int32_t idx = indptr[i]; idx < indptr[i + 1]; idx++) {
                int32_t w = indices[idx];
                if (w == j) {
                    continue;
                }
                wid = sigma[w];
                int64_t zw = zi - __builtin_popcountll((uint64_t)wid);
                o = __builtin_popcountll((uint64_t)(id_i & wid));
                cell = (zw + o) * (k + 1) + o;
                counts[cell] -= 1;
                touched[n_touched++] = cell;
                o = __builtin_popcountll((uint64_t)(id_j & wid));
                cell = (zw - zi + zj + o) * (k + 1) + o;
                counts[cell] += 1;
                touched[n_touched++] = cell;
            }
            for (int32_t idx = indptr[j]; idx < indptr[j + 1]; idx++) {
                int32_t w = indices[idx];
                if (w == i) {
                    continue;
                }
                wid = sigma[w];
                int64_t zw = zj - __builtin_popcountll((uint64_t)wid);
                o = __builtin_popcountll((uint64_t)(id_j & wid));
                cell = (zw + o) * (k + 1) + o;
                counts[cell] -= 1;
                touched[n_touched++] = cell;
                o = __builtin_popcountll((uint64_t)(id_i & wid));
                cell = (zw - zj + zi + o) * (k + 1) + o;
                counts[cell] += 1;
                touched[n_touched++] = cell;
            }
            for (int64_t a = 1; a < n_touched; a++) {
                int64_t key = touched[a];
                int64_t b = a - 1;
                while (b >= 0 && touched[b] > key) {
                    touched[b + 1] = touched[b];
                    b -= 1;
                }
                touched[b + 1] = key;
            }
            double delta = 0.0;
            int64_t previous = -1;
            for (int64_t a = 0; a < n_touched; a++) {
                cell = touched[a];
                if (cell == previous) {
                    continue;
                }
                previous = cell;
                if (counts[cell] != 0) {
                    delta += (double)counts[cell] * score[cell];
                    touches += 1;
                }
            }
            if (delta >= 0.0 || log_u[t] < delta) {
                sigma[i] = id_j;
                sigma[j] = id_i;
                accepted += 1;
                for (int64_t a = 0; a < n_touched; a++) {
                    cell = touched[a];
                    if (counts[cell] != 0) {
                        hist[cell] += counts[cell];
                        counts[cell] = 0;
                    }
                }
            } else {
                for (int64_t a = 0; a < n_touched; a++) {
                    counts[touched[a]] = 0;
                }
            }
        }
        accepted_all[c] = accepted;
        stats_all[c] += touches;
    }
    int64_t total = 0;
    for (int64_t c = 0; c < n_chains; c++) {
        total += accepted_all[c];
    }
    return total;
}
"""


def _multichain_smoke_test(kernel: Callable) -> None:
    """Run the kernel on a hand-checked three-chain, 4-proposal batch.

    Three chains on the path graph 0–1–2–3 at k=2 with different σ,
    synthetic score tables, and acceptance thresholds; chain 0 accepts a
    below-threshold negative delta, two non-negative deltas, then rejects
    a negative delta above its threshold.  The expected σ, histograms,
    touch counts, and acceptances were captured from the retired
    single-chain kernel, one chain at a time.  Runs with ``n_threads=2``
    to exercise the threaded path at probe time, catches a miscompiled or
    ABI-mismatched kernel, and doubles as the numba warm-up compile.
    """
    indptr = np.array([0, 1, 3, 5, 6], dtype=np.int32)
    indices = np.array([1, 0, 2, 1, 3, 2], dtype=np.int32)
    base_score = np.array(
        [0.5, -0.25, 0.125, 1.5, 0.0, 0.0, 0.0, 0.0, 0.0], dtype=np.float64
    )
    sigma = np.array([[0, 1, 2, 3], [1, 0, 3, 2], [3, 1, 2, 0]], dtype=np.int64)
    score = np.stack([base_score, -base_score, 0.5 * base_score])
    i_nodes = np.tile(np.array([1, 0, 0, 0], dtype=np.int64), (3, 1))
    j_nodes = np.tile(np.array([3, 2, 1, 1], dtype=np.int64), (3, 1))
    log_u = np.array(
        [
            [-2.0, -0.5, -0.5, -0.5],
            [-0.5, -0.5, -0.5, -0.5],
            [-0.01, -3.0, -0.01, -3.0],
        ],
        dtype=np.float64,
    )
    hist = np.zeros((3, 9), dtype=np.int64)
    counts = np.zeros((3, 9), dtype=np.int64)
    touched = np.zeros((3, 16), dtype=np.int64)
    stats = np.zeros(3, dtype=np.int64)
    accepted = np.zeros(3, dtype=np.int64)
    total = int(
        kernel(
            indptr, indices, 3, 4, sigma.ravel(), 2, score.ravel(),
            hist.ravel(), counts.ravel(), touched.ravel(), 16, stats,
            i_nodes.ravel(), j_nodes.ravel(), log_u.ravel(), 4, 0, 4,
            accepted, 2,
        )
    )
    expected_hist = np.zeros((3, 9), dtype=np.int64)
    expected_hist[0, [0, 3]] = (-1, 1)
    expected_hist[1, [0, 3]] = (1, -1)
    expected_hist[2, [0, 1]] = (-1, 1)
    if (
        total != 9
        or accepted.tolist() != [3, 3, 3]
        or sigma.tolist() != [[3, 2, 0, 1], [1, 2, 3, 0], [0, 2, 3, 1]]
        or not np.array_equal(hist, expected_hist)
        or stats.tolist() != [8, 4, 8]
    ):
        raise RuntimeError(
            f"multichain kernel self-check failed: total={total}, "
            f"accepted={accepted.tolist()}, sigma={sigma.tolist()}, "
            f"hist={hist.tolist()}, stats={stats.tolist()}"
        )
    if counts.any():
        raise RuntimeError(
            "multichain kernel self-check failed: counts not zeroed"
        )


_INT32_ARG = np.ctypeslib.ndpointer(np.int32, flags="C_CONTIGUOUS")
_INT64_ARG = np.ctypeslib.ndpointer(np.int64, flags="C_CONTIGUOUS")
_FLOAT64_ARG = np.ctypeslib.ndpointer(np.float64, flags="C_CONTIGUOUS")

MULTICHAIN_KERNEL = NativeKernel(
    name="multichain",
    python_impl=multichain_block,
    c_source=_MULTICHAIN_C_SOURCE,
    c_symbol="repro_multichain_block",
    c_restype=ctypes.c_int64,
    c_argtypes=[
        _INT32_ARG,  # indptr
        _INT32_ARG,  # indices
        ctypes.c_int64,  # n_chains
        ctypes.c_int64,  # n_nodes
        _INT64_ARG,  # sigma_all (flat S x n_nodes)
        ctypes.c_int64,  # k
        _FLOAT64_ARG,  # score_all (flat S x (k+1)^2)
        _INT64_ARG,  # hist_all (flat S x (k+1)^2)
        _INT64_ARG,  # counts_all scratch (flat S x (k+1)^2)
        _INT64_ARG,  # touched_all scratch (flat S x touched_len)
        ctypes.c_int64,  # touched_len
        _INT64_ARG,  # stats_all (per-chain touch accumulators)
        _INT64_ARG,  # i_all (flat S x stream_len)
        _INT64_ARG,  # j_all
        _FLOAT64_ARG,  # u_all
        ctypes.c_int64,  # stream_len
        ctypes.c_int64,  # start
        ctypes.c_int64,  # stop
        _INT64_ARG,  # accepted_all (per-chain, set per call)
        ctypes.c_int64,  # n_threads
    ],
    smoke_test=_multichain_smoke_test,
    numba_parallel=True,
    c_optional_flags=("-fopenmp", "-mpopcnt"),
)


def multichain_backend_available(name: str) -> bool:
    """Whether the fused multichain backend ``name`` can run here."""
    return MULTICHAIN_KERNEL.available(name)


def multichain_backend_error(name: str) -> str | None:
    """Why ``name`` is unavailable (None when it is available)."""
    return MULTICHAIN_KERNEL.error(name)


def multichain_kernel(name: str) -> Callable:
    """The batch kernel of an *available* fused multichain backend.

    The callable has the :func:`multichain_block` signature and contract.
    """
    return MULTICHAIN_KERNEL.kernel(name)


def resolve_multichain_backend(backend: str | None = None) -> str:
    """The concrete chain engine: argument, else ``REPRO_KERNEL_BACKEND``.

    Returns one of ``numpy`` (the pure-Python reference inside
    :class:`~repro.kronecker.likelihood.PermutationSampler`), ``numba``,
    or ``cext``.  ``auto`` prefers the fused engines and falls back to
    ``numpy``; ``scipy`` (the counting knob's reference name) is accepted
    as an alias for ``numpy``, so one environment value drives both
    kernel families.  Naming an unavailable engine raises
    :class:`ValidationError` with the reason.  Every engine and thread
    count produces bit-identical chains; the knob only selects speed.
    """
    return resolve_backend(MULTICHAIN_KERNEL, backend, reference="numpy")


# Solo and batched samplers run the same kernel, so they share one knob.
resolve_chain_backend = resolve_multichain_backend


def available_multichain_backends() -> tuple[str, ...]:
    """The multichain engines that can run here (numpy always can)."""
    return available_backends(MULTICHAIN_KERNEL, "numpy")
