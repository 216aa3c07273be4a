"""The fused Metropolis-chain kernel for KronFit permutation sampling.

One KronFit fit runs on the order of 10⁵ Metropolis proposals over node
correspondences σ (see :mod:`repro.kronecker.likelihood`).  Executed as
individual Python steps, each proposal costs ~10 tiny numpy operations;
this module executes whole proposal streams inside compiled code.
``repro_multichain_block`` advances S *independent* chains — each with
its own σ, score table, histogram, and pre-drawn proposal streams — in
one native call per run and contiguous range of chains, which releases
the interpreter lock.  It is the only chain kernel, and its only caller is
:class:`~repro.kronecker.likelihood.MultiChainSampler`, which owns every
chain's state (a solo :class:`~repro.kronecker.likelihood.PermutationSampler`
is a view of a one-chain ensemble, so it runs the kernel at S=1).
Five contracts make the C engine bit-identical to the numpy reference:

**The draw contract** (:func:`draw_proposal_batch`).  A sampler ``run``
splits its proposals into segments — a warm-up, then any sample segments
(see :meth:`~repro.kronecker.likelihood.MultiChainSampler.run`) — and
every segment of every chain is drawn before any proposal runs: segment
by segment, and within a segment chain by chain, each from its chain's
generator:

1. ``i ← rng.integers(0, n, size)`` — one draw per proposal;
2. ``j ← rng.integers(0, n, size)``, then, while any ``i == j`` collision
   remains, redraw exactly the colliding ``j`` entries (in index order).
   Resampling only ``j`` keeps the proposal uniform over *distinct*
   ordered pairs, and means every proposal is a real swap — ``proposed``
   and ``acceptance_rate`` count actual proposals;
3. ``log u ← log(rng.random(size))`` — the acceptance thresholds, drawn
   after the collision loop settles.

The numpy engine draws each segment with :func:`draw_proposal_batch`,
which is also the oracle.  The cext engine makes the same calls in C
through each generator's public ``bitgen_t``
(:func:`draw_proposal_streams`): numpy's 32-bit Lemire bounded draw on
``next_uint32`` for ``i`` and ``j``, ``next_double`` for ``u``.  It
takes every segment of a run in one call, with each distinct generator's
lock held once, so chains may share a generator.  Only the ``log`` stays
in numpy, one call over the whole buffer: numpy's vectorized ``log``
rounds differently from the C library's on a small share of inputs, and
it gives each element the same value whatever the array's length or the
element's position in it.  Kernels only ever *consume* the streams, so
stream consumption cannot depend on the engine or on how a run's chains
are cut into ranges.

**The score contract.**  A swap of σ(i) and σ(j) changes the edge term by
``Σ_cells Δcount[cell] · score[cell]`` where ``score = log P − log(1−P)``
per profile cell and ``Δcount`` is the *integer* profile-histogram change
— computed exactly (increments), hence order-independent.  The float
accumulation visits the *touched* cells in ascending index order; the
numpy reference performs the identical scan (``np.unique`` yields
ascending touched cells).  It skips zero counts, which the kernel adds:
scores are finite, so a zero count adds ±0.0 to a sum that starts at
+0.0 and so is never −0.0, which changes nothing.  The sum sequence —
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
the compiler's ``__builtin_popcountll``.

**The delta-scan contract.**  Each chain's integer count deltas live in
a stack array the kernel owns, zeroed once per chain per call.  Every
``counts[]`` update sets its cell's bit in a per-chain stack bitmap of
the ``(k+1)²`` profile cells
(:data:`CHAIN_BITMAP_WORDS` words, so k ≤ 63).  The delta scan walks
its set bits once, in ascending order with ``__builtin_ctzll``: O(deg i
+ deg j + (k+1)²/64) per proposal, and no sort of the ``2·(deg i + deg
j)`` cell events that a heavy-tailed graph's hubs make by the hundred.
The walk visits exactly the distinct touched cells in ascending order —
the numpy reference's ``np.unique`` sequence — and every nonzero-count
cell is among them, so the float accumulation sequence equals the full
ascending scan's.  At each cell the scan zeroes the count, adds it to the
delta without a branch, and lists ``(cell, count)``, keeping the entry
only for a nonzero count; each bitmap word is cleared once walked.
``stats_all[c]`` accumulates chain ``c``'s list lengths (score-table
touches), which is how tests prove the O(k²) rescan stays gone.

**The histogram contract.**  An accepted swap adds the delta scan's list
into the persistent profile histogram, so the histogram is maintained
incrementally on touched edges only — no O(E) ``edge_profiles`` recompute
per permutation sample.  At the end of each sample segment the kernel
copies every chain's histogram into a snapshot buffer, so one call runs
a KronFit iteration's warm-up and all its samples.

**The step contract.**  In step mode the same call then takes the
iteration's gradient step, chain by chain within its range: it scores
the snapshots as
:func:`~repro.kronecker.likelihood.profile_log_likelihoods` does,
averages them and moves Θ as :func:`~repro.kronecker.likelihood.ascent_step`
does, bit for bit.  Three rules make that possible.  Each score row and
each of the three gradient rows is summed in numpy's float64 reduction
order, ``0.0 + pairwise(a, n)``: sequential below 8 elements, 8
accumulators combined as ``((r0+r1)+(r2+r3))+((r4+r5)+(r6+r7))`` up to
128, else halves split at ``n/2`` rounded down to a multiple of 8.  The
empty-graph term and its gradient call libm ``pow`` through a volatile
pointer (gcc may not fold ``pow(x, 2.0)``), in Python's operation order,
as :mod:`repro.native.kronmom` does.  And the sup-norm and the clip keep
numpy's NaN rules: a NaN gradient does not move, and ``np.clip`` passes
a NaN through.  Everything else is IEEE basic arithmetic.  The
transcendentals stay numpy's: the ``log`` of Θ, the ``exp`` and the
``log1p`` of the tables (built between calls) and the ``log`` of the
uniforms.  The kernel's C source calls none of them.

The C loop is compiled via :mod:`repro.native.registry`, with
``-mpopcnt`` as an optional compile flag; the numpy reference lives with
:class:`~repro.kronecker.likelihood.MultiChainSampler`.
Chain ranges only shard whole chains, so chain ``c`` of a batched call is
bit-identical to its solo trajectory for any chain count or thread
count.  The equivalence matrices
(``tests/kronecker/test_chain_equivalence.py`` and
``test_multichain_equivalence.py``) pin every backend × graph family ×
θ cell to identical σ trajectories, histograms, and acceptance counts.
"""

from __future__ import annotations

import ctypes
import functools
from typing import Callable

import numpy as np

from repro.errors import ValidationError
from repro.native.registry import NativeKernel, buffer_addresses
from repro.native.sampling import BITGEN_T_C, bitgen_pointers

__all__ = [
    "CHAIN_BITMAP_WORDS",
    "bind_proposal_draw",
    "draw_proposal_batch",
    "draw_proposal_streams",
    "MULTICHAIN_KERNEL",
    "resolve_multichain_backend",
    "resolve_chain_backend",
]


def draw_proposal_batch(
    rng: np.random.Generator, n_nodes: int, size: int
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Pre-draw ``size`` Metropolis proposals: ``(i, j, log u)`` streams.

    This function *is* the draw contract (see the module docstring): every
    chain engine consumes these arrays verbatim, so trajectories cannot
    depend on the engine.  Requires ``n_nodes >= 2``
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


# Words in each chain's stack bitmap of touched profile cells: (k+1)²
# bits fit for every k ≤ 63, the width of an int64 Kronecker id.
CHAIN_BITMAP_WORDS = 64

# The modes of repro_multichain_block.
_RUN = 0
_DRAW = 1
_STEP = 2

# repro_multichain_block works on S chains' stacked state, passed as flat
# C-contiguous arrays: chain c owns sigma_all[c·n_nodes:], the
# (k+1)²-long slices of score_all / hist_all at c·(k+1)², and the
# draw-contract streams i_all / j_all / u_all at c·stream_len.
# ends[0..n_ends) are the ascending ends of a run's segments within every
# stream.  Arrays are raw addresses, checked (dtype, C-contiguity) when
# the caller binds them with registry.buffer_addresses, and NULL where a
# mode does not read them.  The mode argument picks what the call does.
#
# Draw mode fills the streams by the draw contract, chain c from
# bitgens[c], and leaves raw uniforms in u_all for the caller's log; the
# caller holds the generators' locks.  Collisions are redrawn in passes,
# each redrawing (in index order) the j of every collision the previous
# pass left: numpy's rounds of flatnonzero(i == j).  Returns 0, or −1
# when n_nodes is outside [2, 2³² − 1].
#
# Run mode executes every proposal [0, stream_len) of chains
# [c_begin, c_end) in place; n_chains stays the row stride of the
# snapshots.  accepted_all[c] accumulates chain c's accepted swaps and
# stats_all[c] its score-table touches.  Each chain's count deltas live
# in a stack array, zeroed once per chain per call; every counts[]
# update sets its cell's bit in the chain's stack bitmap, walked once in
# ascending order by the delta scan, which zeroes counts and words and
# lists the nonzero counts that an accepted swap adds into hist (see the
# delta-scan contract).  The last n_snapshots segments are
# sample segments: once proposal ends[g] − 1 of one has run, chain c
# copies its histogram to row (g − n_ends + n_snapshots)·S + c of
# snapshots.  Chains are data-independent, so calls on disjoint ranges
# may run concurrently, and results are bit-identical however the chains
# are cut.  Returns the total accepted across the range.
#
# Step mode is run mode plus the step contract: chain c then scores its
# snapshots rows with its score and p_all rows under its Θ row
# theta_all[3c..3c+3), and writes stepped_all[4c..4c+4): the mean
# log-likelihood, then the stepped Θ.  Stream_len 0 scores them as given.
_MULTICHAIN_C_SOURCE = (
    f"#define BITMAP_WORDS {CHAIN_BITMAP_WORDS}\n#define DRAW_MODE {_DRAW}\n"
    f"#define STEP_MODE {_STEP}\n"
    + """\
#include <math.h>
#include <stdint.h>
#include <string.h>

"""
    + BITGEN_T_C
    + """
/* numpy's bounded draw from [0, rng] for rng < 2^32 - 1: Lemire's method
   on next_uint32, as random_bounded_uint64_fill makes it. */
static inline int64_t bounded_draw(bitgen_t *bitgen, uint32_t rng)
{
    uint32_t rng_excl = rng + 1;
    uint64_t m = (uint64_t)bitgen->next_uint32(bitgen->state) * rng_excl;
    uint32_t leftover = (uint32_t)m;
    if (leftover < rng_excl) {
        uint32_t threshold = (UINT32_MAX - rng) % rng_excl;
        while (leftover < threshold) {
            m = (uint64_t)bitgen->next_uint32(bitgen->state) * rng_excl;
            leftover = (uint32_t)m;
        }
    }
    return (int64_t)(m >> 32);
}

/* One segment of one chain, drawn as draw_proposal_batch draws it. */
static void draw_segment(bitgen_t *bitgen, uint32_t rng, int64_t size,
    int64_t *i_nodes, int64_t *j_nodes, double *u)
{
    for (int64_t t = 0; t < size; t++) {
        i_nodes[t] = bounded_draw(bitgen, rng);
    }
    for (int64_t t = 0; t < size; t++) {
        j_nodes[t] = bounded_draw(bitgen, rng);
    }
    for (int redrawn = 1; redrawn;) {
        redrawn = 0;
        for (int64_t t = 0; t < size; t++) {
            if (i_nodes[t] == j_nodes[t]) {
                j_nodes[t] = bounded_draw(bitgen, rng);
                redrawn = 1;
            }
        }
    }
    for (int64_t t = 0; t < size; t++) {
        u[t] = bitgen->next_double(bitgen->state);
    }
}

/* libm pow through a volatile pointer: gcc may not fold pow(x, 2.0) into
   x*x, which can differ from the pow call Python's float ** int makes. */
static double (*volatile libm_pow)(double, double) = pow;

/* numpy's float64 pairwise sum (DOUBLE_pairwise_sum): a sequential sum
   below 8 elements, 8 accumulators up to 128, else halves split at a
   multiple of 8.  A row's np.sum is 0.0 + pairwise(row). */
static double pairwise(const double *a, int64_t n)
{
    if (n > 128) {
        int64_t n2 = n / 2 - (n / 2) % 8;
        return pairwise(a, n2) + pairwise(a + n2, n - n2);
    }
    double r[8] = {0.0}, res = 0.0;
    int64_t i = 0;
    if (n >= 8) {
        for (int q = 0; q < 8; q++) r[q] = a[q];
        for (i = 8; i < n - n % 8; i += 8)
            for (int q = 0; q < 8; q++) r[q] += a[i + q];
        res = ((r[0] + r[1]) + (r[2] + r[3])) + ((r[4] + r[5]) + (r[6] + r[7]));
    }
    for (; i < n; i++) res += a[i];
    return res;
}

/* One chain's step (the step contract) from its n_samples histograms at
   snaps + s*stride, under the Θ row theta, clamped as clamped_rows does
   and clipped as ascent_step does: out gets the mean value, then the row.
   inv_1mp and terms are (k+1)^2-double scratch rows. */
static void step_chain(int64_t k, int64_t n_samples, const int64_t *snaps,
    int64_t stride, const double *score, const double *p, const double *theta,
    double step_scale, double *out, double *inv_1mp, double *terms)
{
    int64_t n_cells = (k + 1) * (k + 1);
    double abc[3];
    for (int r = 0; r < 3; r++) {
        abc[r] = theta[r] < 1e-6 ? 1e-6 : theta[r];
        abc[r] = abc[r] > 1.0 - 1e-6 ? 1.0 - 1e-6 : abc[r];
    }
    for (int64_t i = 0; i < n_cells; i++) {
        double q = 1.0 - p[i];
        inv_1mp[i] = 1.0 / (q < 1.0 - (1.0 - 1e-6) ? 1.0 - (1.0 - 1e-6) : q);
    }
    double a = abc[0], b = abc[1], c = abc[2], kd = (double)k;
    double bases[4] = {a + 2.0 * b + c, a + c,
        libm_pow(a, 2.0) + 2.0 * libm_pow(b, 2.0) + libm_pow(c, 2.0),
        libm_pow(a, 2.0) + libm_pow(c, 2.0)};
    double s1 = libm_pow(bases[0], kd), d1 = libm_pow(bases[1], kd);
    double s2 = libm_pow(bases[2], kd), d2 = libm_pow(bases[3], kd);
    double empty = -(s1 - d1) / 2.0 - (s2 - d2) / 4.0;
    s1 = libm_pow(bases[0], kd - 1.0), d1 = libm_pow(bases[1], kd - 1.0);
    s2 = libm_pow(bases[2], kd - 1.0), d2 = libm_pow(bases[3], kd - 1.0);
    double empty_gradient[3] = {
        -kd * (s1 - d1) / 2.0 - kd * (2.0 * a * s2 - 2.0 * a * d2) / 4.0,
        -kd * (2.0 * s1) / 2.0 - kd * (4.0 * b * s2) / 4.0,
        -kd * (s1 - d1) / 2.0 - kd * (2.0 * c * s2 - 2.0 * c * d2) / 4.0};
    double value = 0.0, gradient[3] = {0.0, 0.0, 0.0};
    for (int64_t s = 0; s < n_samples; s++) {
        const int64_t *h = snaps + s * stride;
        for (int64_t i = 0; i < n_cells; i++) terms[i] = (double)h[i] * score[i];
        value += (0.0 + pairwise(terms, n_cells)) + empty;
        for (int r = 0; r < 3; r++) {
            /* Row r of the (z, x, o) cell counts, x clamped at 0. */
            for (int64_t z = 0, i = 0; z <= k; z++) {
                for (int64_t o = 0; o <= k; o++, i++) {
                    int64_t count = r == 0 ? z : r == 2 ? o : k - z - o > 0 ? k - z - o : 0;
                    terms[i] = ((double)h[i] * inv_1mp[i]) * (double)count;
                }
            }
            gradient[r] += (0.0 + pairwise(terms, n_cells)) / abc[r] + empty_gradient[r];
        }
    }
    double sup = 0.0;
    int unordered = 0;
    for (int r = 0; r < 3; r++) {
        gradient[r] /= (double)n_samples;
        double magnitude = fabs(gradient[r]);
        unordered |= magnitude != magnitude;
        sup = magnitude > sup ? magnitude : sup;
    }
    out[0] = value / (double)n_samples;
    for (int r = 0; r < 3; r++) {
        double row = theta[r];
        if (!unordered && sup > 0.0) {
            row = row + step_scale * gradient[r] / sup;
            if (row == row) { /* np.clip keeps a NaN */
                row = row < 0.001 ? 0.001 : row > 0.999 ? 0.999 : row;
            }
        }
        out[1 + r] = row;
    }
}

int64_t repro_multichain_block(
    int64_t mode,
    const int32_t *indptr,
    const int32_t *indices,
    int64_t n_chains,
    int64_t n_nodes,
    int64_t *sigma_all,
    int64_t k,
    const double *score_all,
    int64_t *hist_all,
    int64_t *stats_all,
    int64_t *i_all,
    int64_t *j_all,
    double *u_all,
    int64_t stream_len,
    const int64_t *ends,
    int64_t n_ends,
    int64_t n_snapshots,
    int64_t *snapshots,
    bitgen_t *const *bitgens,
    int64_t *accepted_all,
    const double *p_all,
    const double *theta_all,
    double *stepped_all,
    double step_scale,
    int64_t c_begin,
    int64_t c_end)
{
    if (mode == DRAW_MODE) {
        if (n_nodes < 2 || n_nodes > (int64_t)UINT32_MAX) {
            return -1;
        }
        int64_t begin = 0;
        for (int64_t g = 0; g < n_ends; g++) {
            for (int64_t c = 0; c < n_chains; c++) {
                int64_t offset = c * stream_len + begin;
                draw_segment(bitgens[c], (uint32_t)(n_nodes - 1), ends[g] - begin,
                    i_all + offset, j_all + offset, u_all + offset);
            }
            begin = ends[g];
        }
        return 0;
    }
    int64_t n_cells = (k + 1) * (k + 1);
    int64_t n_words = (n_cells + 63) >> 6;
    int64_t first_snapshot = n_ends - n_snapshots;
    int64_t total = 0;
    for (int64_t c = c_begin; c < c_end; c++) {
        int64_t *sigma = sigma_all + c * n_nodes;
        const double *score = score_all + c * n_cells;
        int64_t *hist = hist_all + c * n_cells;
        const int64_t *i_nodes = i_all + c * stream_len;
        const int64_t *j_nodes = j_all + c * stream_len;
        const double *log_u = u_all + c * stream_len;
        int64_t counts[64 * BITMAP_WORDS];
        memset(counts, 0, (size_t)n_cells * sizeof(int64_t));
        uint64_t touched[BITMAP_WORDS] = {0};
        /* The scan's (cell, count) fold list.  Each visited cell writes
           slot n_folds, below the number of cells visited so far, so
           (k+1)^2 <= 64 * BITMAP_WORDS slots suffice.  The step's scratch
           rows reuse its storage once the proposals are done. */
        union {
            struct { int64_t cell, cnt; } folds[64 * BITMAP_WORDS];
            double rows[2][64 * BITMAP_WORDS];
        } scratch;
        int64_t accepted = 0;
        int64_t touches = 0;
        int64_t g = first_snapshot;
        for (int64_t t = 0; t < stream_len; t++) {
            /* The streams are drawn: fetch proposal t+8's σ and indptr
               entries and proposal t+4's CSR rows ahead of their use. */
            if (t + 8 < stream_len) {
                __builtin_prefetch(sigma + i_nodes[t + 8]);
                __builtin_prefetch(sigma + j_nodes[t + 8]);
                __builtin_prefetch(indptr + i_nodes[t + 8]);
                __builtin_prefetch(indptr + j_nodes[t + 8]);
            }
            if (t + 4 < stream_len) {
                __builtin_prefetch(indices + indptr[i_nodes[t + 4]]);
                __builtin_prefetch(indices + indptr[j_nodes[t + 4]]);
            }
            int64_t i = i_nodes[t];
            int64_t j = j_nodes[t];
            int64_t id_i = sigma[i];
            int64_t id_j = sigma[j];
            int64_t o, wid, cell;
            int64_t zi = k - __builtin_popcountll((uint64_t)id_i);
            int64_t zj = k - __builtin_popcountll((uint64_t)id_j);
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
                touched[cell >> 6] |= (uint64_t)1 << (cell & 63);
                o = __builtin_popcountll((uint64_t)(id_j & wid));
                cell = (zw - zi + zj + o) * (k + 1) + o;
                counts[cell] += 1;
                touched[cell >> 6] |= (uint64_t)1 << (cell & 63);
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
                touched[cell >> 6] |= (uint64_t)1 << (cell & 63);
                o = __builtin_popcountll((uint64_t)(id_i & wid));
                cell = (zw - zj + zi + o) * (k + 1) + o;
                counts[cell] += 1;
                touched[cell >> 6] |= (uint64_t)1 << (cell & 63);
            }
            double delta = 0.0;
            int64_t n_folds = 0;
            for (int64_t w = 0; w < n_words; w++) {
                for (uint64_t bits = touched[w]; bits; bits &= bits - 1) {
                    cell = (w << 6) | __builtin_ctzll(bits);
                    int64_t cnt = counts[cell];
                    counts[cell] = 0;
                    delta += (double)cnt * score[cell];
                    scratch.folds[n_folds].cell = cell;
                    scratch.folds[n_folds].cnt = cnt;
                    n_folds += cnt != 0;
                }
                touched[w] = 0;
            }
            touches += n_folds;
            if (delta >= 0.0 || log_u[t] < delta) {
                sigma[i] = id_j;
                sigma[j] = id_i;
                accepted += 1;
                for (int64_t f = 0; f < n_folds; f++) {
                    hist[scratch.folds[f].cell] += scratch.folds[f].cnt;
                }
            }
            if (g < n_ends && t + 1 == ends[g]) {
                memcpy(snapshots + ((g - first_snapshot) * n_chains + c) * n_cells,
                    hist, (size_t)n_cells * sizeof(int64_t));
                g++;
            }
        }
        if (mode == STEP_MODE) {
            step_chain(k, n_snapshots, snapshots + c * n_cells, n_chains * n_cells,
                score, p_all + c * n_cells, theta_all + 3 * c, step_scale,
                stepped_all + 4 * c, scratch.rows[0], scratch.rows[1]);
        }
        accepted_all[c] += accepted;
        stats_all[c] += touches;
        total += accepted;
    }
    return total;
}
"""
)


def bind_proposal_draw(
    kernel: Callable, rngs, n_nodes: int, ends: np.ndarray,
    i_all: np.ndarray, j_all: np.ndarray, u_all: np.ndarray,
) -> Callable[[], None]:
    """Bind one native draw of ``(S, L)`` streams by the draw contract.

    Each call of the returned function fills row ``s`` with chain ``s``'s
    segments ``[0, ends[0])``, ``[ends[0], ends[1])``, … as
    :func:`draw_proposal_batch` draws them from ``rngs[s]``'s current
    state, and leaves each generator where it would; each distinct
    generator's lock is held once per call.  Buffers are checked and
    addresses, pointers and locks resolved here, once: keep the arrays.
    """
    if n_nodes < 2:
        raise ValidationError(
            f"proposal draws need at least 2 nodes, got {n_nodes}"
        )
    n_chains, stream_len = i_all.shape
    bitgens = bitgen_pointers(rngs)
    i_address, j_address, ends_address = buffer_addresses(np.int64, i_all, j_all, ends)
    [u_address] = buffer_addresses(np.float64, u_all)
    if (j_all.shape, u_all.shape, bitgens.size) != (i_all.shape, i_all.shape, n_chains) or (
        ends.size and ends[-1] > stream_len
    ):
        raise ValidationError(
            f"{bitgens.size} generators and segment ends {ends[-1:]} do not "
            f"fit streams {i_all.shape}, {j_all.shape}, {u_all.shape}"
        )
    locks = list({id(rng.bit_generator): rng.bit_generator.lock for rng in rngs}.values())
    call = functools.partial(
        kernel, _DRAW, None, None, n_chains, n_nodes, None, 0, None, None, None,
        i_address, j_address, u_address, stream_len, ends_address, ends.size, 0,
        None, bitgens.ctypes.data, None, None, None, None, 0.0, 0, 0,
    )

    def draw() -> None:
        held = []
        try:
            for lock in locks:
                lock.acquire()
                held.append(lock)
            status = call()
        finally:
            for lock in reversed(held):
                lock.release()
        if status != 0:
            raise RuntimeError(f"multichain kernel draw failed with status {status}")
        # log(0.0) = -inf accepts, as in draw_proposal_batch.
        with np.errstate(divide="ignore"):
            np.log(u_all, out=u_all)

    draw.bitgens = bitgens  # the array the bound pointers live in
    return draw


def draw_proposal_streams(kernel: Callable, rngs, n_nodes: int, ends: np.ndarray,
                          i_all: np.ndarray, j_all: np.ndarray, u_all: np.ndarray) -> None:
    """Fill the streams once: :func:`bind_proposal_draw`, called."""
    bind_proposal_draw(kernel, rngs, n_nodes, ends, i_all, j_all, u_all)()


def _multichain_smoke_test(kernel: Callable) -> None:
    """Run both modes on hand-checked instances.

    Run mode: three chains on the path graph 0–1–2–3 at k=2 with
    different σ, synthetic score tables, and acceptance thresholds; chain
    0 accepts a below-threshold negative delta, two non-negative deltas,
    then rejects a negative delta above its threshold.  The expected σ,
    histograms, touch counts, and acceptances were captured from the
    retired single-chain kernel, one chain at a time.  The run is one
    sample segment after a 2-proposal warm-up, so the snapshot must hold
    the final histograms.  Runs chains [0, 2) and [2, 3) in two calls,
    so a kernel that ignores its chain range fails the probe.

    Draw mode: two segments of three chains, chains 0 and 2 sharing one
    generator, at n=3 (collisions on a third of the draws).  The streams
    and every generator's state must equal a twin's
    :func:`draw_proposal_batch` calls: that pins the ``bitgen_t`` layout
    the kernel calls through.  Catches a miscompiled or ABI-mismatched
    kernel at probe time.
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
    stats = np.zeros(3, dtype=np.int64)
    snapshots = np.zeros((1, 3, 9), dtype=np.int64)
    accepted = np.zeros(3, dtype=np.int64)
    ends = np.array([2, 4], dtype=np.int64)
    total = sum(
        kernel(
            _RUN, *buffer_addresses(np.int32, indptr, indices), 3, 4,
            *buffer_addresses(np.int64, sigma), 2, *buffer_addresses(np.float64, score),
            *buffer_addresses(np.int64, hist, stats, i_nodes, j_nodes),
            *buffer_addresses(np.float64, log_u), 4, *buffer_addresses(np.int64, ends),
            2, 1, *buffer_addresses(np.int64, snapshots), None,
            *buffer_addresses(np.int64, accepted), None, None, None, 0.0, c_begin, c_end,
        )
        for c_begin, c_end in ((0, 2), (2, 3))
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
        or not np.array_equal(snapshots[0], expected_hist)
        or stats.tolist() != [8, 4, 8]
    ):
        raise RuntimeError(
            f"multichain kernel self-check failed: total={total}, "
            f"accepted={accepted.tolist()}, sigma={sigma.tolist()}, "
            f"hist={hist.tolist()}, snapshots={snapshots.tolist()}, "
            f"stats={stats.tolist()}"
        )
    # Step mode with no proposals scores the snapshots as given: k=1,
    # Θ = (1/2, 1/4, 1/8) and (1/2, 1/32, 1/8), P = 1/2 and score
    # (1, 1/2, 1/4) on the feasible cells make every term exact.  The mean
    # gradients are (0, 14.75, 16) and (0, −1.03125, 0); chain 1's b clips.
    snapshots = np.array([[[3, 0, 0, 0], [0] * 4], [[1, 2, 0, 0], [0] * 4]])
    tables = np.array([[1.0, 0.5, 0.25, 0.0]] * 2 + [[0.5, 0.5, 0.5, 0.0]] * 2)
    theta = np.array([[0.5, 0.25, 0.125], [0.5, 0.03125, 0.125]])
    stepped, no_proposals = np.zeros((2, 4)), np.zeros(2, dtype=np.int64)
    kernel(
        _STEP, None, None, 2, 4, *buffer_addresses(np.int64, sigma), 1, tables.ctypes.data,
        *buffer_addresses(np.int64, hist, stats), None, None, None, 0,
        *buffer_addresses(np.int64, no_proposals), 2, 2, *buffer_addresses(np.int64, snapshots),
        None, *buffer_addresses(np.int64, accepted), tables[2:].ctypes.data,
        *buffer_addresses(np.float64, theta, stepped), 0.0625, 0, 2,
    )
    if stepped.tolist() != [[2.21875, 0.5, 0.3076171875, 0.1875], [-0.03173828125, 0.5, 0.001, 0.125]]:
        raise RuntimeError(f"multichain kernel step self-check failed: {stepped.tolist()}")
    shared, twin = np.random.default_rng(5), np.random.default_rng(5)
    rngs = [shared, np.random.default_rng(6), shared]
    twins = [twin, np.random.default_rng(6), twin]
    streams = [np.empty((3, 12), dtype=dtype) for dtype in (np.int64, np.int64, np.float64)]
    draw_proposal_streams(kernel, rngs, 3, np.array([7, 12], dtype=np.int64), *streams)
    for begin, end in ((0, 7), (7, 12)):
        for s, rng in enumerate(twins):
            for got, want in zip(streams, draw_proposal_batch(rng, 3, end - begin)):
                if not np.array_equal(got[s, begin:end], want):
                    raise RuntimeError(
                        f"multichain kernel draw self-check failed: chain {s} "
                        f"segment [{begin}, {end}) differs from draw_proposal_batch"
                    )
    if [r.bit_generator.state for r in rngs] != [r.bit_generator.state for r in twins]:
        raise RuntimeError(
            "multichain kernel draw self-check failed: a generator did not "
            "end where draw_proposal_batch leaves it"
        )


MULTICHAIN_KERNEL = NativeKernel(
    name="multichain",
    reference="numpy",
    c_source=_MULTICHAIN_C_SOURCE,
    c_symbol="repro_multichain_block",
    c_restype=ctypes.c_int64,
    c_argtypes=[
        ctypes.c_int64,  # mode (_RUN, _DRAW or _STEP)
        ctypes.c_void_p,  # indptr (int32)
        ctypes.c_void_p,  # indices (int32)
        ctypes.c_int64,  # n_chains
        ctypes.c_int64,  # n_nodes
        ctypes.c_void_p,  # sigma_all (int64, flat S x n_nodes)
        ctypes.c_int64,  # k
        ctypes.c_void_p,  # score_all (float64, flat S x (k+1)^2)
        ctypes.c_void_p,  # hist_all (int64, flat S x (k+1)^2)
        ctypes.c_void_p,  # stats_all (int64 per-chain touch accumulators)
        ctypes.c_void_p,  # i_all (int64, flat S x stream_len)
        ctypes.c_void_p,  # j_all (int64)
        ctypes.c_void_p,  # u_all (float64)
        ctypes.c_int64,  # stream_len
        ctypes.c_void_p,  # ends (int64 segment ends, ascending)
        ctypes.c_int64,  # n_ends
        ctypes.c_int64,  # n_snapshots (trailing sample segments)
        ctypes.c_void_p,  # snapshots (int64, flat n_snapshots x S x (k+1)^2)
        ctypes.c_void_p,  # bitgens (uintp: one bitgen_t * per chain; draw mode)
        ctypes.c_void_p,  # accepted_all (int64 per-chain acceptance accumulators)
        ctypes.c_void_p,  # p_all (float64, flat S x (k+1)^2; step mode)
        ctypes.c_void_p,  # theta_all (float64, S x 3; step mode)
        ctypes.c_void_p,  # stepped_all (float64, S x 4; step mode)
        ctypes.c_double,  # step_scale (step mode)
        ctypes.c_int64,  # c_begin (first chain run)
        ctypes.c_int64,  # c_end (one past the last chain run)
    ],
    smoke_test=_multichain_smoke_test,
    c_optional_flags=("-mpopcnt",),
)


def resolve_multichain_backend(backend: str | None = None) -> str:
    """The concrete chain engine: argument, else ``REPRO_KERNEL_BACKEND``.

    Returns ``numpy`` (the pure-Python reference inside
    :class:`~repro.kronecker.likelihood.MultiChainSampler`) or ``cext``.
    ``auto`` prefers the compiled engine and falls back to ``numpy``;
    ``scipy`` (the counting knob's reference name) is accepted as an
    alias for ``numpy``, so one environment value drives every kernel
    family.  Naming an unavailable engine raises :class:`ValidationError`
    with the reason.  Both engines and every thread count produce
    bit-identical chains; the knob only selects speed.
    """
    return MULTICHAIN_KERNEL.resolve(backend)


# Kept only because the benchmark harness (perfbench/run.py) imports it;
# drop it at the next benchmark change.
resolve_chain_backend = resolve_multichain_backend
