"""The fused grass-hopping sampler kernel for exact SKG generation.

:func:`repro.kronecker.sampling.sample_skg` samples one profile class at
a time: the class edge count is Binomial(class size, class probability),
and the chosen pairs are uniform without replacement within the class.
This module is the sampler family of the ``repro.native`` kernels (next
to the counting pass and the multichain kernel): the whole per-class
selection loop in compiled code, bit-identical to the numpy oracle of
:mod:`repro.reference.sampling` by construction.  The family exports one
function, ``repro_sampler_batch``, which selects S samples of one (Θ, k)
in one call with the interpreter lock released throughout
(:func:`draw_batch` calls it).  The call's scratch length picks its mode:

* *keys-only mode* (no scratch, exactly one sample) skips the counting
  pass and leaves the sample's pair keys for
  :func:`~repro.kronecker.sampling.sample_skg`, which sorts them into a
  :class:`~repro.graphs.graph.Graph`;
* *counts mode* returns each sample's matching statistics {E, H, T, Δ}
  and builds no graph, for
  :func:`~repro.kronecker.sampling.sample_skg_statistics_batch`.

**The draw contract** (owned by :mod:`repro.kronecker.sampling`).  Each
sample's generator makes, in this order:

1. Per class, in ascending ``(z, x)`` order — exactly the reference
   enumeration ``z ∈ 0..k``, ``x ∈ 0..k−z``, skipping empty classes and
   zero-probability classes *before* any draw —
   ``count ← rng.binomial(class_size, probability)``;
2. ``uniforms ← rng.random(Σ counts)`` — one flat stream, consumed
   class-by-class in the same ascending order, exactly ``count`` values
   per class.

The numpy oracle (``_draw_classes``) makes both draws in Python.
:func:`~repro.kronecker.sampling.sample_skg` draws part 1 in numpy as one vectorised
``rng.binomial(sizes, probabilities)`` over the class table (the
non-skipped classes, built once per (Θ, k)), which makes the same
binomial calls in the same order.  The kernel always draws part 2
itself, one ``next_double`` of the generator's public ``bitgen_t``
(``rng.bit_generator.ctypes.bit_generator``) per uniform — the very
call ``rng.random`` makes per value.  Nothing from numpy is included or
linked.  Either way every generator ends in the same state, so stream
consumption cannot depend on the engine.

**The selection contract.**  Per class, Floyd's algorithm draws ``count``
distinct indices from ``[0, class_size)`` using exactly ``count``
uniforms: for ``t = class_size−count .. class_size−1``, ``r = ⌊u·(t+1)⌋``
(clamped to ``t``); emit ``t`` if ``r`` was already selected, else ``r``.
Membership is a Python ``set`` in the reference and an epoch-stamped
open-addressing table here (``table_stamp[slot]`` equal to the class's
epoch — its index + 1, offset by ``s·n_classes`` for sample s of a
batch — marks live entries, so the table is never cleared).  The
engines emit the *same index sequence*, hence the same pair multiset.

**The unranking contract.**  A class index decomposes bijectively as
``idx = a·(C(k−z,x)·2^{x−1}) + b·2^{x−1} + w``: ``a`` lexicographically
unranks the both-0 level subset (levels ordered most-significant first),
``b`` the differing-level subset of the remaining levels, and ``w``
orients the differing levels — the most significant differing level is
fixed to ``u=0 / v=1`` (guaranteeing ``u < v``), the rest take bits of
``w`` from the least significant bit upward (bit set → ``u`` carries the
1).  The pair key is ``(u << k) | v``.  Pure integer arithmetic against a
caller-built Pascal table (:func:`choose_table`), so every engine maps
indices to identical keys; distinct indices within a class and disjoint
classes mean one global sort of the emitted keys yields the canonical
edge arrays directly.

The compiled engine unranks both subsets by table lookup.  In this
order the r-subsets of the low n levels are the *last* C(n, r) of the
r-subsets of all k levels, in the same relative order, so the lex rank
``i`` among n levels is entry ``C(k, r) − C(n, r) + i`` of the k-level
order.  One table (:func:`lex_table`) of all 2^k masks, grouped by
popcount, therefore serves both: the both-0 mask is entry ``a`` of group
z, and the differing subset is entry ``C(k, x) − C(m, x) + b`` of group
x, a mask on m packed levels that the kernel deposits onto the free
levels, lowest first.  Built with BMI2 (``-mbmi2``, offered only where
the host runs ``pdep`` fast), that deposit is one ``pdep``, and so is
the orientation's, of ``w`` bit-reversed onto the differing levels
below the most significant one; the portable build walks the levels in
loops.  Both emit identical keys
(``tests/kronecker/test_sampler_batch_equivalence.py``).

**The counts contract.**  In counts mode the kernel reads its own
unsorted keys: the degrees give E, ``H = Σ C(d, 2)`` and ``T = Σ C(d, 3)``
in exact int64 arithmetic, and a forward triangle count over the edges
oriented from their lower-(degree, id) endpoint gives Δ.  Every field is
an exact integer, so the result equals ``matching_statistics`` of the
sorted graph.

The equivalence matrix (``tests/kronecker/test_sampler_equivalence.py``)
pins every k × initiator cell to graphs bit-identical to the numpy
oracle, checks the unranking exhaustively for k ≤ 7, and checks
counts mode against ``matching_statistics``;
``tests/kronecker/test_sampler_batch_equivalence.py`` pins the batch to
the per-sample oracle.
"""

from __future__ import annotations

import contextlib
import ctypes
import functools
from math import comb
from typing import Callable, Sequence

import numpy as np

from repro.native.registry import NativeKernel

__all__ = [
    "MAX_K",
    "SAMPLER_KERNEL",
    "resolve_sampler_backend",
    "choose_table",
    "lex_table",
    "draw_batch",
    "bitgen_pointers",
]


# The largest order k the kernel accepts: the lex table's masks are int32,
# one bit per level, and a pair key (u << k) | v takes 2k bits of an int64.
# Callers refuse a larger k before any draw.
MAX_K = 31


@functools.lru_cache(maxsize=None)
def choose_table(k: int) -> np.ndarray:
    """Flat ``(k+1)×(k+1)`` Pascal table ``C(n, r)`` at ``n*(k+1)+r``.

    Entries with ``r > n`` are 0.  Every binomial the kernels consult
    (class sizes, combination unranking) lives in this range; values fit
    int64 comfortably for the supported ``k`` (pair counts at k=20 are
    ~5·10¹¹ ≪ 2⁶³).  Built once per ``k`` and shared read-only.
    """
    table = np.zeros((k + 1) * (k + 1), dtype=np.int64)
    for n in range(k + 1):
        for r in range(n + 1):
            table[n * (k + 1) + r] = comb(n, r)
    table.flags.writeable = False
    return table


@functools.lru_cache(maxsize=None)
def lex_table(k: int) -> tuple[np.ndarray, np.ndarray]:
    """``(lex, offsets)``: every k-bit mask in unranking order, by popcount.

    ``lex[offsets[r] + i]`` (int32) is the level mask of lex rank ``i``
    among the r-subsets of the k levels, most significant level first —
    within a popcount group that is descending numeric order.
    ``offsets[r] = Σ_{j<r} C(k, j)`` (int64, length k + 2).  Built in
    O(2^k) with numpy (a popcount by doubling and a stable radix argsort
    on it), once per ``k``, and shared read-only.
    """
    popcount = np.zeros(1, dtype=np.uint8)
    for _ in range(k):
        popcount = np.concatenate([popcount, popcount + 1])
    descending = np.arange(2**k - 1, -1, -1, dtype=np.int32)
    lex = descending[np.argsort(popcount[::-1], kind="stable")]
    offsets = np.zeros(k + 2, dtype=np.int64)
    offsets[1:] = np.cumsum(np.bincount(popcount, minlength=k + 1))
    lex.flags.writeable = False
    offsets.flags.writeable = False
    return lex, offsets


# numpy's public bitgen_t, shared by every kernel that draws from a
# Generator (pass pointers from bitgen_pointers, and hold the generators'
# locks for the call).
BITGEN_T_C = """\
/* numpy's public bitgen_t (numpy/random/bitgen.h), declared here so the
   kernel neither includes nor links anything from numpy. */
typedef struct {
    void *state;
    uint64_t (*next_uint64)(void *state);
    uint32_t (*next_uint32)(void *state);
    double (*next_double)(void *state);
    uint64_t (*next_raw)(void *state);
} bitgen_t;
"""


# repro_sampler_batch selects n_samples samples of one (Θ, k) in one
# call.  Sample s reads its binomial class counts from row s of counts
# (n_classes columns over the class table z_arr/x_arr/class_sizes) and
# draws its uniforms from its own generator, bitgens[s], through the
# bitgen_t's next_double, class by class in the same order.  Per class
# (skipped when its count is 0), Floyd's algorithm emits distinct class
# indices, each unranked to a pair key; keys land contiguously from
# keys[0] (keys_len slots).  table_keys / table_stamp (length capacity,
# a power of two ≥ 2·max(counts)) back the epoch-stamped membership
# table; epochs s·n_classes + c + 1 keep it valid without clearing.
#
# The unranking runs without data-dependent branches: one division
# splits idx, the both-0 and packed differing masks are lookups in the
# popcount-grouped lex table (lex, lex_offsets: see lex_table), the
# packed mask is deposited onto the free levels, and the orientation
# word onto the differing levels below the most significant one.  With
# BMI2 each deposit is one pdep (the orientation word bit-reversed, since
# its bit 0 orients the highest of those levels); the portable branch
# walks the levels in loops of class-constant length.
#
# The scratch length picks the mode.  Keys-only mode (scratch_len == 0)
# takes exactly one sample and leaves its keys in keys for the caller.
# Counts mode (scratch_len > 0) writes each sample's matching statistics
# (E, H, T, Δ) to rows_out[4s..4s+3], from the unsorted keys: degrees
# give E, H = ΣC(d,2) and T = ΣC(d,3); the edges oriented from their
# lower-(degree, id) end form a forward CSR whose triangles are counted
# once each with a marker array.  scratch then holds 3·2^k + 1 + Σcounts
# int64 slots for the longest sample.  Returns 0, or −1 when k is out of
# range, a buffer is short, or keys-only mode is asked for n_samples ≠ 1.
_C_SOURCE = r"""
#include <stdint.h>
#include <string.h>
#ifdef __BMI2__
#include <immintrin.h>
#endif

""" + BITGEN_T_C + r"""
/* The highest set bit of a nonzero word. */
static inline int64_t top_bit(int64_t word)
{
    return (int64_t)1 << (63 - __builtin_clzll((unsigned long long)word));
}

#ifdef __BMI2__
static inline uint64_t reverse_bits(uint64_t word)
{
    word = ((word >> 1) & 0x5555555555555555ULL) | ((word & 0x5555555555555555ULL) << 1);
    word = ((word >> 2) & 0x3333333333333333ULL) | ((word & 0x3333333333333333ULL) << 2);
    word = ((word >> 4) & 0x0F0F0F0F0F0F0F0FULL) | ((word & 0x0F0F0F0F0F0F0F0FULL) << 4);
    return __builtin_bswap64(word);
}
#endif

/* Select and unrank every class of one sample, drawing its uniforms
   from bitgen; the keys land contiguously from keys_out[0].  Returns
   Σ counts. */
static int64_t select_sample(
    int64_t k,
    int64_t n_classes,
    const int64_t *z_arr,
    const int64_t *x_arr,
    const int64_t *counts,
    const int64_t *class_sizes,
    const int64_t *choose,
    const int32_t *lex,
    const int64_t *lex_offsets,
    bitgen_t *bitgen,
    int64_t *keys_out,
    int64_t *table_keys,
    int64_t *table_stamp,
    int64_t capacity,
    int64_t epoch_base)
{
    int64_t kp1 = k + 1;
    int64_t mask = capacity - 1;
    int64_t full = ((int64_t)1 << k) - 1;
    int64_t total = 0;
    for (int64_t c = 0; c < n_classes; c++) {
        int64_t count = counts[c];
        if (count == 0) {
            continue;
        }
        int64_t z = z_arr[c];
        int64_t x = x_arr[c];
        int64_t m = k - z;
        int64_t size = class_sizes[c];
        int64_t epoch = epoch_base + c + 1;
        int64_t orient_mask = ((int64_t)1 << (x - 1)) - 1;
        int64_t c2 = choose[m * kp1 + x];
        /* The both-0 subset ranks over all k levels; the differing
           subset ranks over the m free levels, the last C(m, x) entries
           of the k-level popcount-x group. */
        int64_t zero_base = lex_offsets[z];
        int64_t differ_base = lex_offsets[x + 1] - c2;
        int64_t emitted = 0;
        for (int64_t t = size - count; t < size; t++) {
            double u = bitgen->next_double(bitgen->state);
            int64_t r = (int64_t)(u * ((double)t + 1.0));
            if (r > t) {
                r = t;
            }
            int64_t slot = r & mask;
            int64_t found = 0;
            while (table_stamp[slot] == epoch) {
                if (table_keys[slot] == r) {
                    found = 1;
                    break;
                }
                slot = (slot + 1) & mask;
            }
            int64_t idx;
            if (found) {
                idx = t;
                slot = t & mask;
                while (table_stamp[slot] == epoch) {
                    slot = (slot + 1) & mask;
                }
            } else {
                idx = r;
            }
            table_keys[slot] = idx;
            table_stamp[slot] = epoch;
            /* unrank idx -> (a, b, w) -> bit masks -> pair key */
            int64_t w = idx & orient_mask;
            int64_t q = idx >> (x - 1);
            int64_t a = q / c2;
            int64_t b = q - a * c2;
            int64_t zero_mask = lex[zero_base + a];
            int64_t packed = lex[differ_base + b];
            int64_t free_mask = full & ~zero_mask;
#ifdef __BMI2__
            int64_t differ_mask = (int64_t)_pdep_u64(
                (uint64_t)packed, (uint64_t)free_mask);
            int64_t rest = differ_mask ^ top_bit(differ_mask);
            /* w's bit i orients the (i+1)-th highest differing level,
               so deposit w bit-reversed within its x − 1 bits. */
            int64_t u_bits = (int64_t)_pdep_u64(
                (reverse_bits((uint64_t)w) >> (64 - x)) >> 1, (uint64_t)rest);
#else
            /* deposit packed's low m bits onto the free levels, lowest
               free level first (a software pdep) */
            int64_t free_walk = free_mask;
            int64_t differ_mask = 0;
            for (int64_t pos = 0; pos < m; pos++) {
                int64_t bit = free_walk & -free_walk;
                free_walk ^= bit;
                differ_mask |= bit & -((packed >> pos) & 1);
            }
            int64_t rest = differ_mask ^ top_bit(differ_mask);
            int64_t u_bits = 0;
            for (int64_t tw = 0; tw < x - 1; tw++) {
                int64_t bit = top_bit(rest);
                rest ^= bit;
                u_bits |= bit & -((w >> tw) & 1);
            }
#endif
            int64_t one_mask = free_mask & ~differ_mask;
            int64_t u_val = one_mask | u_bits;
            int64_t v_val = one_mask | (differ_mask ^ u_bits);
            keys_out[total + emitted] = (u_val << k) | v_val;
            emitted += 1;
        }
        total += emitted;
    }
    return total;
}

static void matching_counts(
    int64_t k, int64_t total, const int64_t *keys,
    int64_t *scratch, int64_t *counts_out)
{
    int64_t n = (int64_t)1 << k;
    int64_t low = n - 1;
    int64_t *degree = scratch;          /* n */
    int64_t *start = degree + n;        /* n + 1 */
    int64_t *mark = start + n + 1;      /* n */
    int64_t *forward = mark + n;        /* total */
    memset(degree, 0, (size_t)(2 * n + 1) * sizeof(int64_t));
    for (int64_t e = 0; e < total; e++) {
        degree[keys[e] >> k] += 1;
        degree[keys[e] & low] += 1;
    }
    int64_t hairpins = 0;
    int64_t tripins = 0;
    for (int64_t v = 0; v < n; v++) {
        int64_t d = degree[v];
        hairpins += d * (d - 1) / 2;
        tripins += d * (d - 1) * (d - 2) / 6;
    }
    /* Keys carry u < v, so a degree tie orients u -> v. */
    for (int64_t e = 0; e < total; e++) {
        int64_t u = keys[e] >> k;
        int64_t v = keys[e] & low;
        start[(degree[v] < degree[u] ? v : u) + 1] += 1;
    }
    for (int64_t v = 0; v < n; v++) {
        start[v + 1] += start[v];
        mark[v] = start[v];
    }
    for (int64_t e = 0; e < total; e++) {
        int64_t u = keys[e] >> k;
        int64_t v = keys[e] & low;
        int64_t flip = degree[v] < degree[u];
        int64_t src = flip ? v : u;
        forward[mark[src]++] = flip ? u : v;
    }
    for (int64_t v = 0; v < n; v++) {
        mark[v] = -1;
    }
    int64_t triangles = 0;
    for (int64_t u = 0; u < n; u++) {
        int64_t lo = start[u];
        int64_t hi = start[u + 1];
        if (hi - lo < 2) {
            continue;
        }
        for (int64_t j = lo; j < hi; j++) {
            mark[forward[j]] = u;
        }
        for (int64_t j = lo; j < hi; j++) {
            int64_t v = forward[j];
            for (int64_t l = start[v]; l < start[v + 1]; l++) {
                triangles += mark[forward[l]] == u;
            }
        }
    }
    counts_out[0] = total;
    counts_out[1] = hairpins;
    counts_out[2] = tripins;
    counts_out[3] = triangles;
}

int64_t repro_sampler_batch(
    int64_t k,
    int64_t n_classes,
    const int64_t *z_arr,
    const int64_t *x_arr,
    const int64_t *class_sizes,
    const int64_t *choose,
    const int32_t *lex,
    const int64_t *lex_offsets,
    int64_t n_samples,
    const int64_t *counts,
    bitgen_t *const *bitgens,
    int64_t *keys,
    int64_t keys_len,
    int64_t *table_keys,
    int64_t *table_stamp,
    int64_t capacity,
    int64_t *scratch,
    int64_t scratch_len,
    int64_t *rows_out)
{
    int64_t keys_only = scratch_len == 0;
    if (k < 1 || k > """ + str(MAX_K) + r""" || (keys_only && n_samples != 1)) {
        return -1;
    }
    for (int64_t s = 0; s < n_samples; s++) {
        const int64_t *row = counts + s * n_classes;
        int64_t total = 0;
        for (int64_t c = 0; c < n_classes; c++) {
            total += row[c];
            if (2 * row[c] > capacity) {
                return -1;
            }
        }
        if (total > keys_len || (!keys_only
                && scratch_len < 3 * ((int64_t)1 << k) + 1 + total)) {
            return -1;
        }
    }
    for (int64_t s = 0; s < n_samples; s++) {
        int64_t total = select_sample(
            k, n_classes, z_arr, x_arr, counts + s * n_classes, class_sizes,
            choose, lex, lex_offsets, bitgens[s], keys, table_keys,
            table_stamp, capacity, s * n_classes);
        if (!keys_only) {
            matching_counts(k, total, keys, scratch, rows_out + 4 * s);
        }
    }
    return 0;
}
"""


def draw_batch(
    kernel: Callable,
    k: int,
    z: np.ndarray,
    x: np.ndarray,
    sizes: np.ndarray,
    counts: Sequence[Sequence[int]],
    generators: Sequence[np.random.Generator],
    *,
    keys_only: bool = False,
) -> tuple[np.ndarray, np.ndarray]:
    """One ``repro_sampler_batch`` call: one sample per generator.

    Sample s draws ``counts[s][c]`` pairs of class c of the ``(z, x,
    sizes)`` table, its uniforms from ``generators[s]`` (distinct
    generators; each one's lock is held for the call, as numpy's own
    draws hold it).  Returns ``(keys, rows)``: in keys-only mode (one
    generator) ``keys`` holds the sample's Σ counts pair keys in
    emission order; in counts mode ``rows`` holds each sample's
    (E, H, T, Δ).  Raises ``RuntimeError`` if the kernel refuses.
    """
    counts = np.asarray(counts, dtype=np.int64)
    longest = int(counts.sum(axis=1).max())
    capacity = 16
    while capacity < 2 * int(counts.max(initial=0)):
        capacity *= 2
    scratch_len = 0 if keys_only else 3 * 2**k + 1 + longest
    keys = np.empty(longest, dtype=np.int64)
    rows = np.zeros((len(generators), 4), dtype=np.int64)
    lex, lex_offsets = lex_table(k)
    with contextlib.ExitStack() as locks:
        for rng in generators:
            locks.enter_context(rng.bit_generator.lock)
        status = kernel(
            k,
            z.shape[0],
            z,
            x,
            sizes,
            choose_table(k),
            lex,
            lex_offsets,
            len(generators),
            counts,
            bitgen_pointers(generators),
            keys,
            longest,
            np.empty(capacity, dtype=np.int64),
            np.zeros(capacity, dtype=np.int64),
            capacity,
            np.empty(scratch_len, dtype=np.int64),
            scratch_len,
            rows,
        )
    if status != 0:
        raise RuntimeError(f"sampler kernel failed with status {status}")
    return keys, rows


def bitgen_pointers(generators) -> np.ndarray:
    """The ``bitgen_t *`` of each generator, for ``repro_sampler_batch``."""
    return np.array(
        [rng.bit_generator.ctypes.bit_generator.value for rng in generators],
        dtype=np.uintp,
    )


def _smoke_test(kernel: Callable) -> None:
    """Run the kernel in both modes at k=2, drawing from real generators.

    The classes of k=2 in ascending (z, x) order — (0,1,1), (0,2,0),
    (1,1,0) — hold two pairs each.

    Keys-only mode draws counts (1, 2, 2) with seed 1, whose uniforms
    make Floyd's algorithm take its collision arm in both full classes
    while the epoch-stamped table is reused across classes without
    clearing.  The expected keys were derived once from the numpy
    oracle (``_reference_select`` on the same five uniforms).

    Counts mode: sample 0 draws every pair (the complete graph K₄:
    (6, 12, 4, 4)) and sample 1 one pair of the first class
    ((1, 0, 0, 0)), so the uniforms themselves cannot change the rows.

    Each generator must then sit exactly where ``random`` drawing as
    many values leaves a twin: that pins the ``bitgen_t`` layout the
    kernel calls ``next_double`` through.  Catches a miscompiled or
    ABI-mismatched kernel at probe time.
    """
    k = 2
    table = (
        np.array([0, 0, 1], dtype=np.int64),
        np.array([1, 2, 1], dtype=np.int64),
        np.full(3, 2, dtype=np.int64),
    )
    generators = [np.random.default_rng(seed) for seed in (1, 1, 2)]
    keys, _ = draw_batch(kernel, k, *table, [[1, 2, 2]], generators[:1], keys_only=True)
    _, rows = draw_batch(kernel, k, *table, [[2, 2, 2], [1, 0, 0]], generators[1:])
    expected_keys = [11, 3, 6, 1, 2]
    if keys.tolist() != expected_keys:
        raise RuntimeError(
            f"sampler kernel keys self-check failed: keys={keys.tolist()} "
            f"(expected {expected_keys})"
        )
    expected_rows = [[6, 12, 4, 4], [1, 0, 0, 0]]
    if rows.tolist() != expected_rows:
        raise RuntimeError(
            f"sampler kernel counts self-check failed: rows={rows.tolist()} "
            f"(expected {expected_rows})"
        )
    for rng, (seed, draws) in zip(generators, ((1, 5), (1, 6), (2, 1))):
        twin = np.random.default_rng(seed)
        twin.random(draws)
        if rng.bit_generator.state != twin.bit_generator.state:
            raise RuntimeError(
                "sampler kernel generator self-check failed: "
                f"seed {seed} did not advance by {draws} uniforms"
            )


_INT32_ARG = np.ctypeslib.ndpointer(np.int32, flags="C_CONTIGUOUS")
_INT64_ARG = np.ctypeslib.ndpointer(np.int64, flags="C_CONTIGUOUS")
_POINTER_ARG = np.ctypeslib.ndpointer(np.uintp, flags="C_CONTIGUOUS")

SAMPLER_KERNEL = NativeKernel(
    name="sampler",
    c_source=_C_SOURCE,
    c_symbol="repro_sampler_batch",
    c_restype=ctypes.c_int64,
    c_argtypes=[
        ctypes.c_int64,  # k
        ctypes.c_int64,  # n_classes
        _INT64_ARG,  # z_arr (class table)
        _INT64_ARG,  # x_arr
        _INT64_ARG,  # class_sizes
        _INT64_ARG,  # choose (flat Pascal table)
        _INT32_ARG,  # lex (masks by popcount, unranking order)
        _INT64_ARG,  # lex_offsets (popcount group starts)
        ctypes.c_int64,  # n_samples
        _INT64_ARG,  # counts (n_samples × n_classes binomial draws)
        _POINTER_ARG,  # bitgens (one bitgen_t * per sample)
        _INT64_ARG,  # keys (keys_len slots)
        ctypes.c_int64,  # keys_len
        _INT64_ARG,  # table_keys (membership scratch)
        _INT64_ARG,  # table_stamp (zeroed)
        ctypes.c_int64,  # capacity (power of two)
        _INT64_ARG,  # scratch (counts mode only)
        ctypes.c_int64,  # scratch_len (0 = keys-only mode)
        _INT64_ARG,  # rows_out (n_samples × 4: E, H, T, Δ; counts mode)
    ],
    smoke_test=_smoke_test,
    c_optional_flags=("-mbmi2",),
)


def resolve_sampler_backend() -> str:
    """Load the sampler kernel (run records and the benchmark pay its probe
    up front) and name it: always ``"cext"``."""
    SAMPLER_KERNEL.kernel()
    return "cext"
