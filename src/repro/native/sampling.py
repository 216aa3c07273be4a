"""The fused grass-hopping sampler kernel for exact SKG generation.

:func:`repro.kronecker.sampling.sample_skg` samples one profile class at
a time: the class edge count is Binomial(class size, class probability),
and the chosen pairs are uniform without replacement within the class.
This module is the sampler family of the ``repro.native`` kernels (next
to the counting pass and the multichain kernel): the whole per-class
selection loop in compiled code, bit-identical to the numpy reference by
construction.  One exported function, ``repro_sampler_block``, serves
both callers: keys only for
:func:`~repro.kronecker.sampling.sample_skg`, which sorts them into a
:class:`~repro.graphs.graph.Graph`, and a *counts mode* for
:func:`~repro.kronecker.sampling.sample_skg_statistics`, which also
returns the drawn graph's matching statistics {E, H, T, Δ} without any
graph being built.

**The draw contract** (owned by :mod:`repro.kronecker.sampling`).  All randomness is
pre-drawn in numpy-land, once per call:

1. Per class, in ascending ``(z, x)`` order — exactly the reference
   enumeration ``z ∈ 0..k``, ``x ∈ 0..k−z``, skipping empty classes and
   zero-probability classes *before* any draw —
   ``count ← rng.binomial(class_size, probability)``;
2. ``uniforms ← rng.random(Σ counts)`` — one flat stream, consumed
   class-by-class in the same ascending order, exactly ``count`` values
   per class.

Kernels only ever *consume* these streams, so stream consumption cannot
depend on the engine.

**The selection contract.**  Per class, Floyd's algorithm draws ``count``
distinct indices from ``[0, class_size)`` using exactly ``count``
uniforms: for ``t = class_size−count .. class_size−1``, ``r = ⌊u·(t+1)⌋``
(clamped to ``t``); emit ``t`` if ``r`` was already selected, else ``r``.
Membership is a Python ``set`` in the reference and an epoch-stamped
open-addressing table here (``table_stamp[slot] == class index + 1``
marks live entries, so the table is never cleared between classes).  The
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
levels, lowest first.

**The counts contract.**  In counts mode the kernel reads its own
unsorted keys: the degrees give E, ``H = Σ C(d, 2)`` and ``T = Σ C(d, 3)``
in exact int64 arithmetic, and a forward triangle count over the edges
oriented from their lower-(degree, id) endpoint gives Δ.  Every field is
an exact integer, so the result equals ``matching_statistics`` of the
sorted graph.

The equivalence matrix (``tests/kronecker/test_sampler_equivalence.py``)
pins every backend × k × initiator cell to graphs bit-identical to the
numpy reference, checks the unranking exhaustively for k ≤ 7, and checks
the counts mode against ``matching_statistics``.
"""

from __future__ import annotations

import ctypes
import functools
from math import comb
from typing import Callable

import numpy as np

from repro.native.registry import NativeKernel

__all__ = [
    "SAMPLER_KERNEL",
    "resolve_sampler_backend",
    "choose_table",
    "lex_table",
]


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


# Select and unrank every class's pairs.  Per class c (skipped when
# counts[c] == 0): Floyd's algorithm over
# uniforms[offsets[c] : offsets[c]+counts[c]] emits distinct class
# indices, each unranked to a pair key written at the same slot of
# keys_out.  table_keys / table_stamp (length capacity, a power of two
# ≥ 2·max(counts)) back the epoch-stamped membership table.
#
# The unranking runs without data-dependent branches: one division
# splits idx, the both-0 and packed differing masks are lookups in the
# popcount-grouped lex table (lex, lex_offsets: see lex_table), the
# packed mask is deposited onto the free levels in a loop of
# class-constant length, and the differing levels are oriented most
# significant first with __builtin_clzll.
#
# Counts mode: when scratch_len > 0, the kernel also writes the matching
# statistics (E, H, T, Δ) of the drawn graph to counts_out[0..3], from
# the unsorted keys: degrees give E, H = ΣC(d,2) and T = ΣC(d,3); the
# edges oriented from their lower-(degree, id) end form a forward CSR
# whose triangles are counted once each with a marker array.  scratch
# holds 3·2^k + 1 + Σcounts int64 slots.  Returns the number of keys
# written (Σ counts), or −1 when k is out of range or scratch is short.
_C_SOURCE = r"""
#include <stdint.h>
#include <string.h>

/* The highest set bit of a nonzero word. */
static inline int64_t top_bit(int64_t word)
{
    return (int64_t)1 << (63 - __builtin_clzll((unsigned long long)word));
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

int64_t repro_sampler_block(
    int64_t k,
    int64_t n_classes,
    const int64_t *z_arr,
    const int64_t *x_arr,
    const int64_t *counts,
    const int64_t *offsets,
    const int64_t *class_sizes,
    const int64_t *choose,
    const int32_t *lex,
    const int64_t *lex_offsets,
    const double *uniforms,
    int64_t *keys_out,
    int64_t *table_keys,
    int64_t *table_stamp,
    int64_t capacity,
    int64_t *counts_out,
    int64_t *scratch,
    int64_t scratch_len)
{
    if (k < 1 || k > 31) {
        return -1;
    }
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
        int64_t base = offsets[c];
        int64_t epoch = c + 1;
        int64_t orient_mask = ((int64_t)1 << (x - 1)) - 1;
        int64_t c2 = choose[m * kp1 + x];
        /* The both-0 subset ranks over all k levels; the differing
           subset ranks over the m free levels, the last C(m, x) entries
           of the k-level popcount-x group. */
        int64_t zero_base = lex_offsets[z];
        int64_t differ_base = lex_offsets[x + 1] - c2;
        int64_t emitted = 0;
        for (int64_t t = size - count; t < size; t++) {
            double u = uniforms[base + emitted];
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
            /* deposit packed's low m bits onto the free levels, lowest
               free level first (a software pdep) */
            int64_t free_mask = full & ~zero_mask;
            int64_t differ_mask = 0;
            for (int64_t pos = 0; pos < m; pos++) {
                int64_t bit = free_mask & -free_mask;
                free_mask ^= bit;
                differ_mask |= bit & -((packed >> pos) & 1);
            }
            int64_t lead = top_bit(differ_mask);
            int64_t rest = differ_mask ^ lead;
            int64_t u_bits = 0;
            for (int64_t tw = 0; tw < x - 1; tw++) {
                int64_t bit = top_bit(rest);
                rest ^= bit;
                u_bits |= bit & -((w >> tw) & 1);
            }
            int64_t one_mask = full & ~zero_mask & ~differ_mask;
            int64_t u_val = one_mask | u_bits;
            int64_t v_val = one_mask | (differ_mask ^ u_bits);
            keys_out[base + emitted] = (u_val << k) | v_val;
            emitted += 1;
        }
        total += emitted;
    }
    if (scratch_len > 0) {
        if (scratch_len < 3 * (full + 1) + 1 + total) {
            return -1;
        }
        matching_counts(k, total, keys_out, scratch, counts_out);
    }
    return total;
}
"""


def _smoke_test(kernel: Callable) -> None:
    """Run the kernel on two hand-checked instances at k=2.

    Keys only: classes in ascending (z, x) order — (0,1,1), (0,2,0),
    (1,1,0), each of size 2 — with uniforms chosen so Floyd's algorithm
    takes both arms (two collisions emit ``t``) and the epoch-stamped
    table is reused across classes without clearing.  The expected keys
    were derived by hand from the unranking contract.

    Counts mode: the same three classes with every pair drawn are the
    complete graph K₄, so (E, H, T, Δ) = (6, 12, 4, 4).

    Catches a miscompiled or ABI-mismatched kernel at probe time.
    """
    k = 2
    z_arr = np.array([0, 0, 1], dtype=np.int64)
    x_arr = np.array([1, 2, 1], dtype=np.int64)
    class_sizes = np.array([2, 2, 2], dtype=np.int64)
    choose = choose_table(k)
    lex, lex_offsets = lex_table(k)
    table_keys = np.zeros(16, dtype=np.int64)
    table_stamp = np.zeros(16, dtype=np.int64)
    none = np.zeros(0, dtype=np.int64)

    counts = np.array([1, 2, 2], dtype=np.int64)
    offsets = np.array([0, 1, 3], dtype=np.int64)
    uniforms = np.array([0.9, 0.5, 0.3, 0.99, 0.2], dtype=np.float64)
    keys_out = np.zeros(5, dtype=np.int64)
    total = int(
        kernel(k, 3, z_arr, x_arr, counts, offsets, class_sizes, choose, lex,
               lex_offsets, uniforms, keys_out, table_keys, table_stamp, 16,
               none, none, 0)
    )
    expected = [11, 3, 6, 1, 2]
    if total != 5 or keys_out.tolist() != expected:
        raise RuntimeError(
            f"sampler kernel self-check failed: total={total}, "
            f"keys={keys_out.tolist()} (expected {expected})"
        )

    counts = class_sizes.copy()
    offsets = np.array([0, 2, 4], dtype=np.int64)
    uniforms = np.full(6, 0.5, dtype=np.float64)
    keys_out = np.zeros(6, dtype=np.int64)
    counts_out = np.zeros(4, dtype=np.int64)
    scratch = np.zeros(3 * 4 + 1 + 6, dtype=np.int64)
    total = int(
        kernel(k, 3, z_arr, x_arr, counts, offsets, class_sizes, choose, lex,
               lex_offsets, uniforms, keys_out, table_keys, table_stamp, 16,
               counts_out, scratch, scratch.shape[0])
    )
    if total != 6 or counts_out.tolist() != [6, 12, 4, 4]:
        raise RuntimeError(
            f"sampler kernel counts self-check failed: total={total}, "
            f"counts={counts_out.tolist()} (expected [6, 12, 4, 4])"
        )


_INT32_ARG = np.ctypeslib.ndpointer(np.int32, flags="C_CONTIGUOUS")
_INT64_ARG = np.ctypeslib.ndpointer(np.int64, flags="C_CONTIGUOUS")
_FLOAT64_ARG = np.ctypeslib.ndpointer(np.float64, flags="C_CONTIGUOUS")

SAMPLER_KERNEL = NativeKernel(
    name="sampler",
    reference="numpy",
    c_source=_C_SOURCE,
    c_symbol="repro_sampler_block",
    c_restype=ctypes.c_int64,
    c_argtypes=[
        ctypes.c_int64,  # k
        ctypes.c_int64,  # n_classes
        _INT64_ARG,  # z_arr
        _INT64_ARG,  # x_arr
        _INT64_ARG,  # counts (binomial draws, per class)
        _INT64_ARG,  # offsets into uniforms/keys_out
        _INT64_ARG,  # class_sizes
        _INT64_ARG,  # choose (flat Pascal table)
        _INT32_ARG,  # lex (masks by popcount, unranking order)
        _INT64_ARG,  # lex_offsets (popcount group starts)
        _FLOAT64_ARG,  # uniforms (one flat stream)
        _INT64_ARG,  # keys_out
        _INT64_ARG,  # table_keys (membership scratch)
        _INT64_ARG,  # table_stamp (epoch scratch)
        ctypes.c_int64,  # capacity (power of two)
        _INT64_ARG,  # counts_out (E, H, T, Δ; counts mode only)
        _INT64_ARG,  # scratch (counts mode only)
        ctypes.c_int64,  # scratch_len (0 = keys only)
    ],
    smoke_test=_smoke_test,
)


def resolve_sampler_backend(backend: str | None = None) -> str:
    """The concrete engine :func:`sample_skg` will select pairs with.

    Same contract as the counting and chain kernels: ``auto`` prefers the
    compiled engine and silently falls back to the numpy reference; naming
    an unavailable engine raises.  ``scipy`` is accepted as an alias for
    the reference so one ``REPRO_KERNEL_BACKEND`` value can force every
    kernel family onto its reference engine.
    """
    return SAMPLER_KERNEL.resolve(backend)
