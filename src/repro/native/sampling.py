"""The fused grass-hopping sampler kernel for exact SKG generation.

:func:`repro.kronecker.sampling.sample_skg` samples one profile class at
a time: the class edge count is Binomial(class size, class probability),
and the chosen pairs are uniform without replacement within the class.
The numpy reference used to realize "uniform without replacement" by
rejection (draw random pairs, dedup, top up) — fine at paper scale,
wasteful at k≈20 where single classes carry 10⁵–10⁶ edges.  This module
is the third ``repro.native`` kernel family (after counting and chain):
the whole per-class selection loop in compiled code, bit-identical across
engines by construction.

**The draw contract** (owned by ``sample_skg``).  All randomness is
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

The equivalence matrix (``tests/kronecker/test_sampler_equivalence.py``)
pins every backend × k × initiator cell to graphs bit-identical to the
numpy reference.
"""

from __future__ import annotations

import ctypes
from math import comb
from typing import Callable

import numpy as np

from repro.native.registry import (
    NativeKernel,
    available_backends,
    resolve_backend,
)

__all__ = [
    "SAMPLER_KERNEL",
    "sampler_block",
    "sampler_backend_available",
    "sampler_backend_error",
    "sampler_kernel",
    "resolve_sampler_backend",
    "available_sampler_backends",
    "choose_table",
]


def choose_table(k: int) -> np.ndarray:
    """Flat ``(k+1)×(k+1)`` Pascal table ``C(n, r)`` at ``n*(k+1)+r``.

    Entries with ``r > n`` are 0.  Every binomial the kernels consult
    (class sizes, combination unranking) lives in this range; values fit
    int64 comfortably for the supported ``k`` (pair counts at k=20 are
    ~5·10¹¹ ≪ 2⁶³).
    """
    table = np.zeros((k + 1) * (k + 1), dtype=np.int64)
    for n in range(k + 1):
        for r in range(n + 1):
            table[n * (k + 1) + r] = comb(n, r)
    return table


def sampler_block(
    k,
    n_classes,
    z_arr,
    x_arr,
    counts,
    offsets,
    class_sizes,
    choose,
    uniforms,
    keys_out,
    table_keys,
    table_stamp,
    capacity,
):
    """Select and unrank every class's pairs (numba-jittable loop nest).

    Per class ``c`` (skipped when ``counts[c] == 0``): Floyd's algorithm
    over ``uniforms[offsets[c] : offsets[c]+counts[c]]`` emits distinct
    class indices, each unranked to a pair key written at the same slot
    of ``keys_out``.  ``table_keys``/``table_stamp`` (length ``capacity``,
    a power of two ≥ 2·max(counts)) back the epoch-stamped membership
    table.  Returns the number of keys written (Σ counts).
    """
    kp1 = k + 1
    mask = capacity - 1
    full = (1 << k) - 1
    total = 0
    for c in range(n_classes):
        count = counts[c]
        if count == 0:
            continue
        z = z_arr[c]
        x = x_arr[c]
        size = class_sizes[c]
        base = offsets[c]
        epoch = c + 1
        n_orient = 1 << (x - 1)
        c2 = choose[(k - z) * kp1 + x]
        emitted = 0
        for t in range(size - count, size):
            u = uniforms[base + emitted]
            r = int(u * (t + 1.0))
            if r > t:
                r = t
            slot = r & mask
            found = False
            while table_stamp[slot] == epoch:
                if table_keys[slot] == r:
                    found = True
                    break
                slot = (slot + 1) & mask
            if found:
                idx = t
                slot = t & mask
                while table_stamp[slot] == epoch:
                    slot = (slot + 1) & mask
            else:
                idx = r
            table_keys[slot] = idx
            table_stamp[slot] = epoch
            # unrank idx -> (a, b, w) -> bit masks -> pair key
            a = idx // (c2 * n_orient)
            rem = idx % (c2 * n_orient)
            b = rem // n_orient
            w = rem % n_orient
            zero_mask = 0
            slots = z
            aa = a
            for level in range(k):
                if slots == 0:
                    break
                cnt = choose[(k - 1 - level) * kp1 + (slots - 1)]
                if aa < cnt:
                    zero_mask |= 1 << (k - 1 - level)
                    slots -= 1
                else:
                    aa -= cnt
            differ_mask = 0
            m = k - z
            pos = 0
            bb = b
            slots = x
            for level in range(k):
                if slots == 0:
                    break
                bit = 1 << (k - 1 - level)
                if zero_mask & bit:
                    continue
                cnt = choose[(m - 1 - pos) * kp1 + (slots - 1)]
                if bb < cnt:
                    differ_mask |= bit
                    slots -= 1
                else:
                    bb -= cnt
                pos += 1
            one_mask = full & ~zero_mask & ~differ_mask
            u_val = one_mask
            v_val = one_mask
            first = True
            tw = 0
            for level in range(k):
                bit = 1 << (k - 1 - level)
                if not (differ_mask & bit):
                    continue
                if first:
                    v_val |= bit
                    first = False
                else:
                    if (w >> tw) & 1:
                        u_val |= bit
                    else:
                        v_val |= bit
                    tw += 1
            keys_out[base + emitted] = (u_val << k) | v_val
            emitted += 1
        total += emitted
    return total


_C_SOURCE = r"""
#include <stdint.h>

int64_t repro_sampler_block(
    int64_t k,
    int64_t n_classes,
    const int64_t *z_arr,
    const int64_t *x_arr,
    const int64_t *counts,
    const int64_t *offsets,
    const int64_t *class_sizes,
    const int64_t *choose,
    const double *uniforms,
    int64_t *keys_out,
    int64_t *table_keys,
    int64_t *table_stamp,
    int64_t capacity)
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
        int64_t size = class_sizes[c];
        int64_t base = offsets[c];
        int64_t epoch = c + 1;
        int64_t n_orient = (int64_t)1 << (x - 1);
        int64_t c2 = choose[(k - z) * kp1 + x];
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
            int64_t a = idx / (c2 * n_orient);
            int64_t rem = idx % (c2 * n_orient);
            int64_t b = rem / n_orient;
            int64_t w = rem % n_orient;
            int64_t zero_mask = 0;
            int64_t slots = z;
            int64_t aa = a;
            for (int64_t level = 0; level < k; level++) {
                if (slots == 0) {
                    break;
                }
                int64_t cnt = choose[(k - 1 - level) * kp1 + (slots - 1)];
                if (aa < cnt) {
                    zero_mask |= (int64_t)1 << (k - 1 - level);
                    slots -= 1;
                } else {
                    aa -= cnt;
                }
            }
            int64_t differ_mask = 0;
            int64_t m = k - z;
            int64_t pos = 0;
            int64_t bb = b;
            slots = x;
            for (int64_t level = 0; level < k; level++) {
                if (slots == 0) {
                    break;
                }
                int64_t bit = (int64_t)1 << (k - 1 - level);
                if (zero_mask & bit) {
                    continue;
                }
                int64_t cnt = choose[(m - 1 - pos) * kp1 + (slots - 1)];
                if (bb < cnt) {
                    differ_mask |= bit;
                    slots -= 1;
                } else {
                    bb -= cnt;
                }
                pos += 1;
            }
            int64_t one_mask = full & ~zero_mask & ~differ_mask;
            int64_t u_val = one_mask;
            int64_t v_val = one_mask;
            int64_t first = 1;
            int64_t tw = 0;
            for (int64_t level = 0; level < k; level++) {
                int64_t bit = (int64_t)1 << (k - 1 - level);
                if (!(differ_mask & bit)) {
                    continue;
                }
                if (first) {
                    v_val |= bit;
                    first = 0;
                } else {
                    if ((w >> tw) & 1) {
                        u_val |= bit;
                    } else {
                        v_val |= bit;
                    }
                    tw += 1;
                }
            }
            keys_out[base + emitted] = (u_val << k) | v_val;
            emitted += 1;
        }
        total += emitted;
    }
    return total;
}
"""


def _smoke_test(kernel: Callable) -> None:
    """Run the kernel on a hand-checked 3-class instance at k=2.

    Classes in ascending (z, x) order — (0,1,1), (0,2,0), (1,1,0), each of
    size 2 — with uniforms chosen so Floyd's algorithm takes both arms
    (two collisions emit ``t``) and the epoch-stamped table is reused
    across classes without clearing.  The expected keys were derived by
    hand from the unranking contract.  Catches a miscompiled or
    ABI-mismatched kernel at probe time; doubles as the numba warm-up
    compile.
    """
    k = 2
    z_arr = np.array([0, 0, 1], dtype=np.int64)
    x_arr = np.array([1, 2, 1], dtype=np.int64)
    counts = np.array([1, 2, 2], dtype=np.int64)
    offsets = np.array([0, 1, 3], dtype=np.int64)
    class_sizes = np.array([2, 2, 2], dtype=np.int64)
    choose = choose_table(k)
    uniforms = np.array([0.9, 0.5, 0.3, 0.99, 0.2], dtype=np.float64)
    keys_out = np.zeros(5, dtype=np.int64)
    table_keys = np.zeros(16, dtype=np.int64)
    table_stamp = np.zeros(16, dtype=np.int64)
    total = int(
        kernel(k, 3, z_arr, x_arr, counts, offsets, class_sizes,
               choose, uniforms, keys_out, table_keys, table_stamp, 16)
    )
    expected = [11, 3, 6, 1, 2]
    if total != 5 or keys_out.tolist() != expected:
        raise RuntimeError(
            f"sampler kernel self-check failed: total={total}, "
            f"keys={keys_out.tolist()} (expected {expected})"
        )


_INT64_ARG = np.ctypeslib.ndpointer(np.int64, flags="C_CONTIGUOUS")
_FLOAT64_ARG = np.ctypeslib.ndpointer(np.float64, flags="C_CONTIGUOUS")

SAMPLER_KERNEL = NativeKernel(
    name="sampler",
    python_impl=sampler_block,
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
        _FLOAT64_ARG,  # uniforms (one flat stream)
        _INT64_ARG,  # keys_out
        _INT64_ARG,  # table_keys (membership scratch)
        _INT64_ARG,  # table_stamp (epoch scratch)
        ctypes.c_int64,  # capacity (power of two)
    ],
    smoke_test=_smoke_test,
)


def sampler_backend_available(name: str) -> bool:
    """Whether the fused sampler backend ``name`` can run on this host."""
    return SAMPLER_KERNEL.available(name)


def sampler_backend_error(name: str) -> str | None:
    """Why ``name`` is unavailable (None when it is available)."""
    return SAMPLER_KERNEL.error(name)


def sampler_kernel(name: str) -> Callable:
    """The batch kernel of an *available* fused sampler backend.

    The callable has the :func:`sampler_block` signature and contract.
    """
    return SAMPLER_KERNEL.kernel(name)


def resolve_sampler_backend(backend: str | None = None) -> str:
    """The concrete engine :func:`sample_skg` will select pairs with.

    Same contract as the counting and chain kernels: ``auto`` prefers the
    fused engines and silently falls back to the numpy reference; naming
    an unavailable engine raises.  ``scipy`` is accepted as an alias for
    the reference so one ``REPRO_KERNEL_BACKEND`` value can force every
    kernel family onto its reference engine.
    """
    return resolve_backend(SAMPLER_KERNEL, backend, reference="numpy")


def available_sampler_backends() -> tuple[str, ...]:
    """The concrete sampler engines that can run on this host."""
    return available_backends(SAMPLER_KERNEL, "numpy")
