"""The pool-adjacent-violators kernel behind the isotonic degree release.

Hay et al.'s constrained inference projects the noisy sorted degree
sequence onto the non-decreasing cone with one stack pass
(:func:`repro.privacy.isotonic.isotonic_regression`).  The pass is a
data-dependent merge loop that numpy cannot vectorize, so it is the
fourth family of the ``repro.native`` kernels: the loop in C, with its
pure-Python oracle in :mod:`repro.reference.isotonic`.

**The merge contract.**  Values stream in left to right; each becomes a
block ``(mean, weight, count)`` pushed on a stack, and while the block
below the top has ``mean ≥`` the top's mean the two merge into

    mean = (w₁·m₁ + w₂·m₂) / (w₁ + w₂),  weight = w₁ + w₂

with the lower block as ``(m₁, w₁)``.  Kernel and oracle merge in the same
order with the same expression, and the C twin is built with
``-ffp-contract=off`` (no FMA contraction), so every block mean rounds
identically and the expanded result is bit-identical.

The equivalence suite (``tests/privacy/test_isotonic_equivalence.py``)
pins the kernel to the oracle on noisy degree sequences, weighted and
unweighted, with ties, all-equal and descending runs, and n ∈ {0, 1}.
"""

from __future__ import annotations

import ctypes
from typing import Callable

import numpy as np

from repro.native.registry import NativeKernel

__all__ = ["ISOTONIC_KERNEL"]


# One stack pass over values[0..n) with positive weights[0..n).  The
# stack lives in the caller's block_mean / block_weight / block_count
# arrays (length n each); returns the number of blocks on it, which the
# caller expands with np.repeat.
_C_SOURCE = """\
#include <stdint.h>

int64_t repro_isotonic_block(
    int64_t n,
    const double *values,
    const double *weights,
    double *block_mean,
    double *block_weight,
    int64_t *block_count)
{
    int64_t top = -1;
    for (int64_t i = 0; i < n; i++) {
        top += 1;
        block_mean[top] = values[i];
        block_weight[top] = weights[i];
        block_count[top] = 1;
        while (top > 0 && block_mean[top - 1] >= block_mean[top]) {
            double merged_weight = block_weight[top - 1] + block_weight[top];
            block_mean[top - 1] = (
                block_weight[top - 1] * block_mean[top - 1]
                + block_weight[top] * block_mean[top]
            ) / merged_weight;
            block_weight[top - 1] = merged_weight;
            block_count[top - 1] += block_count[top];
            top -= 1;
        }
    }
    return top + 1;
}
"""


def _smoke_test(kernel: Callable) -> None:
    """Run the kernel on a hand-checked instance.

    ``[1, 3, 2, 2, 5]`` with weights ``[1, 1, 1, 2, 1]``: 3 merges with 2
    into (2.5, 2), which then merges with the weight-2 value 2 into
    (2.25, 4), leaving three blocks.  Every value is a dyadic rational,
    so the expected means are exact.  Catches a miscompiled or
    ABI-mismatched kernel at probe time.
    """
    values = np.array([1.0, 3.0, 2.0, 2.0, 5.0])
    weights = np.array([1.0, 1.0, 1.0, 2.0, 1.0])
    block_mean = np.zeros(5)
    block_weight = np.zeros(5)
    block_count = np.zeros(5, dtype=np.int64)
    blocks = int(kernel(5, values, weights, block_mean, block_weight, block_count))
    got = (blocks, block_mean[:blocks].tolist(), block_count[:blocks].tolist())
    expected = (3, [1.0, 2.25, 5.0], [1, 3, 1])
    if got != expected:
        raise RuntimeError(
            f"isotonic kernel self-check failed: (blocks, means, counts)={got} "
            f"(expected {expected})"
        )


_FLOAT64_ARG = np.ctypeslib.ndpointer(np.float64, flags="C_CONTIGUOUS")
_INT64_ARG = np.ctypeslib.ndpointer(np.int64, flags="C_CONTIGUOUS")

ISOTONIC_KERNEL = NativeKernel(
    name="isotonic",
    c_source=_C_SOURCE,
    c_symbol="repro_isotonic_block",
    c_restype=ctypes.c_int64,
    c_argtypes=[
        ctypes.c_int64,  # n
        _FLOAT64_ARG,  # values
        _FLOAT64_ARG,  # weights
        _FLOAT64_ARG,  # block_mean (stack)
        _FLOAT64_ARG,  # block_weight (stack)
        _INT64_ARG,  # block_count (stack)
    ],
    smoke_test=_smoke_test,
)

