"""Oracle of the isotonic (PAVA) kernel: the stack pass in Python, with
the kernel's merge order and expression (the merge contract of
:mod:`repro.native.isotonic`), so the two are bit-identical.
"""

from __future__ import annotations

import numpy as np

__all__ = ["reference_isotonic_regression", "reference_pava"]


def reference_isotonic_regression(
    values: np.ndarray, weights: np.ndarray | None = None
) -> np.ndarray:
    """:func:`~repro.privacy.isotonic.isotonic_regression` on the oracle,
    for inputs that function accepts (this one validates nothing)."""
    values = np.asarray(values, dtype=np.float64)
    n = values.size
    weights = np.ones(n) if weights is None else np.asarray(weights, dtype=np.float64)
    block_mean = np.empty(n, dtype=np.float64)
    block_weight = np.empty(n, dtype=np.float64)
    block_count = np.empty(n, dtype=np.int64)
    blocks = reference_pava(values, weights, block_mean, block_weight, block_count)
    return np.repeat(block_mean[:blocks], block_count[:blocks])


def reference_pava(
    values: np.ndarray,
    weights: np.ndarray,
    block_mean: np.ndarray,
    block_weight: np.ndarray,
    block_count: np.ndarray,
) -> int:
    """The numpy oracle of the stack pass: returns the number of blocks.

    Each stack block is (mean, weight, count); adjacent blocks violating
    monotonicity are merged (weighted average) as values stream in.  The
    compiled twin runs this loop with the same merge order and the same
    expression (the merge contract of :mod:`repro.native.isotonic`).
    """
    top = -1
    for i in range(values.size):
        top += 1
        block_mean[top] = values[i]
        block_weight[top] = weights[i]
        block_count[top] = 1
        while top > 0 and block_mean[top - 1] >= block_mean[top]:
            merged_weight = block_weight[top - 1] + block_weight[top]
            block_mean[top - 1] = (
                block_weight[top - 1] * block_mean[top - 1]
                + block_weight[top] * block_mean[top]
            ) / merged_weight
            block_weight[top - 1] = merged_weight
            block_count[top - 1] += block_count[top]
            top -= 1
    return top + 1
