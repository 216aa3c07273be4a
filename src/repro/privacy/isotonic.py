"""Isotonic (monotone) least-squares regression by pool-adjacent-violators.

Hay et al.'s constrained inference step projects the noisy sorted degree
sequence onto the cone of non-decreasing sequences in L2.  The minimiser
is the classic PAV solution

    d̄_i = min_{j ≥ i} max_{h ≤ j} mean(d̂[h..j]),

computed here with the stack-based pool-adjacent-violators algorithm in
O(n).  Implemented from scratch (no sklearn dependency); tests check the
KKT conditions and compare against a brute-force QP on small inputs.

The stack pass runs on the compiled kernel of :mod:`repro.native.isotonic`,
bit-identical to its Python oracle in :mod:`repro.reference.isotonic`.
"""

from __future__ import annotations

import numpy as np

from repro.errors import ValidationError
from repro.native.isotonic import ISOTONIC_KERNEL

__all__ = ["isotonic_regression"]


def isotonic_regression(values: np.ndarray, weights: np.ndarray | None = None) -> np.ndarray:
    """L2 projection of ``values`` onto non-decreasing sequences.

    Parameters
    ----------
    values:
        1-D array to regress.
    weights:
        Optional positive weights for a weighted projection (uniform by
        default — the degree-release use case).

    Returns
    -------
    The unique non-decreasing array minimising
    ``Σ weights * (result − values)²``.
    """
    values = np.asarray(values, dtype=np.float64)
    if values.ndim != 1:
        raise ValidationError(f"values must be 1-D, got shape {values.shape}")
    n = values.size
    if n == 0:
        return values.copy()
    if weights is None:
        weights = np.ones(n, dtype=np.float64)
    else:
        weights = np.asarray(weights, dtype=np.float64)
        if weights.shape != values.shape:
            raise ValidationError("weights must match values in shape")
        if np.any(weights <= 0):
            raise ValidationError("weights must be positive")

    block_mean = np.empty(n, dtype=np.float64)
    block_weight = np.empty(n, dtype=np.float64)
    block_count = np.empty(n, dtype=np.int64)
    blocks = int(
        ISOTONIC_KERNEL.kernel()(
            n,
            np.ascontiguousarray(values),
            np.ascontiguousarray(weights),
            block_mean,
            block_weight,
            block_count,
        )
    )
    return np.repeat(block_mean[:blocks], block_count[:blocks])

