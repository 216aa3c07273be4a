"""Noise mechanisms calibrated to global sensitivity.

:func:`laplace_mechanism` is the classic Dwork–McSherry–Nissim–Smith
mechanism (the paper's Theorem 4.5): adding ``Lap(GS_Q / ε)`` noise to each
coordinate of a query with L1 global sensitivity ``GS_Q`` gives
(ε, 0)-differential privacy.

Randomness policy: see :mod:`repro.utils.rng` — numpy's PCG64, adequate for
the paper's experimental study but not a hardened CSPRNG.
"""

from __future__ import annotations

import numpy as np

from repro.utils.rng import SeedLike, as_generator
from repro.utils.validation import check_positive

__all__ = ["laplace_noise", "laplace_mechanism"]


def laplace_noise(scale: float, size: int | tuple[int, ...], seed: SeedLike = None) -> np.ndarray:
    """Vector of independent Laplace(0, ``scale``) samples — ⟨Lap(σ)⟩^N."""
    scale = check_positive(scale, "scale")
    rng = as_generator(seed)
    return rng.laplace(loc=0.0, scale=scale, size=size)


def laplace_mechanism(
    value: float | np.ndarray,
    sensitivity: float,
    epsilon: float,
    seed: SeedLike = None,
) -> np.ndarray | float:
    """(ε, 0)-DP release of ``value`` with L1 global sensitivity ``sensitivity``.

    Scalars return scalars; arrays return arrays of the same shape with
    independent per-coordinate noise (the sensitivity argument must then be
    the L1 sensitivity of the whole vector query, as in Theorem 4.5).
    """
    sensitivity = check_positive(sensitivity, "sensitivity")
    epsilon = check_positive(epsilon, "epsilon")
    array = np.asarray(value, dtype=np.float64)
    noisy = array + laplace_noise(sensitivity / epsilon, array.shape or 1, seed)
    if array.shape == ():
        return float(noisy[0] if noisy.shape else noisy)
    return noisy

