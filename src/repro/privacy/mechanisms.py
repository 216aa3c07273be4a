"""The one Laplace noise path every release draws through.

Dwork–McSherry–Nissim–Smith's mechanism (the paper's Theorem 4.5) adds
``Lap(GS_Q / ε)`` noise to each coordinate of a query with L1 global
sensitivity ``GS_Q``, giving (ε, 0)-differential privacy.  The degree
release (:mod:`repro.privacy.degree_release`) and the triangle release
(:mod:`repro.privacy.triangles`) each calibrate the scale and draw the
noise with :func:`laplace_noise`.

Randomness policy: see :mod:`repro.utils.rng` — numpy's PCG64, adequate for
the paper's experimental study but not a hardened CSPRNG.
"""

from __future__ import annotations

import numpy as np

from repro.utils.rng import SeedLike, as_generator
from repro.utils.validation import check_positive

__all__ = ["laplace_noise"]


def laplace_noise(scale: float, size: int | tuple[int, ...], seed: SeedLike = None) -> np.ndarray:
    """Vector of independent Laplace(0, ``scale``) samples — ⟨Lap(σ)⟩^N."""
    scale = check_positive(scale, "scale")
    rng = as_generator(seed)
    return rng.laplace(loc=0.0, scale=scale, size=size)
