"""(ε, δ)-DP triangle count via smooth sensitivity (the paper's step 4-5).

Following Theorem 4.8 (Nissim–Raskhodnikova–Smith): with
β ≤ ε / (2 ln(2/δ)) and SS_β the β-smooth sensitivity of Δ,

    Δ̃ = Δ + (2 · SS_β / ε) · η,   η ~ Lap(1)

is (ε, δ)-differentially private.  The smooth sensitivity itself comes
from :mod:`repro.privacy.sensitivity`.

Both ingredients of the release — the exact count Δ and the smooth
sensitivity (via LS_Δ) — are reductions of the same sparse product
``A @ A``; they are served from the graph's memoized A² pass
(:mod:`repro.stats.kernels`), so one release costs one pass, shared with
any other statistics computed on the same graph in the trial.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.graphs.graph import Graph
from repro.privacy.mechanisms import laplace_noise
from repro.privacy.sensitivity import (
    smooth_sensitivity_triangles,
    triangle_smooth_beta,
)
from repro.stats.counts import count_triangles
from repro.utils.rng import SeedLike, as_generator
from repro.utils.validation import check_in_unit_interval, check_positive

__all__ = ["TriangleRelease", "release_triangle_count"]


@dataclass(frozen=True)
class TriangleRelease:
    """Result of a DP triangle-count release.

    Attributes
    ----------
    value:
        The noisy count Δ̃ (real-valued; may be negative for small ε).
    smooth_sensitivity:
        SS_β(G) used to scale the noise.
    beta:
        The smoothing parameter β = ε / (2 ln(2/δ)).
    epsilon, delta:
        The (ε, δ) guarantee of this release.
    noise_scale:
        The Laplace scale actually applied: 2 · SS_β / ε.
    """

    value: float
    smooth_sensitivity: float
    beta: float
    epsilon: float
    delta: float
    noise_scale: float


def release_triangle_count(
    graph: Graph,
    epsilon: float,
    delta: float,
    seed: SeedLike = None,
) -> TriangleRelease:
    """Release an (ε, δ)-DP approximation of the triangle count of ``graph``."""
    epsilon = check_positive(epsilon, "epsilon")
    delta = check_in_unit_interval(delta, "delta")
    rng = as_generator(seed)
    beta = triangle_smooth_beta(epsilon, delta)
    smooth = smooth_sensitivity_triangles(graph, beta)
    scale = 2.0 * smooth / epsilon
    triangles = float(count_triangles(graph))
    noise = float(laplace_noise(scale, 1, rng)[0]) if scale > 0 else 0.0
    return TriangleRelease(
        value=triangles + noise,
        smooth_sensitivity=float(smooth),
        beta=float(beta),
        epsilon=epsilon,
        delta=delta,
        noise_scale=float(scale),
    )
