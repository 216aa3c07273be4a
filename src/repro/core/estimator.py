"""Algorithm 1: differentially private estimation of the SKG initiator.

The pipeline (numbering as in the paper):

1.   compute the degree vector of G,
2.   release an (ε/2)-DP sorted degree sequence (Hay et al.),
3.   derive Ẽ, H̃, T̃ from the released degrees,
4-5. release an (ε/2, δ)-DP triangle count Δ̃ (NRS smooth sensitivity),
6.   run Gleich–Owen moment matching on {Ẽ, H̃, T̃, Δ̃}.

Steps 1-5 live in :mod:`repro.privacy.stats_release`; step 6 reuses the
non-private :class:`~repro.kronecker.kronmom.KronMomEstimator` verbatim —
the only difference between "KronMom" and "Private" in the experiments is
which statistics enter the objective.  By sequential composition the
returned estimate is (ε, δ)-differentially private (Corollary 4.11), and
everything derived from it afterwards is post-processing.
"""

from __future__ import annotations

from repro.errors import EstimationError, ValidationError
from repro.graphs.graph import Graph
from repro.graphs.operations import next_power_of_two_exponent
from repro.kronecker.kronmom import DEFAULT_FEATURES, KronMomEstimator
from repro.core.release import PrivateEstimate
from repro.privacy.stats_release import check_degree_share, release_matching_statistics
from repro.stats.counts import MatchingStatistics
from repro.utils.rng import SeedLike
from repro.utils.validation import check_in_unit_interval, check_positive

__all__ = ["PrivateKroneckerEstimator"]


class PrivateKroneckerEstimator:
    """(ε, δ)-differentially private SKG initiator estimation (Algorithm 1).

    Parameters
    ----------
    epsilon, delta:
        Total privacy budget (paper default: ε = 0.2, δ = 0.01).
    degree_share:
        Fraction of ε spent on the degree release (paper: 0.5).
    constrained_inference:
        Apply Hay et al.'s isotonic post-processing to the noisy degrees.
    distance, normalization, features, grid_points, n_refinements:
        Forwarded to the underlying moment matcher (see
        :class:`~repro.kronecker.kronmom.KronMomEstimator`).
    triangle_floor:
        Policy for stabilising the noisy triangle count before matching.
        The Laplace scale ``2·SS_β/ε`` of the triangle release is public,
        so flooring Δ̃ at it is privacy-free post-processing.  Without a
        floor, a noise draw can leave Δ̃ near (or below) zero, and the
        ``1/Δ̃²`` weight of the default normalisation then blows up and
        drags the fit to a degenerate triangle-free initiator.  Options:
        ``"noise_scale"`` (default; empirically the most robust — see the
        policy ablation in benchmarks/bench_ablation_epsilon.py),
        ``"one"`` (floor at 1), ``"none"`` (no adjustment beyond the
        matcher's internal floor).
    seed:
        Randomness for the noise draws (see the RNG caveat in
        :mod:`repro.utils.rng`).

    Examples
    --------
    >>> from repro.kronecker import Initiator
    >>> graph = Initiator(0.99, 0.45, 0.25).sample(10, seed=3)
    >>> estimate = PrivateKroneckerEstimator(epsilon=1.0, delta=0.01,
    ...                                      seed=0).fit(graph)
    >>> estimate.epsilon
    1.0
    """

    def __init__(
        self,
        epsilon: float = 0.2,
        delta: float = 0.01,
        *,
        degree_share: float = 0.5,
        constrained_inference: bool = True,
        distance: str = "squared",
        normalization: str = "observed_squared",
        features: tuple[str, ...] = DEFAULT_FEATURES,
        grid_points: int = 21,
        n_refinements: int = 5,
        triangle_floor: str = "noise_scale",
        seed: SeedLike = None,
    ) -> None:
        self.epsilon = check_positive(epsilon, "epsilon")
        self.delta = check_in_unit_interval(delta, "delta")
        self.degree_share = check_degree_share(degree_share)
        self.constrained_inference = constrained_inference
        if triangle_floor not in ("noise_scale", "one", "none"):
            raise ValidationError(
                f"triangle_floor must be 'noise_scale', 'one' or 'none', "
                f"got {triangle_floor!r}"
            )
        self.triangle_floor = triangle_floor
        self.seed = seed
        self._matcher = KronMomEstimator(
            distance=distance,
            normalization=normalization,
            features=features,
            grid_points=grid_points,
            n_refinements=n_refinements,
        )

    def fit(self, graph: Graph) -> PrivateEstimate:
        """Run Algorithm 1 on ``graph`` and return the private estimate."""
        if graph.n_nodes < 2:
            raise EstimationError("graph too small for private estimation")
        k = next_power_of_two_exponent(graph.n_nodes)
        release = release_matching_statistics(
            graph,
            self.epsilon,
            self.delta,
            degree_share=self.degree_share,
            constrained_inference=self.constrained_inference,
            seed=self.seed,
        )
        statistics = self._apply_triangle_floor(release)
        moment_result = self._matcher.fit_statistics(statistics, k)
        return PrivateEstimate(
            initiator=moment_result.initiator,
            k=k,
            release=release,
            moment_result=moment_result,
        )

    def _apply_triangle_floor(self, release) -> "MatchingStatistics":
        """Stabilise the triangle statistic (privacy-free post-processing)."""
        statistics = release.statistics
        if self.triangle_floor == "none":
            return statistics
        floor = 1.0
        if self.triangle_floor == "noise_scale":
            floor = max(1.0, release.triangle_release.noise_scale)
        if statistics.triangles >= floor:
            return statistics
        return MatchingStatistics(
            edges=statistics.edges,
            hairpins=statistics.hairpins,
            tripins=statistics.tripins,
            triangles=floor,
        )
