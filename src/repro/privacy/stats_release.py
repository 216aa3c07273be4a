"""Combined DP release of the four matching statistics {Ẽ, H̃, T̃, Δ̃}.

This module is steps 1-5 of the paper's Algorithm 1 in one call:

1-2. release the sorted degree sequence at ε/2 (Hay et al.),
3.   derive Ẽ, H̃, T̃ from the released degrees (Fact 4.6 — privacy-free
     post-processing of an already-DP vector),
4-5. release the triangle count at (ε/2, δ) via smooth sensitivity.

By sequential composition (Theorem 4.9) the bundle is (ε, δ)-DP; the
:class:`~repro.privacy.accountant.PrivacyAccountant` attached to the
result records exactly that ledger.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.errors import ValidationError
from repro.graphs.graph import Graph
from repro.privacy.accountant import PrivacyAccountant
from repro.privacy.degree_release import DegreeRelease, release_sorted_degrees
from repro.privacy.triangles import TriangleRelease, release_triangle_count
from repro.stats.counts import MatchingStatistics, degree_moment_statistics
from repro.utils.rng import SeedLike, as_generator
from repro.utils.validation import check_in_unit_interval, check_positive

__all__ = ["StatisticsRelease", "release_matching_statistics", "check_degree_share"]


def check_degree_share(degree_share: float) -> float:
    """Validate the degree release's share of ε: strictly inside (0, 1)."""
    degree_share = check_in_unit_interval(degree_share, "degree_share")
    if degree_share in (0.0, 1.0):
        raise ValidationError("degree_share must be strictly between 0 and 1")
    return degree_share


@dataclass(frozen=True)
class StatisticsRelease:
    """The DP matching statistics plus full provenance.

    Attributes
    ----------
    statistics:
        The noisy feature tuple fed to moment matching.
    degree_release, triangle_release:
        The two underlying sub-releases with their own diagnostics.
    accountant:
        Ledger showing the (ε, δ) composition.
    """

    statistics: MatchingStatistics
    degree_release: DegreeRelease
    triangle_release: TriangleRelease
    accountant: PrivacyAccountant

    @property
    def epsilon(self) -> float:
        """Total ε consumed."""
        return self.accountant.spent[0]

    @property
    def delta(self) -> float:
        """Total δ consumed."""
        return self.accountant.spent[1]


def release_matching_statistics(
    graph: Graph,
    epsilon: float,
    delta: float,
    *,
    degree_share: float = 0.5,
    constrained_inference: bool = True,
    seed: SeedLike = None,
) -> StatisticsRelease:
    """(ε, δ)-DP release of the four matching statistics of ``graph``.

    Parameters
    ----------
    epsilon, delta:
        Total privacy budget of the bundle (the paper uses ε = 0.2,
        δ = 0.01).
    degree_share:
        Fraction of ε given to the degree release; the remainder goes to
        the triangle release (the paper splits evenly).  All of δ goes to
        the triangle release — the degree mechanism is pure ε-DP.
    constrained_inference:
        Forwarded to :func:`release_sorted_degrees` (ablation knob).
    """
    epsilon = check_positive(epsilon, "epsilon")
    delta = check_in_unit_interval(delta, "delta")
    degree_share = check_degree_share(degree_share)
    rng = as_generator(seed)
    accountant = PrivacyAccountant(epsilon=epsilon, delta=delta)

    epsilon_degrees = degree_share * epsilon
    epsilon_triangles = epsilon - epsilon_degrees

    degree_release = release_sorted_degrees(
        graph,
        epsilon_degrees,
        constrained_inference=constrained_inference,
        seed=rng,
    )
    accountant.charge("sorted-degree sequence (Hay et al.)", epsilon_degrees, 0.0)

    triangle_release = release_triangle_count(graph, epsilon_triangles, delta, seed=rng)
    accountant.charge(
        "triangle count (NRS smooth sensitivity)", epsilon_triangles, delta
    )

    edges, hairpins, tripins = degree_moment_statistics(degree_release.degrees)
    statistics = MatchingStatistics(
        edges=edges,
        hairpins=hairpins,
        tripins=tripins,
        triangles=triangle_release.value,
    )
    return StatisticsRelease(
        statistics=statistics,
        degree_release=degree_release,
        triangle_release=triangle_release,
        accountant=accountant,
    )
