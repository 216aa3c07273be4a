"""KronMom: Gleich–Owen moment matching (the estimator the paper privatises).

The estimator solves the paper's Eq. (2):

    min_{a, b, c}  Σ_F  Dist(F, E_{a,b,c}(F)) / Norm(F, E_{a,b,c}(F))

over features F drawn from {edges, hairpins, tripins, triangles}, where
``E_{a,b,c}(F)`` are the closed-form expectations of
:mod:`repro.kronecker.moments` and the observed values may be exact counts
(non-private KronMom) or DP approximations (the paper's Algorithm 1 feeds
its noisy statistics into this very routine).

Both distance functions (squared / absolute) and all four normalisations
(F, F², E, E²) of the paper are implemented; Gleich & Owen report
``DistSq`` with ``NormF²`` as the robust default, which is ours as well.
Optimisation is a dense vectorised grid search (the closed forms broadcast
over parameter arrays) followed by Nelder–Mead refinement from the best
grid points, with the identifiability convention a ≥ c applied at the end.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import scipy.optimize

from repro.errors import EstimationError, ValidationError
from repro.graphs.graph import Graph
from repro.graphs.operations import next_power_of_two_exponent
from repro.kronecker.initiator import Initiator
from repro.kronecker.moments import expected_feature_vector
from repro.stats.counts import MatchingStatistics, matching_statistics
from repro.utils.validation import check_integer

__all__ = [
    "KronMomEstimator",
    "MomentMatchResult",
    "DISTANCES",
    "NORMALIZATIONS",
    "DEFAULT_FEATURES",
]

DEFAULT_FEATURES = ("edges", "hairpins", "tripins", "triangles")

# Observed DP statistics can be negative after noising; they are floored
# here before matching (an estimator detail, not a privacy issue — the
# floor is data-independent post-processing).
_FEATURE_FLOOR = 1.0


# Written with products and the builtin ``abs`` so one definition serves
# the grid's arrays and the refinement's plain floats with the same bits
# (numpy's ``x**2`` on an array is ``x*x``).


def _dist_squared(observed, expected):
    residual = observed - expected
    return residual * residual


def _dist_absolute(observed, expected):
    return abs(observed - expected)


DISTANCES = {
    "squared": _dist_squared,
    "absolute": _dist_absolute,
}


def _norm_observed(observed, expected):
    return observed


def _norm_observed_squared(observed, expected):
    return observed * observed


def _norm_expected(observed, expected):
    return expected


def _norm_expected_squared(observed, expected):
    return expected * expected


NORMALIZATIONS = {
    "observed": _norm_observed,
    "observed_squared": _norm_observed_squared,
    "expected": _norm_expected,
    "expected_squared": _norm_expected_squared,
}

# Denominators are floored at this value to keep the objective finite when
# an expected count vanishes (e.g. b = c = 0 grid corners).
_NORM_FLOOR = 1e-12


@dataclass(frozen=True)
class MomentMatchResult:
    """Outcome of a moment-matching solve.

    Attributes
    ----------
    initiator:
        Fitted initiator (canonical, a >= c).
    objective:
        Final objective value.
    k:
        Kronecker order the expectations were evaluated at.
    observed:
        The feature values that were matched (post-flooring).
    features:
        Names of the matched features, in objective order.
    n_restarts:
        Number of Nelder–Mead refinements run.
    """

    initiator: Initiator
    objective: float
    k: int
    observed: MatchingStatistics
    features: tuple[str, ...]
    n_restarts: int


class KronMomEstimator:
    """Moment-matching estimation of a 2×2 symmetric SKG initiator.

    Parameters
    ----------
    distance, normalization:
        Keys into :data:`DISTANCES` / :data:`NORMALIZATIONS` selecting the
        paper's Dist and Norm functions (defaults: ``"squared"``,
        ``"observed_squared"`` — the combination Gleich & Owen found robust).
    features:
        Subset of ``{"edges", "hairpins", "tripins", "triangles"}`` to match.
    grid_points:
        Grid resolution per axis for the global search stage.
    n_refinements:
        How many of the best grid points get Nelder–Mead refinement.

    Examples
    --------
    >>> graph = Initiator(0.99, 0.45, 0.25).sample(10, seed=7)
    >>> result = KronMomEstimator().fit(graph)
    >>> abs(result.initiator.b - 0.45) < 0.2
    True
    """

    def __init__(
        self,
        *,
        distance: str = "squared",
        normalization: str = "observed_squared",
        features: tuple[str, ...] = DEFAULT_FEATURES,
        grid_points: int = 21,
        n_refinements: int = 5,
    ) -> None:
        if distance not in DISTANCES:
            raise ValidationError(
                f"unknown distance {distance!r}; options: {sorted(DISTANCES)}"
            )
        if normalization not in NORMALIZATIONS:
            raise ValidationError(
                f"unknown normalization {normalization!r}; "
                f"options: {sorted(NORMALIZATIONS)}"
            )
        if not features:
            raise ValidationError("at least one feature must be matched")
        self.distance = distance
        self.normalization = normalization
        self.features = tuple(features)
        self.grid_points = check_integer(grid_points, "grid_points", minimum=3)
        self.n_refinements = check_integer(n_refinements, "n_refinements", minimum=1)

    # ------------------------------------------------------------------

    def fit(self, graph: Graph) -> MomentMatchResult:
        """Fit to the exact matching statistics of ``graph``."""
        if graph.n_nodes < 2:
            raise EstimationError("graph too small for moment matching")
        k = next_power_of_two_exponent(graph.n_nodes)
        return self.fit_statistics(matching_statistics(graph), k)

    def fit_statistics(self, observed: MatchingStatistics, k: int) -> MomentMatchResult:
        """Fit to externally supplied (possibly noisy) statistics.

        This is the entry point Algorithm 1 uses: the private estimator
        computes DP statistics and hands them to the same solver as the
        non-private KronMom.
        """
        k = check_integer(k, "k", minimum=1)
        floored = MatchingStatistics(
            edges=max(float(observed.edges), _FEATURE_FLOOR),
            hairpins=max(float(observed.hairpins), _FEATURE_FLOOR),
            tripins=max(float(observed.tripins), _FEATURE_FLOOR),
            triangles=max(float(observed.triangles), _FEATURE_FLOOR),
        )
        observed_vector = np.array(
            [getattr(floored, name) for name in self.features], dtype=np.float64
        )
        best_params, best_value = self._grid_stage(observed_vector, k)
        best_params, best_value = self._refine_stage(
            observed_vector, k, best_params, best_value
        )
        a, b, c = (float(np.clip(p, 0.0, 1.0)) for p in best_params)
        return MomentMatchResult(
            initiator=Initiator(a, b, c).canonical(),
            objective=float(best_value),
            k=k,
            observed=floored,
            features=self.features,
            n_restarts=self.n_refinements,
        )

    # ------------------------------------------------------------------

    def _objective_vectorized(self, observed: np.ndarray, a, b, c, k: int):
        expected = expected_feature_vector(a, b, c, k, self.features)
        observed_cols = observed.reshape((-1,) + (1,) * (expected.ndim - 1))
        dist = DISTANCES[self.distance](observed_cols, expected)
        norm = NORMALIZATIONS[self.normalization](observed_cols, expected)
        norm = np.maximum(np.abs(norm), _NORM_FLOOR)
        return (dist / norm).sum(axis=0)

    def _grid_stage(self, observed: np.ndarray, k: int) -> tuple[np.ndarray, float]:
        axis = np.linspace(0.0, 1.0, self.grid_points)
        a, b, c = np.meshgrid(axis, axis, axis, indexing="ij")
        # Identifiability: only scan a >= c (the objective is symmetric).
        mask = a >= c
        values = np.full(a.shape, np.inf)
        values[mask] = self._objective_vectorized(
            observed, a[mask], b[mask], c[mask], k
        )
        flat_best = int(np.argmin(values))
        index = np.unravel_index(flat_best, values.shape)
        best = np.array([a[index], b[index], c[index]])
        return best, float(values[index])

    def _refine_stage(
        self,
        observed: np.ndarray,
        k: int,
        grid_best: np.ndarray,
        grid_value: float,
    ) -> tuple[np.ndarray, float]:
        # Runs on plain floats (see repro.kronecker.moments) and returns the
        # bits an array evaluation would: numpy's clip is min/max, and its
        # sums over fewer than 8 items add left to right, as these do.
        dist = DISTANCES[self.distance]
        norm = NORMALIZATIONS[self.normalization]
        observed_values = observed.tolist()
        features = self.features

        def objective(params: np.ndarray) -> float:
            x, y, z = params.tolist()
            a, b, c = min(max(x, 0.0), 1.0), min(max(y, 0.0), 1.0), min(max(z, 0.0), 1.0)
            penalty = abs(x - a) + abs(y - b) + abs(z - c)
            expected = expected_feature_vector(a, b, c, k, features)
            total = 0.0
            for obs, exp in zip(observed_values, expected):
                total += dist(obs, exp) / max(abs(norm(obs, exp)), _NORM_FLOOR)
            return total + penalty * 1e3

        rng = np.random.default_rng(12345)  # deterministic restart jitter
        best_params, best_value = grid_best.copy(), grid_value
        starts = [grid_best]
        for _ in range(self.n_refinements - 1):
            jitter = rng.normal(scale=0.08, size=3)
            starts.append(np.clip(grid_best + jitter, 0.0, 1.0))
        for start in starts:
            result = scipy.optimize.minimize(
                objective,
                start,
                method="Nelder-Mead",
                options={"xatol": 1e-6, "fatol": 1e-10, "maxiter": 2000},
            )
            if result.fun < best_value:
                best_value = float(result.fun)
                best_params = np.clip(result.x, 0.0, 1.0)
        return best_params, best_value
