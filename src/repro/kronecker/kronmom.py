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

The grid stage is numpy; the refinement steps every restart in
:data:`repro.native.kronmom.KRONMOM_KERNEL`, and a restart the kernel
flags for a vertex tie reruns on :func:`_nelder_mead` (a copy of scipy's
Nelder–Mead on Python floats) over :meth:`KronMomEstimator._float_objective`,
which gives the kernel's bits.  The oracle,
:class:`repro.reference.kronmom.ReferenceKronMomEstimator`, runs every
restart there.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np

from repro.errors import EstimationError, ValidationError
from repro.graphs.graph import Graph
from repro.graphs.operations import next_power_of_two_exponent
from repro.kronecker.initiator import Initiator
from repro.kronecker.moments import expected_feature_vector
from repro.native.kronmom import KRONMOM_KERNEL, refine_restarts
from repro.stats.counts import MatchingStatistics, matching_statistics
from repro.utils.validation import check_integer

__all__ = [
    "KronMomEstimator",
    "MomentMatchResult",
    "DISTANCES",
    "NORMALIZATIONS",
    "DEFAULT_FEATURES",
    "MAX_K",
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

# The largest Kronecker order fit_statistics accepts: far past the
# sampler's k <= 31, and small enough that no closed-form power of a
# clamped initiator overflows a double (the largest base is 16).
MAX_K = 64

# Denominators are floored at this value to keep the objective finite when
# an expected count vanishes (e.g. b = c = 0 grid corners).
_NORM_FLOOR = 1e-12

# :func:`_grid` keeps grids of up to this many points per axis (~3 MB).
_CACHED_GRID_POINTS = 41

# Tolerances and iteration cap of every refinement restart.
_NELDER_MEAD_OPTIONS = {"xatol": 1e-6, "fatol": 1e-10, "maxiter": 2000}


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
        unknown = [name for name in features if name not in DEFAULT_FEATURES]
        if unknown:
            raise ValidationError(
                f"unknown feature(s) {unknown}; options: {list(DEFAULT_FEATURES)}"
            )
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

        Raises :class:`~repro.errors.ValidationError` for ``k`` outside
        ``1..MAX_K``, a non-finite observed value, or a positive one whose
        square overflows a double (above ~1.34e154).
        """
        k = check_integer(k, "k", minimum=1, maximum=MAX_K)
        values = [float(value) for value in observed]
        for name, value in zip(MatchingStatistics._fields, values):
            if not math.isfinite(value):
                raise ValidationError(f"observed {name} must be finite, got {value!r}")
            if value > 0 and not math.isfinite(value * value):
                # The objective squares the floored value (negatives floor to
                # _FEATURE_FLOOR); an overflow would turn every grid value
                # into NaN and the fit into Initiator(0, 0, 0).
                raise ValidationError(
                    f"observed {name} = {value!r} is too large: its square "
                    "overflows a double"
                )
        floored = MatchingStatistics(*(max(value, _FEATURE_FLOOR) for value in values))
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

    def _grid_stage(self, observed: np.ndarray, k: int) -> tuple[np.ndarray, float]:
        grid = _grid if self.grid_points <= _CACHED_GRID_POINTS else _grid.__wrapped__
        a, b, c, mask, expected = grid(self.grid_points, k, self.features)
        observed_cols = observed.reshape((-1,) + (1,) * (expected.ndim - 1))
        dist = DISTANCES[self.distance](observed_cols, expected)
        norm = NORMALIZATIONS[self.normalization](observed_cols, expected)
        norm = np.maximum(np.abs(norm), _NORM_FLOOR)
        values = np.full(a.shape, np.inf)
        values[mask] = (dist / norm).sum(axis=0)
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
        rng = np.random.default_rng(12345)  # deterministic restart jitter
        starts = [grid_best]
        for _ in range(self.n_refinements - 1):
            jitter = rng.normal(scale=0.08, size=3)
            starts.append(np.clip(grid_best + jitter, 0.0, 1.0))
        runs = self._restart_runs([s.tolist() for s in starts], observed.tolist(), k)
        objective = self._float_objective(observed, k)
        best_params, best_value = grid_best.copy(), grid_value
        for start, run in zip(starts, runs):
            # A restart the kernel flagged (a vertex tie) reruns in Python.
            x, fun = run or _nelder_mead(objective, start.tolist(), **_NELDER_MEAD_OPTIONS)
            if fun < best_value:
                best_value = float(fun)
                best_params = np.clip(np.array(x), 0.0, 1.0)
        return best_params, best_value

    def _restart_runs(self, starts, observed, k: int) -> list:
        """Every restart on the kernel: ``(x, fun)`` each, or ``None`` for
        one it flagged (see :func:`~repro.native.kronmom.refine_restarts`)."""
        return refine_restarts(
            KRONMOM_KERNEL.kernel(), starts, observed, k, self.features,
            self.distance, self.normalization, **_NELDER_MEAD_OPTIONS,
        )

    def _float_objective(self, observed: np.ndarray, k: int):
        """The refinement objective on plain floats: what
        :data:`repro.native.kronmom.KRONMOM_KERNEL` evaluates, bit for bit.

        It returns the bits an array evaluation would (see
        :mod:`repro.kronecker.moments`): numpy's clip is min/max, and its
        sums over fewer than 8 items add left to right, as these do.
        """
        dist = DISTANCES[self.distance]
        norm = NORMALIZATIONS[self.normalization]
        observed_values = observed.tolist()
        features = self.features

        def objective(params: list[float]) -> float:
            x, y, z = params
            a, b, c = min(max(x, 0.0), 1.0), min(max(y, 0.0), 1.0), min(max(z, 0.0), 1.0)
            penalty = abs(x - a) + abs(y - b) + abs(z - c)
            expected = expected_feature_vector(a, b, c, k, features)
            total = 0.0
            for obs, exp in zip(observed_values, expected):
                total += dist(obs, exp) / max(abs(norm(obs, exp)), _NORM_FLOOR)
            return total + penalty * 1e3

        return objective


@functools.lru_cache(maxsize=8)
def _grid(grid_points: int, k: int, features: tuple[str, ...]):
    """The grid stage's ``(a, b, c, mask, expected)``, read-only: the
    meshgrid, its a >= c mask (the objective is symmetric) and the expected
    features there, shared by every fit at one (grid_points, k, features)."""
    axis = np.linspace(0.0, 1.0, grid_points)
    a, b, c = np.meshgrid(axis, axis, axis, indexing="ij")
    mask = a >= c
    expected = expected_feature_vector(a[mask], b[mask], c[mask], k, features)
    for array in (a, b, c, mask, expected):
        array.flags.writeable = False
    return a, b, c, mask, expected


# scipy's Nelder–Mead coefficients (reflection, expansion, contraction,
# shrink) and initial-simplex steps, non-adaptive variant.
_RHO, _CHI, _PSI, _SIGMA = 1, 2, 0.5, 0.5
_NONZDELT, _ZDELT = 0.05, 0.00025


def _simplex_order(fsim: list[float]) -> list[int]:
    """The vertex order ``np.argsort(fsim)`` gives.

    numpy's default argsort is not stable on ties (its SIMD sort orders
    some tie patterns differently from a stable sort), so ``sorted`` —
    the fast path — is used only when the values are distinct and not
    NaN, where every correct sort agrees; anything else goes through
    ``np.argsort`` exactly as scipy does.
    """
    if len(set(fsim)) == len(fsim) and not any(f != f for f in fsim):
        return sorted(range(len(fsim)), key=fsim.__getitem__)
    return np.argsort(np.array(fsim)).tolist()


def _nelder_mead(
    func, x0: list[float], *, xatol: float, fatol: float, maxiter: int
) -> tuple[list[float], float]:
    """``(x, fun)`` of ``scipy.optimize.minimize(func, x0, method="Nelder-Mead",
    options={"xatol", "fatol", "maxiter"})``, bit for bit.

    A line-by-line copy of scipy 1.17's ``_minimize_neldermead`` (no
    bounds, no adaptive coefficients, ``maxfev`` unbounded because
    ``maxiter`` is given) on lists of Python floats: the same initial
    simplex, the same vertex sums (``xbar`` adds the first N vertices
    left to right, then divides by N), the same branch order and
    termination test, and the same argsort reordering.  ``func`` takes a
    list of floats and returns a float.
    """
    n = len(x0)
    sim = [list(x0)]
    for k in range(n):
        y = list(x0)
        if y[k] != 0:
            y[k] = (1 + _NONZDELT) * y[k]
        else:
            y[k] = _ZDELT
        sim.append(y)
    fsim = [func(vertex) for vertex in sim]
    # scipy sorts twice before the first iteration.
    for _ in range(2):
        order = _simplex_order(fsim)
        sim = [sim[i] for i in order]
        fsim = [fsim[i] for i in order]

    iterations = 1
    while iterations < maxiter:
        best = sim[0]
        if all(
            abs(v - b) <= xatol for vertex in sim[1:] for v, b in zip(vertex, best)
        ) and all(abs(fsim[0] - f) <= fatol for f in fsim[1:]):
            break
        worst = sim[-1]
        xbar = [0.0] * n
        for j in range(n):
            total = sim[0][j]
            for vertex in sim[1:-1]:
                total = total + vertex[j]
            xbar[j] = total / n
        xr = [(1 + _RHO) * c - _RHO * w for c, w in zip(xbar, worst)]
        fxr = func(xr)
        if fxr < fsim[0]:
            xe = [(1 + _RHO * _CHI) * c - _RHO * _CHI * w for c, w in zip(xbar, worst)]
            fxe = func(xe)
            if fxe < fxr:
                sim[-1], fsim[-1] = xe, fxe
            else:
                sim[-1], fsim[-1] = xr, fxr
        elif fxr < fsim[-2]:
            sim[-1], fsim[-1] = xr, fxr
        else:
            shrink = False
            if fxr < fsim[-1]:
                xc = [(1 + _PSI * _RHO) * c - _PSI * _RHO * w for c, w in zip(xbar, worst)]
                fxc = func(xc)
                if fxc <= fxr:
                    sim[-1], fsim[-1] = xc, fxc
                else:
                    shrink = True
            else:
                xcc = [(1 - _PSI) * c + _PSI * w for c, w in zip(xbar, worst)]
                fxcc = func(xcc)
                if fxcc < fsim[-1]:
                    sim[-1], fsim[-1] = xcc, fxcc
                else:
                    shrink = True
            if shrink:
                for j in range(1, n + 1):
                    sim[j] = [b + _SIGMA * (v - b) for v, b in zip(sim[j], sim[0])]
                    fsim[j] = func(sim[j])
        iterations += 1
        order = _simplex_order(fsim)
        sim = [sim[i] for i in order]
        fsim = [fsim[i] for i in order]
    # np.min: NaN if any vertex value is NaN, else the least value.
    fun = float("nan") if any(f != f for f in fsim) else min(fsim)
    return sim[0], fun
