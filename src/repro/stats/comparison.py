"""Metrics for comparing estimates, statistics, and figure series.

EXPERIMENTS.md quantifies "the private estimator performs almost similarly
to the non-private estimators" with the metrics here: relative errors on
counts, a Kolmogorov–Smirnov distance between degree distributions, and a
log-scale series distance for the figure plots
(hop/scree/network-value/clustering curves are compared in the paper on
log axes, so log-space distance is the faithful notion of "close").
"""

from __future__ import annotations

import numpy as np

from repro.errors import ValidationError

__all__ = [
    "relative_error",
    "statistics_relative_errors",
    "ks_distance",
    "log_series_distance",
]


def relative_error(estimate: float, truth: float) -> float:
    """|estimate − truth| / max(|truth|, 1): bounded at zero truth values."""
    return abs(float(estimate) - float(truth)) / max(abs(float(truth)), 1.0)


def statistics_relative_errors(estimate, truth) -> dict[str, float]:
    """Per-feature relative errors of two matching-statistics quadruples.

    Accepts anything unpackable to four floats in (E, H, T, Δ) order —
    in particular two :class:`~repro.stats.counts.MatchingStatistics` —
    and returns the field-keyed relative errors the benches and examples
    report.
    """
    estimate = tuple(estimate)
    truth = tuple(truth)
    if len(estimate) != 4 or len(truth) != 4:
        raise ValidationError(
            "statistics_relative_errors expects (E, H, T, Δ) quadruples"
        )
    names = ("edges", "hairpins", "tripins", "triangles")
    return {
        name: relative_error(e, t) for name, e, t in zip(names, estimate, truth)
    }


def ks_distance(samples_a: np.ndarray, samples_b: np.ndarray) -> float:
    """Two-sample Kolmogorov–Smirnov statistic (no p-value, just distance).

    Used to compare degree sequences of original vs synthetic graphs;
    implemented directly (sorted merge) so it stays exact for the integer
    ties that degree data is full of.
    """
    a = np.sort(np.asarray(samples_a, dtype=np.float64))
    b = np.sort(np.asarray(samples_b, dtype=np.float64))
    if a.size == 0 or b.size == 0:
        raise ValidationError("ks_distance requires non-empty samples")
    grid = np.unique(np.concatenate([a, b]))
    cdf_a = np.searchsorted(a, grid, side="right") / a.size
    cdf_b = np.searchsorted(b, grid, side="right") / b.size
    return float(np.abs(cdf_a - cdf_b).max())


def log_series_distance(
    xs_a: np.ndarray,
    ys_a: np.ndarray,
    xs_b: np.ndarray,
    ys_b: np.ndarray,
    *,
    n_grid: int = 50,
) -> float:
    """Mean |log10 yₐ − log10 y_b| after interpolating both series onto a
    shared log-x grid spanning the overlap of their supports.

    Series points with non-positive coordinates are dropped (they do not
    appear on the paper's log-log plots either).  Returns NaN when the
    supports do not overlap.
    """
    xa, ya = _positive(xs_a, ys_a)
    xb, yb = _positive(xs_b, ys_b)
    if xa.size < 2 or xb.size < 2:
        return float("nan")
    low = max(xa.min(), xb.min())
    high = min(xa.max(), xb.max())
    if not low < high:
        return float("nan")
    grid = np.logspace(np.log10(low), np.log10(high), n_grid)
    log_ya = np.interp(np.log10(grid), np.log10(xa), np.log10(ya))
    log_yb = np.interp(np.log10(grid), np.log10(xb), np.log10(yb))
    return float(np.mean(np.abs(log_ya - log_yb)))


def _positive(xs: np.ndarray, ys: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    xs = np.asarray(xs, dtype=np.float64)
    ys = np.asarray(ys, dtype=np.float64)
    if xs.shape != ys.shape:
        raise ValidationError(f"series shape mismatch: {xs.shape} vs {ys.shape}")
    keep = (xs > 0) & (ys > 0)
    xs, ys = xs[keep], ys[keep]
    order = np.argsort(xs)
    return xs[order], ys[order]
