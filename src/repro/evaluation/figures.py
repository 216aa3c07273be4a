"""The five figure statistics and the per-figure experiment driver.

Each of the paper's Figures 1-4 overlays, for one dataset, the series of
the original graph and of synthetic Kronecker graphs generated from the
three estimators (KronFit / KronMom / Private), for five statistics:

(a) hop plot, (b) degree distribution, (c) scree plot (singular values),
(d) network values (principal singular vector components), (e) average
clustering coefficient by degree.

Figure 1 additionally overlays "Expected" curves: the statistic averaged
over an ensemble of realizations (the paper uses 100).  Each ensemble is
declared as a pure-sampling scenario
(:func:`repro.scenarios.expected_ensemble_scenario`: a ``Fixed``
initiator estimator with the ``graph_statistics`` measurement) and
executed by the scenario engine — ``config.n_jobs`` fans the
realizations across worker processes and ``config.cache_dir`` memoizes
completed trials, with results bit-identical for any worker count.

Within one graph the five statistics share the graph's
:class:`~repro.stats.kernels.StatsContext`: the clustering series reuses
the A² pass (also shared with any triangle/sensitivity counts on
the same graph) and the hop plot reuses the cached float adjacency, so
per-realization cost is one pass plus the BFS/SVD work.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.errors import ValidationError
from repro.graphs.datasets import load_dataset
from repro.graphs.graph import Graph
from repro.core.nonprivate import (
    EstimatorResult,
    fit_kronfit,
    fit_kronmom,
    fit_private,
)
from repro.evaluation.experiments import FIGURE_DATASETS, ExperimentConfig, default_config
from repro.scenarios import expected_ensemble_scenario, run_scenario
from repro.stats.clustering import clustering_by_degree
from repro.stats.degrees import degree_distribution
from repro.stats.hopplot import hop_plot
from repro.stats.spectral import network_values, singular_values
from repro.utils.rng import SeedLike, as_generator, spawn_generators

__all__ = [
    "FigureSeries",
    "GraphStatistics",
    "compute_graph_statistics",
    "average_statistics",
    "FigureResult",
    "run_figure",
    "STATISTIC_NAMES",
]

STATISTIC_NAMES = (
    "hop_plot",
    "degree_distribution",
    "scree",
    "network_value",
    "clustering",
)


@dataclass(frozen=True)
class FigureSeries:
    """One plotted curve: label plus (x, y) arrays."""

    label: str
    xs: np.ndarray
    ys: np.ndarray


@dataclass(frozen=True)
class GraphStatistics:
    """The five figure statistics of one graph, keyed by STATISTIC_NAMES."""

    series: dict[str, FigureSeries]

    def __getitem__(self, name: str) -> FigureSeries:
        return self.series[name]


def compute_graph_statistics(
    graph: Graph,
    label: str,
    *,
    hop_sources: int | None = 512,
    svd_rank: int = 50,
    seed: SeedLike = None,
) -> GraphStatistics:
    """Compute all five figure statistics of ``graph``."""
    rng = as_generator(seed)
    hops, pairs = hop_plot(graph, n_sources=hop_sources, seed=rng)
    degree_values, degree_counts = degree_distribution(graph)
    scree = singular_values(graph, k=svd_rank)
    netval = network_values(graph, k=svd_rank)
    cluster_degrees, cluster_means = clustering_by_degree(graph)
    series = {
        "hop_plot": FigureSeries(label, hops.astype(float), pairs.astype(float)),
        "degree_distribution": FigureSeries(
            label, degree_values.astype(float), degree_counts.astype(float)
        ),
        "scree": FigureSeries(
            label, np.arange(1, scree.size + 1, dtype=float), scree
        ),
        "network_value": FigureSeries(
            label, np.arange(1, netval.size + 1, dtype=float), netval
        ),
        "clustering": FigureSeries(
            label, cluster_degrees.astype(float), cluster_means
        ),
    }
    return GraphStatistics(series=series)


def average_statistics(
    per_graph: list[GraphStatistics], label: str
) -> GraphStatistics:
    """Average the five statistics across an ensemble ("Expected" curves).

    Aggregation is statistic-appropriate:

    * hop plot — mean pair count per hop, shorter series padded with their
      saturated final value,
    * degree distribution — mean node count per degree over the union of
      degree values (absent degree = 0 count),
    * scree / network value — mean per rank, truncated to the shortest
      series,
    * clustering — mean coefficient per degree over the graphs where that
      degree occurs.
    """
    if not per_graph:
        raise ValidationError("cannot average an empty ensemble")
    series: dict[str, FigureSeries] = {}
    series["hop_plot"] = _average_padded(
        [g["hop_plot"] for g in per_graph], label, pad="last"
    )
    series["degree_distribution"] = _average_sparse(
        [g["degree_distribution"] for g in per_graph], label, absent_is_zero=True
    )
    series["scree"] = _average_truncated([g["scree"] for g in per_graph], label)
    series["network_value"] = _average_truncated(
        [g["network_value"] for g in per_graph], label
    )
    series["clustering"] = _average_sparse(
        [g["clustering"] for g in per_graph], label, absent_is_zero=False
    )
    return GraphStatistics(series=series)


def _average_padded(curves: list[FigureSeries], label: str, pad: str) -> FigureSeries:
    length = max(curve.ys.size for curve in curves)
    stacked = np.empty((len(curves), length), dtype=np.float64)
    for row, curve in enumerate(curves):
        values = curve.ys
        if values.size < length:
            fill = values[-1] if (pad == "last" and values.size) else 0.0
            values = np.concatenate([values, np.full(length - values.size, fill)])
        stacked[row] = values
    return FigureSeries(label, np.arange(length, dtype=float), stacked.mean(axis=0))


def _average_truncated(curves: list[FigureSeries], label: str) -> FigureSeries:
    length = min(curve.ys.size for curve in curves)
    if length == 0:
        return FigureSeries(label, np.empty(0), np.empty(0))
    stacked = np.stack([curve.ys[:length] for curve in curves])
    return FigureSeries(
        label, np.arange(1, length + 1, dtype=float), stacked.mean(axis=0)
    )


def _average_sparse(
    curves: list[FigureSeries], label: str, absent_is_zero: bool
) -> FigureSeries:
    all_xs = np.unique(np.concatenate([curve.xs for curve in curves]))
    if all_xs.size == 0:
        return FigureSeries(label, np.empty(0), np.empty(0))
    totals = np.zeros(all_xs.size, dtype=np.float64)
    counts = np.zeros(all_xs.size, dtype=np.float64)
    for curve in curves:
        positions = np.searchsorted(all_xs, curve.xs)
        totals[positions] += curve.ys
        counts[positions] += 1.0
    if absent_is_zero:
        averaged = totals / len(curves)
    else:
        averaged = np.divide(totals, counts, out=np.zeros_like(totals), where=counts > 0)
    return FigureSeries(label, all_xs.astype(float), averaged)


@dataclass(frozen=True)
class FigureResult:
    """Everything behind one paper figure.

    Attributes
    ----------
    figure_number, dataset:
        Which figure / which experiment graph.
    estimates:
        The three fitted estimators (method name -> result).
    statistics:
        Curve label -> the five series of that graph ("Original",
        "KronFit", "KronMom", "Private", and optionally "Expected <m>").
    """

    figure_number: int
    dataset: str
    estimates: dict[str, EstimatorResult] = field(repr=False)
    statistics: dict[str, GraphStatistics] = field(repr=False)


def run_figure(
    figure_number: int,
    *,
    config: ExperimentConfig | None = None,
    include_expected: bool | None = None,
    methods: tuple[str, ...] = ("KronFit", "KronMom", "Private"),
) -> FigureResult:
    """Reproduce one of Figures 1-4 end to end.

    Fits the requested estimators on the figure's dataset, samples one
    synthetic realization from each, computes the five statistics for the
    original and each synthetic graph, and (for Figure 1, or when
    ``include_expected`` is forced) the ensemble-averaged "Expected"
    curves over ``config.realizations`` realizations.
    """
    if figure_number not in FIGURE_DATASETS:
        raise ValidationError(
            f"figure_number must be one of {sorted(FIGURE_DATASETS)}, got {figure_number}"
        )
    config = config or default_config()
    if include_expected is None:
        include_expected = figure_number == 1
    dataset = FIGURE_DATASETS[figure_number]
    graph = load_dataset(dataset)
    root = as_generator(config.seed + figure_number)
    seeds = spawn_generators(root, 4 + len(methods))

    estimates = _fit_methods(graph, methods, config, seeds[0])
    statistics: dict[str, GraphStatistics] = {}
    statistics["Original"] = compute_graph_statistics(
        graph,
        "Original",
        hop_sources=config.hop_sources or None,
        svd_rank=config.svd_rank,
        seed=seeds[1],
    )
    for index, (method, estimate) in enumerate(estimates.items()):
        synthetic = estimate.sample_graph(seed=seeds[2 + index])
        statistics[method] = compute_graph_statistics(
            synthetic,
            method,
            hop_sources=config.hop_sources or None,
            svd_rank=config.svd_rank,
            seed=seeds[2 + index],
        )
    if include_expected:
        for method_index, (method, estimate) in enumerate(estimates.items()):
            label = f"Expected {method}"
            theta = estimate.initiator
            scenario = expected_ensemble_scenario(
                name=f"figure{figure_number}:{label}",
                label=label,
                initiator=(theta.a, theta.b, theta.c),
                k=estimate.k,
                realizations=config.realizations,
                entropy=(config.seed, figure_number, method_index),
                hop_sources=config.hop_sources or None,
                svd_rank=config.svd_rank,
            )
            report = run_scenario(
                scenario, n_jobs=config.n_jobs, cache=config.trial_cache
            )
            statistics[label] = average_statistics(report.results, label)
    return FigureResult(
        figure_number=figure_number,
        dataset=dataset,
        estimates=estimates,
        statistics=statistics,
    )


def _fit_methods(
    graph: Graph,
    methods: tuple[str, ...],
    config: ExperimentConfig,
    seed: SeedLike,
) -> dict[str, EstimatorResult]:
    rng = as_generator(seed)
    results: dict[str, EstimatorResult] = {}
    for method in methods:
        if method == "KronFit":
            results[method] = fit_kronfit(
                graph,
                n_iterations=config.kronfit_iterations,
                n_starts=config.n_starts,
                seed=rng,
            )
        elif method == "KronMom":
            results[method] = fit_kronmom(graph)
        elif method == "Private":
            results[method] = fit_private(
                graph, epsilon=config.epsilon, delta=config.delta, seed=rng
            )
        else:
            raise ValidationError(f"unknown method {method!r}")
    return results
