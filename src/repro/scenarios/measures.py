"""Per-trial measurements a scenario can apply to a fitted model.

Each measurement is a module-level callable

    ``measure(rng, model, graph, **params) -> picklable value``

where ``rng`` is the trial's RNG stream *already advanced past the fit*
(measurements that sample continue consuming the same stream, exactly
like the hand-rolled trial functions they replace), ``model`` is the
:class:`~repro.core.protocols.FittedModel` the estimator produced, and
``graph`` is the workload graph (``None`` for pure-sampling scenarios).

Measurements registered here are the values of the scenario ``measure``
axis; :func:`register_measure` adds project-specific ones.
"""

from __future__ import annotations

from typing import Any, Callable

import numpy as np

from repro.core.synthesis import sample_statistics
from repro.errors import ValidationError
from repro.kronecker.initiator import Initiator
from repro.stats.counts import MatchingStatistics, matching_statistics

__all__ = [
    "MEASURES",
    "register_measure",
    "resolve_measure",
    "available_measures",
]


def measure_fitted_model(rng: np.random.Generator, model, graph):
    """The fitted model itself (must be picklable for parallel runs)."""
    return model


def measure_initiator(rng: np.random.Generator, model, graph) -> Initiator:
    """The fitted initiator (Table 1's cell value)."""
    return model.initiator


def measure_initiator_distance(
    rng: np.random.Generator, model, graph, *, reference: tuple
) -> float:
    """Max-abs parameter distance to a reference initiator (ablations)."""
    return float(model.initiator.distance(Initiator(*reference)))


def measure_sample_graph(
    rng: np.random.Generator, model, graph, *, sample_seed=None
):
    """One synthetic graph from the model.

    ``sample_seed`` pins the draw (historical fixed-seed comparisons);
    by default the trial stream continues into the sampler.
    """
    return model.sample_graph(seed=rng if sample_seed is None else sample_seed)


def measure_synthetic_statistics(
    rng: np.random.Generator, model, graph
) -> MatchingStatistics:
    """Matching statistics {E, H, T, Δ} of one synthetic realization."""
    return sample_statistics(model, seed=rng)[2]


def measure_graph_comparison(
    rng: np.random.Generator, model, graph, *, sample_seed=None
) -> dict[str, float]:
    """Score one synthetic realization against the original workload graph.

    The scenario-level form of the baseline bench's scoring tables: one
    synthetic graph is sampled exactly like :func:`measure_sample_graph`
    (``sample_seed`` pins historical draws), then compared against the
    workload on the statistics the paper plots — degree-distribution KS
    distance, relative errors of the four matching statistics, and the
    structure the synthesizers are never told (average clustering,
    degree assortativity).  Returns a flat metric row, so tracked runs
    (:mod:`repro.tracking`) persist the comparison verbatim.
    """
    from repro.stats.assortativity import degree_assortativity
    from repro.stats.clustering import average_clustering
    from repro.stats.comparison import ks_distance, statistics_relative_errors

    if graph is None:
        raise ValidationError(
            "the graph_comparison measure needs a workload graph to compare "
            "against; pure-sampling scenarios have nothing to score"
        )
    synthetic = model.sample_graph(seed=rng if sample_seed is None else sample_seed)
    errors = statistics_relative_errors(
        matching_statistics(synthetic), matching_statistics(graph)
    )
    return {
        "degree_ks": ks_distance(
            graph.degrees[graph.degrees > 0],
            synthetic.degrees[synthetic.degrees > 0],
        ),
        "edges_rel_err": errors["edges"],
        "hairpins_rel_err": errors["hairpins"],
        "tripins_rel_err": errors["tripins"],
        "triangles_rel_err": errors["triangles"],
        "avg_clustering": float(average_clustering(synthetic)),
        "degree_assortativity": float(degree_assortativity(synthetic)),
        "n_nodes": float(synthetic.n_nodes),
        "n_edges": float(synthetic.n_edges),
    }


def measure_graph_statistics(
    rng: np.random.Generator,
    model,
    graph,
    *,
    label: str,
    hop_sources: int | None = None,
    svd_rank: int = 50,
):
    """The five figure statistics of one synthetic realization.

    Consumes the trial stream exactly like the figures' historical
    ``_expected_statistics_trial``: first the SKG draw, then the sampled
    hop plot, so "Expected" ensembles routed through scenarios are
    bit-identical to the pre-scenario outputs.
    """
    from repro.evaluation.figures import compute_graph_statistics

    synthetic = model.sample_graph(seed=rng)
    return compute_graph_statistics(
        synthetic, label, hop_sources=hop_sources, svd_rank=svd_rank, seed=rng
    )


MEASURES: dict[str, Callable[..., Any]] = {
    "fitted_model": measure_fitted_model,
    "initiator": measure_initiator,
    "initiator_distance": measure_initiator_distance,
    "sample_graph": measure_sample_graph,
    "synthetic_statistics": measure_synthetic_statistics,
    "graph_statistics": measure_graph_statistics,
    "graph_comparison": measure_graph_comparison,
}


def register_measure(name: str, fn: Callable[..., Any], *, replace: bool = False) -> None:
    """Register a measurement under ``name`` (module-level = picklable)."""
    if not replace and name in MEASURES:
        raise ValidationError(f"measure {name!r} is already registered")
    MEASURES[name] = fn


def resolve_measure(name: str) -> Callable[..., Any]:
    try:
        return MEASURES[name]
    except KeyError:
        raise ValidationError(
            f"unknown measure {name!r}; registered measures: "
            f"{', '.join(available_measures())}"
        ) from None


def available_measures() -> tuple[str, ...]:
    return tuple(MEASURES)
