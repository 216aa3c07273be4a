"""Synthetic-graph ensembles from a fitted initiator.

The paper's figures average statistics over 100 synthetic realizations
("Expected kron-fit", "Expected private", ...).  These helpers produce
reproducible ensembles and their aggregate matching statistics; the
figure-series averaging itself lives in :mod:`repro.evaluation.figures`.
"""

from __future__ import annotations

import numpy as np

from repro.graphs.graph import Graph
from repro.kronecker.initiator import as_initiator
from repro.kronecker.sampling import sample_skg, sample_skg_statistics
from repro.stats.counts import MatchingStatistics, matching_statistics
from repro.utils.rng import SeedLike, spawn_generators
from repro.utils.validation import check_integer

__all__ = ["sample_ensemble", "sample_statistics", "ensemble_matching_statistics"]


def sample_ensemble(initiator, k: int, count: int, seed: SeedLike = None) -> list[Graph]:
    """``count`` independent SKG realizations of Θ^{⊗k} (seed-reproducible)."""
    theta = as_initiator(initiator)
    k = check_integer(k, "k", minimum=1)
    count = check_integer(count, "count", minimum=0)
    return [sample_skg(theta, k, seed=rng) for rng in spawn_generators(seed, count)]


def sample_statistics(
    model, seed: SeedLike = None, backend: str | None = None
) -> tuple[int, int, MatchingStatistics]:
    """``(n_nodes, n_edges, {E, H, T, Δ})`` of one synthetic graph of ``model``.

    Equal to counting ``model.sample_graph(seed)``, with the same draws.
    An SKG-backed model (one with an ``initiator``) counts inside the
    sampler kernel (:func:`~repro.kronecker.sampling.sample_skg_statistics`,
    on the engine ``backend`` names) and never builds a :class:`Graph`;
    any other model, such as the DPDegree configuration model, samples a
    graph and counts it.
    """
    initiator = getattr(model, "initiator", None)
    if initiator is not None:
        n_edges, stats = sample_skg_statistics(
            initiator, model.k, seed=seed, backend=backend
        )
        return 2**model.k, n_edges, stats
    graph = model.sample_graph(seed=seed)
    return graph.n_nodes, graph.n_edges, matching_statistics(graph)


def _graph_statistics_trial(
    rng: np.random.Generator, *, graph: Graph
) -> MatchingStatistics:
    """Count one ensemble member (deterministic; ``rng`` is unused)."""
    return matching_statistics(graph)


def ensemble_matching_statistics(
    graphs: list[Graph], *, n_jobs: int | None = None
) -> MatchingStatistics:
    """Mean {E, H, T, Δ} over an ensemble (Monte-Carlo expected statistics).

    The per-graph counting passes are independent, so they run through
    :func:`repro.runtime.run_trials`: ``n_jobs`` (default: the
    ``REPRO_N_JOBS`` knob) fans them across the persistent worker pool,
    and — the counts being deterministic — the means are bit-identical
    for any worker count.
    """
    if not graphs:
        raise ValueError("ensemble must contain at least one graph")
    from repro.runtime import TrialSpec, run_trials

    report = run_trials(
        [
            TrialSpec(fn=_graph_statistics_trial, params={"graph": graph}, index=index)
            for index, graph in enumerate(graphs)
        ],
        seed=0,
        n_jobs=n_jobs,
        label="ensemble-statistics",
    )
    rows = np.array([tuple(stats) for stats in report.results], dtype=np.float64)
    means = rows.mean(axis=0)
    return MatchingStatistics(
        edges=float(means[0]),
        hairpins=float(means[1]),
        tripins=float(means[2]),
        triangles=float(means[3]),
    )
