"""Synthetic-graph ensembles from a fitted initiator.

The paper's figures average statistics over 100 synthetic realizations
("Expected kron-fit", "Expected private", ...).  :func:`sample_ensemble`
returns such an ensemble as graphs.  :func:`run_skg_ensemble` counts one:
it runs one trial per realization through
:func:`repro.runtime.run_trials`, and each trial counts {E, H, T, Δ}
inside the sampler kernel
(:func:`~repro.kronecker.sampling.sample_skg_statistics`) without
building a :class:`Graph`, so no edge list is built in the parent or
shipped to a worker.  The trials draw exactly what
:func:`sample_ensemble` draws with the same integer seed, so the rows
equal counting its graphs.  :func:`ensemble_matching_statistics` and
``repro run-ensemble`` both run through it; the figure-series averaging
itself lives in :mod:`repro.evaluation.figures`.
"""

from __future__ import annotations

import os
from typing import Sequence

import numpy as np

from repro.graphs.graph import Graph
from repro.kronecker.initiator import Initiator, as_initiator
from repro.kronecker.sampling import (
    sample_skg,
    sample_skg_statistics,
    sample_skg_statistics_batch,
)
from repro.native.sampling import MAX_K
from repro.runtime import TrialCache, TrialRunReport, TrialSpec, run_trials
from repro.stats.counts import MatchingStatistics, matching_statistics
from repro.utils.rng import SeedLike, spawn_generators
from repro.utils.validation import check_integer

__all__ = [
    "sample_ensemble",
    "sample_statistics",
    "sample_statistics_batch",
    "run_skg_ensemble",
    "ensemble_matching_statistics",
]


def sample_ensemble(initiator, k: int, count: int, seed: SeedLike = None) -> list[Graph]:
    """``count`` independent SKG realizations of Θ^{⊗k} (seed-reproducible)."""
    theta = as_initiator(initiator)
    k = check_integer(k, "k", minimum=1)
    count = check_integer(count, "count", minimum=0)
    return [sample_skg(theta, k, seed=rng) for rng in spawn_generators(seed, count)]


def sample_statistics(
    model, seed: SeedLike = None
) -> tuple[int, int, MatchingStatistics]:
    """``(n_nodes, n_edges, {E, H, T, Δ})`` of one synthetic graph of ``model``.

    The batch of one of :func:`sample_statistics_batch`.
    """
    return sample_statistics_batch(model, [seed])[0]


def sample_statistics_batch(
    model, seeds: Sequence[SeedLike]
) -> list[tuple[int, int, MatchingStatistics]]:
    """:func:`sample_statistics` of ``model`` for each of ``seeds``.

    Each row equals counting ``model.sample_graph(seed)``, with the same
    draws.  An SKG-backed model (one with an ``initiator``) counts the
    whole batch in one sampler-kernel call
    (:func:`~repro.kronecker.sampling.sample_skg_statistics_batch`) and
    never builds a :class:`Graph`; any
    other model, such as the DPDegree configuration model, samples each
    graph and counts it.
    """
    initiator = getattr(model, "initiator", None)
    if initiator is not None:
        n_nodes = 2**model.k
        return [
            (n_nodes, n_edges, stats)
            for n_edges, stats in sample_skg_statistics_batch(initiator, model.k, seeds)
        ]
    rows = []
    for seed in seeds:
        graph = model.sample_graph(seed=seed)
        rows.append((graph.n_nodes, graph.n_edges, matching_statistics(graph)))
    return rows


def _skg_statistics_trial(
    rng: np.random.Generator, *, a: float, b: float, c: float, k: int
) -> MatchingStatistics:
    """Count one realization of Θ^{⊗k} inside the sampler kernel.

    Module-level so the trial engine can ship it to worker processes.
    """
    return sample_skg_statistics(Initiator(a, b, c), k, seed=rng)[1]


def run_skg_ensemble(
    initiator,
    k: int,
    count: int,
    *,
    seed=None,
    n_jobs: int | None = None,
    cache: TrialCache | str | os.PathLike | None = None,
) -> tuple[np.ndarray, TrialRunReport]:
    """Per-realization {E, H, T, Δ} of ``count`` SKG realizations of Θ^{⊗k}.

    Returns the ``(count, 4)`` float64 rows, in realization order, and
    the :class:`~repro.runtime.TrialRunReport`.  ``seed``, ``n_jobs``
    (default: the ``REPRO_N_JOBS`` knob) and ``cache`` are those of
    :func:`~repro.runtime.run_trials`; a trial's stream depends only on
    ``(seed, index)``, so the rows are bit-identical for any worker
    count.  Raises :class:`~repro.errors.ValidationError` for an empty
    ensemble, or for a ``k`` the sampler kernel refuses, before any trial
    is scheduled.
    """
    theta = as_initiator(initiator)
    k = check_integer(k, "k", minimum=1, maximum=MAX_K)
    count = check_integer(count, "count", minimum=1)
    params = {"a": theta.a, "b": theta.b, "c": theta.c, "k": k}
    report = run_trials(
        [
            TrialSpec(fn=_skg_statistics_trial, params=params, index=index)
            for index in range(count)
        ],
        seed=seed,
        n_jobs=n_jobs,
        cache=cache,
        label="skg-ensemble",
    )
    rows = np.array([tuple(stats) for stats in report.results], dtype=np.float64)
    return rows, report


def ensemble_matching_statistics(
    initiator, k: int, count: int, *, seed=None, n_jobs: int | None = None
) -> MatchingStatistics:
    """Mean {E, H, T, Δ} over ``count`` SKG realizations (Monte-Carlo
    expected statistics).

    Counts through :func:`run_skg_ensemble`, never building a graph.
    For an integer (or ``SeedSequence``) ``seed`` the means equal, bit
    for bit, the mean of :func:`~repro.stats.counts.matching_statistics`
    over ``sample_ensemble(initiator, k, count, seed=seed)``, for any
    ``n_jobs``.
    """
    rows, _ = run_skg_ensemble(initiator, k, count, seed=seed, n_jobs=n_jobs)
    return MatchingStatistics(*(float(mean) for mean in rows.mean(axis=0)))
