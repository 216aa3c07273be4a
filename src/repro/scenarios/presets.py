"""The paper's evidence grid, declared as scenarios.

This module is the single place the (dataset × estimator × budget ×
ensemble × seeds) cells behind the paper artifacts are written down; the
evaluation harness and the benches consume these builders instead of
hand-rolling their own trial lists.  Historical grids (Table 1, the
ε-ablation, the baseline comparison) keep their exact recorded seed
schemes via ``fixed`` seed policies, so routing them through the
scenario engine reproduces the pre-scenario outputs bit for bit.

Builders taking only a config are registered as named presets
(``table1``, ``baseline-comparison``); parametric builders (the
ε-ablation needs a fitted reference, the figures' "Expected" ensembles a
fitted initiator) are plain functions.
"""

from __future__ import annotations

import dataclasses
from typing import Iterable, Sequence

import numpy as np

from repro.core.protocols import available_estimator_methods
from repro.scenarios.registry import register_scenarios
from repro.scenarios.spec import (
    EstimatorSpec,
    ScenarioSpec,
    as_params,
    fixed_seeds,
    spawn_seeds,
)

__all__ = [
    "TABLE1_DATASETS",
    "TABLE1_METHODS",
    "available_estimator_axis_values",
    "estimator_axis",
    "table1_scenarios",
    "epsilon_ablation_scenarios",
    "baseline_comparison_scenarios",
    "baseline_scoring_scenarios",
    "figure_scenarios",
    "expected_ensemble_scenario",
    "large_k_scenarios",
    "scenario_grid",
]

TABLE1_DATASETS = ("ca-grqc", "ca-hepth", "as20", "synthetic-kronecker")
TABLE1_METHODS = ("KronFit", "KronMom", "Private")

# The §5 baseline comparison's historical operating point (the paper's
# ε/δ) — the defaults when no config supplies a budget.
BASELINE_COMPARISON_DATASET = "ca-grqc"
BASELINE_COMPARISON_EPSILON = 0.2
BASELINE_COMPARISON_DELTA = 0.01


def available_estimator_axis_values() -> tuple[str, ...]:
    """Estimator methods that fit a workload (everything except Fixed)."""
    return tuple(
        method for method in available_estimator_methods() if method != "Fixed"
    )


def estimator_axis(method: str, config, *, n_starts: int | None = None) -> EstimatorSpec:
    """The configured estimator axis value for ``method``.

    Threads the config knobs each method consumes (KronFit's iteration
    budget, chain backend, multi-start count, and multichain kernel
    threads) into the spec so they are part of every trial's cache key.
    Multi-start fits advance all their chains in one native call per
    run and chain range, sharded across ``config.kernel_threads`` threads —
    results are bit-identical for any thread count.
    """
    if method == "KronFit":
        effective_starts = config.n_starts if n_starts is None else n_starts
        params = dict(
            n_iterations=config.kronfit_iterations,
            backend=config.kernel_backend,
            n_starts=effective_starts,
        )
        # kernel_threads only matters to multi-start fits; leaving it out
        # of single-start specs keeps their historical cache keys.
        if effective_starts > 1 and getattr(config, "kernel_threads", 1) != 1:
            params["kernel_threads"] = config.kernel_threads
        return EstimatorSpec.create("KronFit", **params)
    return EstimatorSpec.create(method)


def table1_scenarios(
    config,
    datasets: Sequence[str] = TABLE1_DATASETS,
    methods: Sequence[str] = TABLE1_METHODS,
) -> tuple[ScenarioSpec, ...]:
    """Table 1's grid: one single-fit scenario per (dataset, method).

    Each cell keeps the historical per-(dataset, method) seed — the
    spawned children of ``SeedSequence(config.seed + 100 +
    dataset_index)`` — so the table is bit-identical to the pre-scenario
    harness for any worker count.
    """
    scenarios: list[ScenarioSpec] = []
    for dataset_index, dataset in enumerate(datasets):
        seeds = np.random.SeedSequence(config.seed + 100 + dataset_index).spawn(
            len(methods)
        )
        for method, seed in zip(methods, seeds):
            scenarios.append(
                ScenarioSpec(
                    name=f"table1:{dataset}:{method}",
                    workload=dataset,
                    estimator=estimator_axis(method, config),
                    epsilon=config.epsilon,
                    delta=config.delta,
                    ensemble_size=1,
                    seed_policy=fixed_seeds(seed),
                    measure="initiator",
                )
            )
    return tuple(scenarios)


def epsilon_ablation_scenarios(
    dataset: str,
    grid: Iterable[tuple[float, str]],
    seeds: Sequence[int],
    *,
    delta: float,
    reference: tuple[float, float, float],
) -> tuple[ScenarioSpec, ...]:
    """The ε-sweep / triangle-floor ablation grid for one dataset.

    One scenario per (ε, floor policy) point, with one trial per
    historical integer noise seed and the distance to the non-private
    reference as the measurement.
    """
    return tuple(
        ScenarioSpec(
            name=f"ablation:{dataset}:eps{epsilon}:{triangle_floor}",
            workload=dataset,
            estimator=EstimatorSpec.create("Private", triangle_floor=triangle_floor),
            epsilon=epsilon,
            delta=delta,
            ensemble_size=len(seeds),
            seed_policy=fixed_seeds(*seeds),
            measure="initiator_distance",
            measure_params=as_params(reference=tuple(reference)),
        )
        for epsilon, triangle_floor in grid
    )


def baseline_comparison_scenarios(config=None) -> tuple[ScenarioSpec, ...]:
    """The §5 comparison: Algorithm 1 vs the DP degree-sequence baseline.

    Both synthesizers fit with the historical pinned seed 0 and sample
    their one synthetic graph with seed 1, at the same total budget.
    The budget honours the config (``REPRO_EPSILON`` / ``REPRO_DELTA``,
    ``repro run-scenario --epsilon``) and defaults to the paper's
    operating point, so a requested ε is never a silent no-op.
    """
    epsilon = BASELINE_COMPARISON_EPSILON if config is None else config.epsilon
    delta = BASELINE_COMPARISON_DELTA if config is None else config.delta
    common = dict(
        workload=BASELINE_COMPARISON_DATASET,
        epsilon=epsilon,
        ensemble_size=1,
        seed_policy=fixed_seeds(0),
        measure="sample_graph",
        measure_params=as_params(sample_seed=1),
    )
    return (
        ScenarioSpec(
            name="baseline-comparison:skg-private",
            estimator=EstimatorSpec.create("Private", seed=0),
            delta=delta,
            **common,
        ),
        ScenarioSpec(
            name="baseline-comparison:dp-degree",
            estimator=EstimatorSpec.create("DPDegree", seed=0),
            **common,
        ),
    )


def baseline_scoring_scenarios(config=None) -> tuple[ScenarioSpec, ...]:
    """The §5 comparison with declarative scoring against the original.

    The same two synthesizer cells as ``baseline-comparison`` (identical
    fit/sample seeds, identical budget handling) but measured with the
    ``graph_comparison`` family: each trial returns the flat metric row
    (degree KS, matching-statistic relative errors, clustering,
    assortativity) the baseline bench used to compute by hand — so a
    tracked run (``repro run-scenario --preset baseline-scoring
    --track``) lands the scoring tables in ``run.json`` like every other
    measurement.  The sampled graphs are bit-identical to the
    ``baseline-comparison`` preset's, so the metrics equal the bench's
    historical hand-computed scores exactly.
    """
    return tuple(
        dataclasses.replace(
            scenario,
            name=scenario.name.replace("baseline-comparison", "baseline-scoring"),
            measure="graph_comparison",
        )
        for scenario in baseline_comparison_scenarios(config)
    )


def figure_scenarios(config) -> tuple[ScenarioSpec, ...]:
    """The figures' computation half, declared as scenarios.

    One scenario per (figure dataset × estimator): fit, sample one
    synthetic realization, and compute the five figure statistics (the
    ``graph_statistics`` measurement).  Running the preset produces the
    figures' underlying *data* — per-series metric tables in a tracked
    run directory (``repro run-scenario --preset figures --track``) —
    while the ASCII rendering (``repro figure N`` via
    :func:`repro.evaluation.reporting.render_figure`) stays a thin
    consumer of the same computation.

    Spawn seed policies rooted at (config seed, figure number, method
    index) keep the preset reproducible and bit-identical at any worker
    count; it deliberately does not pin the historical ``run_figure``
    streams, which interleave fits and statistics in one generator.
    """
    # Imported lazily: repro.evaluation imports this package back.
    from repro.evaluation.experiments import FIGURE_DATASETS

    scenarios: list[ScenarioSpec] = []
    for figure_number, dataset in sorted(FIGURE_DATASETS.items()):
        for method_index, method in enumerate(TABLE1_METHODS):
            scenarios.append(
                ScenarioSpec(
                    name=f"figures:f{figure_number}:{dataset}:{method}",
                    workload=dataset,
                    estimator=estimator_axis(method, config),
                    epsilon=config.epsilon,
                    delta=config.delta,
                    ensemble_size=1,
                    seed_policy=spawn_seeds(
                        config.seed, figure_number, method_index
                    ),
                    measure="graph_statistics",
                    measure_params=as_params(
                        label=method,
                        hop_sources=config.hop_sources or None,
                        svd_rank=config.svd_rank,
                    ),
                )
            )
    return tuple(scenarios)


def expected_ensemble_scenario(
    *,
    name: str,
    label: str,
    initiator: tuple[float, float, float],
    k: int,
    realizations: int,
    entropy: Sequence[int],
    hop_sources: int | None,
    svd_rank: int,
) -> ScenarioSpec:
    """An "Expected" ensemble: statistics of SKG draws from a fitted Θ.

    A pure-sampling scenario (``Fixed`` estimator, no workload): each
    trial samples Θ^{⊗k} with its spawned stream and computes the five
    figure statistics, exactly like the figures' historical
    per-realization trials.
    """
    a, b, c = initiator
    return ScenarioSpec(
        name=name,
        workload=None,
        estimator=EstimatorSpec.create("Fixed", a=a, b=b, c=c, k=k),
        ensemble_size=realizations,
        seed_policy=spawn_seeds(*entropy),
        measure="graph_statistics",
        measure_params=as_params(
            label=label, hop_sources=hop_sources, svd_rank=svd_rank
        ),
    )


def scenario_grid(
    config,
    *,
    workloads: Sequence[str],
    methods: Sequence[str],
    epsilons: Sequence[float] | None = None,
    ensemble_size: int | None = None,
    n_starts: int | None = None,
    measure: str = "synthetic_statistics",
) -> tuple[ScenarioSpec, ...]:
    """An ad-hoc (workload × estimator × ε) grid (the CLI's entry point).

    Every cell runs ``ensemble_size`` trials — fit with the trial's
    stream, sample one realization, measure — with spawn seed policies
    rooted at (config seed, workload, method, ε indices), so grids are
    reproducible and bit-identical at any ``n_jobs``.
    """
    epsilons = tuple(epsilons) if epsilons else (config.epsilon,)
    size = config.realizations if ensemble_size is None else ensemble_size
    scenarios: list[ScenarioSpec] = []
    for workload_index, workload in enumerate(workloads):
        for method_index, method in enumerate(methods):
            for epsilon_index, epsilon in enumerate(epsilons):
                name = f"{workload}:{method}"
                if len(epsilons) > 1:
                    name += f":eps{epsilon}"
                scenarios.append(
                    ScenarioSpec(
                        name=name,
                        workload=workload,
                        estimator=estimator_axis(method, config, n_starts=n_starts),
                        epsilon=epsilon,
                        delta=config.delta,
                        ensemble_size=size,
                        seed_policy=spawn_seeds(
                            config.seed, workload_index, method_index, epsilon_index
                        ),
                        measure=measure,
                    )
                )
    return tuple(scenarios)


LARGE_K_DATASETS = ("skg-k16", "skg-k18", "skg-k20")
LARGE_K_METHODS = ("KronMom", "KronFit")


def large_k_scenarios(
    config,
    datasets: Sequence[str] = LARGE_K_DATASETS,
    methods: Sequence[str] = LARGE_K_METHODS,
) -> tuple[ScenarioSpec, ...]:
    """The beyond-paper scale axis: KronMom vs KronFit at k ∈ {16, 18, 20}.

    One single-fit cell per (dataset, method) on the large synthetic SKG
    workloads, all sampled from the paper's initiator [[0.99, 0.45],
    [0.45, 0.25]].  Both estimators recover the known ground truth at
    each scale, so the grid is a cross-check of the whole scale path —
    the grass-hopping sampler that builds the million-edge workloads,
    the moment pipeline, and the delta-scan Metropolis chain — against
    itself and against the truth.  Spawn seed policies keep every cell
    bit-identical at any worker count.
    """
    scenarios: list[ScenarioSpec] = []
    for dataset_index, dataset in enumerate(datasets):
        for method_index, method in enumerate(methods):
            scenarios.append(
                ScenarioSpec(
                    name=f"large-k:{dataset}:{method}",
                    workload=dataset,
                    estimator=estimator_axis(method, config),
                    epsilon=config.epsilon,
                    delta=config.delta,
                    ensemble_size=1,
                    seed_policy=spawn_seeds(
                        config.seed, 800, dataset_index, method_index
                    ),
                    measure="initiator",
                )
            )
    return tuple(scenarios)


register_scenarios("table1", table1_scenarios)
register_scenarios("baseline-comparison", baseline_comparison_scenarios)
register_scenarios("baseline-scoring", baseline_scoring_scenarios)
register_scenarios("figures", figure_scenarios)
register_scenarios("large-k", large_k_scenarios)
