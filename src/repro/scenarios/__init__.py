"""repro.scenarios — the declarative evidence grid.

The paper's experiments are a grid of *scenarios*: datasets × estimators
(KronFit / KronMom / Private / the DP-degree baseline / fixed
initiators) × privacy budgets × ensemble sizes × seed policies ×
measurements.  This subsystem makes the grid first-class:

* :class:`ScenarioSpec` / :class:`EstimatorSpec` / :class:`SeedPolicy` —
  declarative cell descriptions (:mod:`repro.scenarios.spec`);
* :func:`compile_scenario` / :func:`run_scenario` /
  :func:`run_scenarios` — compilation into
  :class:`~repro.runtime.TrialSpec` lists and execution on the runtime
  engine, inheriting the persistent pool, the trial cache, and
  bit-identical results at any worker count
  (:mod:`repro.scenarios.engine`);
* :data:`~repro.scenarios.measures.MEASURES` — the per-trial
  measurements a scenario can apply (:mod:`repro.scenarios.measures`);
* the named preset registry (:mod:`repro.scenarios.registry`) and the
  paper's grids (:mod:`repro.scenarios.presets`, registered on import);
* a type-driven text renderer (:mod:`repro.scenarios.report`) behind the
  ``repro run-scenario`` CLI subcommand and the CI smoke artifact.

Estimators enter the grid through the
:class:`repro.core.protocols.Estimator` protocol — anything that fits a
graph into a model exposing ``sample_graph`` and ``epsilon`` is a valid
axis value, including multi-start KronFit (``n_starts``).
"""

from repro.scenarios.engine import (
    ScenarioReport,
    compile_scenario,
    run_scenario,
    run_scenarios,
)
from repro.scenarios.measures import (
    MEASURES,
    available_measures,
    resolve_measure,
)
from repro.scenarios.registry import (
    available_scenarios,
    build_scenarios,
    register_scenarios,
    scenario_builder,
)
from repro.scenarios.report import render_scenario_reports, summarize_results
from repro.scenarios.spec import (
    EstimatorSpec,
    ScenarioSpec,
    SeedPolicy,
    as_params,
    fixed_seeds,
    spawn_seeds,
)
from repro.scenarios import presets as _presets  # registers the default presets
from repro.scenarios.presets import (
    available_estimator_axis_values,
    baseline_comparison_scenarios,
    baseline_scoring_scenarios,
    epsilon_ablation_scenarios,
    estimator_axis,
    expected_ensemble_scenario,
    figure_scenarios,
    scenario_grid,
    table1_scenarios,
)

del _presets

__all__ = [
    "ScenarioSpec",
    "EstimatorSpec",
    "SeedPolicy",
    "as_params",
    "spawn_seeds",
    "fixed_seeds",
    "ScenarioReport",
    "compile_scenario",
    "run_scenario",
    "run_scenarios",
    "MEASURES",
    "resolve_measure",
    "available_measures",
    "register_scenarios",
    "scenario_builder",
    "build_scenarios",
    "available_scenarios",
    "render_scenario_reports",
    "summarize_results",
    "available_estimator_axis_values",
    "estimator_axis",
    "table1_scenarios",
    "epsilon_ablation_scenarios",
    "baseline_comparison_scenarios",
    "baseline_scoring_scenarios",
    "figure_scenarios",
    "expected_ensemble_scenario",
    "scenario_grid",
]
