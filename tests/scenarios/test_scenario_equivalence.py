"""The scenario refactor must reproduce the pre-scenario outputs exactly.

These tests pin the acceptance criterion of the scenario engine: routing
Table 1 and the figures' "Expected" ensembles through
:mod:`repro.scenarios` is a pure re-plumbing — the *oracles* below are
verbatim copies of the trial bodies and seed schemes the harness used
before the refactor (evaluation/table1.py's ``_table1_trial`` and
evaluation/figures.py's ``_expected_statistics_trial`` as of PR 4), and
every value must match bit for bit.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.core.nonprivate import fit_kronfit, fit_kronmom, fit_private
from repro.evaluation.experiments import ExperimentConfig
from repro.evaluation.figures import compute_graph_statistics
from repro.evaluation.table1 import run_table1
from repro.graphs.datasets import load_dataset
from repro.kronecker.initiator import Initiator
from repro.kronecker.sampling import sample_skg
from repro.scenarios import expected_ensemble_scenario, run_scenario

DATASET = "synthetic-kronecker"  # the smallest registered dataset
CONFIG = ExperimentConfig(kronfit_iterations=2)


def legacy_table1_trial(rng, *, dataset, method, epsilon, delta, kronfit_iterations):
    """Verbatim pre-scenario Table 1 trial (its ``backend="auto"`` dropped
    with the parameter: every chain runs on the one kernel)."""
    graph = load_dataset(dataset)
    if method == "KronFit":
        result = fit_kronfit(graph, n_iterations=kronfit_iterations, seed=rng)
    elif method == "KronMom":
        result = fit_kronmom(graph)
    else:
        result = fit_private(graph, epsilon=epsilon, delta=delta, seed=rng)
    return result.initiator


def legacy_table1(config, datasets, methods):
    """The pre-scenario harness: spawned per-(dataset, method) seeds."""
    rows = {}
    for dataset_index, dataset in enumerate(datasets):
        seeds = np.random.SeedSequence(config.seed + 100 + dataset_index).spawn(
            len(methods)
        )
        for method, seed in zip(methods, seeds):
            rows[(dataset, method)] = legacy_table1_trial(
                np.random.default_rng(seed),
                dataset=dataset,
                method=method,
                epsilon=config.epsilon,
                delta=config.delta,
                kronfit_iterations=config.kronfit_iterations,
            )
    return rows


class TestTable1Equivalence:
    @pytest.fixture(scope="class")
    def methods(self):
        return ("KronFit", "KronMom", "Private")

    def test_scenario_table_matches_legacy_bit_for_bit(self, methods):
        scenario_rows = run_table1(
            config=CONFIG, datasets=(DATASET,), methods=methods
        )
        oracle = legacy_table1(CONFIG, (DATASET,), methods)
        assert len(scenario_rows) == len(oracle)
        for row in scenario_rows:
            expected = oracle[(row.dataset, row.method)]
            assert row.initiator == expected, (
                f"{row.method} on {row.dataset} diverged from the "
                f"pre-scenario harness"
            )

    def test_equivalence_holds_in_parallel(self, methods):
        import dataclasses

        parallel_config = dataclasses.replace(CONFIG, n_jobs=2)
        serial = run_table1(config=CONFIG, datasets=(DATASET,), methods=methods)
        parallel = run_table1(
            config=parallel_config, datasets=(DATASET,), methods=methods
        )
        assert [r.initiator for r in serial] == [r.initiator for r in parallel]


def legacy_expected_trial(rng, *, a, b, c, k, label, hop_sources, svd_rank):
    """Verbatim pre-scenario "Expected" realization trial."""
    graph = sample_skg(Initiator(a, b, c), k, seed=rng)
    return compute_graph_statistics(
        graph, label, hop_sources=hop_sources, svd_rank=svd_rank, seed=rng
    )


class TestExpectedEnsembleEquivalence:
    THETA = (0.9, 0.5, 0.2)
    K = 6
    REALIZATIONS = 3
    ENTROPY = (20120330, 1, 0)  # (config seed, figure number, method index)

    def scenario_results(self, n_jobs=1):
        scenario = expected_ensemble_scenario(
            name="equivalence:Expected",
            label="Expected",
            initiator=self.THETA,
            k=self.K,
            realizations=self.REALIZATIONS,
            entropy=self.ENTROPY,
            hop_sources=None,
            svd_rank=4,
        )
        return run_scenario(scenario, n_jobs=n_jobs).results

    def legacy_results(self):
        root = np.random.SeedSequence(list(self.ENTROPY))
        children = root.spawn(self.REALIZATIONS)
        a, b, c = self.THETA
        return [
            legacy_expected_trial(
                np.random.default_rng(child),
                a=a,
                b=b,
                c=c,
                k=self.K,
                label="Expected",
                hop_sources=None,
                svd_rank=4,
            )
            for child in children
        ]

    def test_every_series_matches_bit_for_bit(self):
        scenario = self.scenario_results()
        legacy = self.legacy_results()
        assert len(scenario) == len(legacy)
        for ours, theirs in zip(scenario, legacy):
            for name in theirs.series:
                assert np.array_equal(ours[name].xs, theirs[name].xs)
                assert np.array_equal(ours[name].ys, theirs[name].ys)

    def test_parallel_run_matches_too(self):
        serial = self.scenario_results(n_jobs=1)
        parallel = self.scenario_results(n_jobs=3)
        for ours, theirs in zip(serial, parallel):
            for name in theirs.series:
                assert np.array_equal(ours[name].ys, theirs[name].ys)
