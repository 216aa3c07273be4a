"""Run-record schema round-trip, materialized seeds, and write atomicity."""

from __future__ import annotations

import dataclasses
import json

import numpy as np
import pytest

from repro.errors import ValidationError
from repro.scenarios import (
    EstimatorSpec,
    ScenarioSpec,
    run_scenario,
    run_scenarios,
    spawn_seeds,
)
from repro.tracking import (
    SCHEMA_VERSION,
    build_run_record,
    environment_fingerprint,
    list_runs,
    load_run,
    seed_token,
    write_run,
)


def sampling_scenario(name="fixed-skg", size=3, entropy=(11, 7)) -> ScenarioSpec:
    """A fast pure-sampling scenario (no dataset, k=5 SKG draws)."""
    return ScenarioSpec(
        name=name,
        workload=None,
        estimator=EstimatorSpec.create("Fixed", a=0.9, b=0.5, c=0.2, k=5),
        ensemble_size=size,
        seed_policy=spawn_seeds(*entropy),
        measure="synthetic_statistics",
    )


def build_record(**kwargs):
    reports = run_scenarios(
        [sampling_scenario(), sampling_scenario(name="other", entropy=(3,))]
    )
    kwargs.setdefault("created", "2026-08-08T12:00:00Z")
    return build_run_record(reports, **kwargs)


class TestRoundTrip:
    def test_written_record_loads_back_identical(self, tmp_path):
        record = build_record(label="roundtrip")
        path = write_run(record, tmp_path)
        assert load_run(path) == record

    def test_on_disk_layout(self, tmp_path):
        record = build_record(preset="table1")
        path = write_run(record, tmp_path)
        assert (path / "run.json").is_file()
        tables = sorted((path / "metrics").glob("*.json"))
        assert len(tables) == len(record.scenarios)
        payload = json.loads((path / "run.json").read_text())
        # Metric rows live in the per-scenario tables, not in run.json.
        assert all("metrics" not in entry for entry in payload["scenarios"])
        assert all("metrics_file" in entry for entry in payload["scenarios"])
        assert "table1" in path.name

    def test_seeds_are_materialized_spawn_children(self):
        record = build_record()
        entry = record.scenarios[0]
        expected = np.random.SeedSequence([11, 7]).spawn(3)
        assert entry["seeds"] == [seed_token(child) for child in expected]
        assert all(token["kind"] == "seedsequence" for token in entry["seeds"])

    def test_single_scenario_report_carries_seeds_too(self):
        report = run_scenario(sampling_scenario(size=2))
        record = build_run_record([report], created="2026-08-08T12:00:00Z")
        assert len(record.scenarios[0]["seeds"]) == 2

    def test_report_without_seeds_fails_loudly(self):
        report = run_scenario(sampling_scenario(size=2))
        stripped = dataclasses.replace(report, seeds=())
        with pytest.raises(ValidationError, match="materialized seeds"):
            build_run_record([stripped])

    def test_environment_fingerprint_keys(self):
        fingerprint = environment_fingerprint()
        assert set(fingerprint) >= {
            "python",
            "numpy",
            "scipy",
            "platform",
            "cpu_count",
            "counting_backend",
            "chain_backend",
            "sampler_backend",
            "n_jobs",
            "trial_retries",
            "trial_timeout",
            "fault_inject",
        }

    def test_fingerprint_captures_fault_knobs(self, monkeypatch):
        monkeypatch.setenv("REPRO_TRIAL_RETRIES", "2")
        monkeypatch.setenv("REPRO_TRIAL_TIMEOUT", "30")
        monkeypatch.setenv("REPRO_FAULT_INJECT", "trial_error:index=0")
        fingerprint = environment_fingerprint()
        assert fingerprint["trial_retries"] == 2
        assert fingerprint["trial_timeout"] == 30.0
        assert fingerprint["fault_inject"] == "trial_error:index=0"

    def test_cache_attribution_recorded(self, tmp_path):
        cache = tmp_path / "cache"
        cold = run_scenarios([sampling_scenario()], cache=cache)
        resumed = run_scenarios([sampling_scenario()], cache=cache)
        record_cold = build_run_record(cold, created="2026-08-08T12:00:00Z")
        record_resumed = build_run_record(resumed, created="2026-08-08T12:00:01Z")
        assert record_cold.timing["executed"] == 3
        assert record_cold.timing["cached"] == 0
        assert record_resumed.timing["executed"] == 0
        assert record_resumed.timing["cached"] == 3
        assert record_resumed.scenarios[0]["cached_indices"] == [0, 1, 2]

    def test_clean_run_records_zero_failure_attribution(self):
        record = build_record()
        assert record.timing["failed"] == 0
        assert record.timing["retried"] == 0
        assert record.timing["pool_restarts"] == 0
        entry = record.scenarios[0]
        assert entry["failed"] == 0 and entry["failed_indices"] == []
        assert entry["retried"] == 0 and entry["retried_indices"] == []

    def test_failed_trials_attributed_in_the_record(self, monkeypatch):
        monkeypatch.setenv("REPRO_FAULT_INJECT", "trial_error:index=1:attempts=9")
        reports = run_scenarios([sampling_scenario()], on_error="collect")
        record = build_run_record(reports, created="2026-08-08T12:00:00Z")
        entry = record.scenarios[0]
        assert record.timing["failed"] == 1
        assert entry["failed"] == 1 and entry["failed_indices"] == [1]
        # The failed position carries an empty metric row; survivors keep
        # their real metrics.
        assert entry["metrics"][1] == {}
        assert entry["metrics"][0] != {}
        # And the record still round-trips through JSON.
        import json as json_module

        json_module.dumps(dataclasses.asdict(record))

    def test_healed_retry_attributed_and_bit_identical(self, monkeypatch):
        clean = build_run_record(
            run_scenarios([sampling_scenario()]), created="2026-08-08T12:00:00Z"
        )
        monkeypatch.setenv("REPRO_FAULT_INJECT", "trial_error:index=1:attempts=1")
        monkeypatch.setenv("REPRO_TRIAL_RETRIES", "1")
        monkeypatch.setenv("REPRO_TRIAL_BACKOFF", "0")
        healed = build_run_record(
            run_scenarios([sampling_scenario()]), created="2026-08-08T12:00:00Z"
        )
        entry = healed.scenarios[0]
        assert healed.timing["retried"] == 1 and healed.timing["failed"] == 0
        assert entry["retried_indices"] == [1]
        # The retried trial re-derived the same stream: metrics match the
        # clean run bit for bit.
        assert entry["metrics"] == clean.scenarios[0]["metrics"]

    def test_schema_version_guard(self, tmp_path):
        path = write_run(build_record(), tmp_path)
        run_file = path / "run.json"
        payload = json.loads(run_file.read_text())
        payload["schema_version"] = SCHEMA_VERSION + 1
        run_file.write_text(json.dumps(payload))
        with pytest.raises(ValidationError, match="schema version"):
            load_run(path)

    def test_not_a_run_directory(self, tmp_path):
        with pytest.raises(ValidationError, match="not a run directory"):
            load_run(tmp_path)


class TestAtomicity:
    def test_failed_write_leaves_nothing_behind(self, tmp_path):
        record = build_record()
        # An unserializable metric value makes the metrics-table write
        # blow up *before* run.json exists; the staging dir must vanish.
        broken_scenarios = [dict(record.scenarios[0])]
        broken_scenarios[0]["metrics"] = [{"bad": object()}]
        broken = dataclasses.replace(record, scenarios=broken_scenarios)
        with pytest.raises(TypeError):
            write_run(broken, tmp_path)
        assert list(tmp_path.iterdir()) == []
        assert list_runs(tmp_path) == []

    def test_same_name_runs_do_not_collide(self, tmp_path):
        record = build_record()
        first = write_run(record, tmp_path)
        second = write_run(record, tmp_path)
        assert first != second
        assert load_run(first) == load_run(second)
        assert [path.name for path in list_runs(tmp_path)] == sorted(
            [first.name, second.name]
        )

    def test_same_second_runs_list_in_write_order(self, tmp_path):
        # Two runs persisted within the same wall-clock second share the
        # name's timestamp prefix, so lexicographic order would fall
        # through to the label/config-hash part and invert chronology
        # ("zz" written first, "aa" second).  list_runs must order by
        # persist time, not by name.
        first = write_run(build_record(label="zz"), tmp_path)
        second = write_run(build_record(label="aa"), tmp_path)
        assert sorted([first.name, second.name]) != [first.name, second.name]
        assert list_runs(tmp_path) == [first, second]

    def test_cold_and_resumed_share_the_short_hash(self, tmp_path):
        cache = tmp_path / "cache"
        cold = build_run_record(
            run_scenarios([sampling_scenario()], cache=cache),
            created="2026-08-08T12:00:00Z",
        )
        resumed = build_run_record(
            run_scenarios([sampling_scenario()], cache=cache),
            created="2026-08-08T12:00:01Z",
        )
        path_cold = write_run(cold, tmp_path / "runs")
        path_resumed = write_run(resumed, tmp_path / "runs")
        assert path_cold.name.split("__")[-1] == path_resumed.name.split("__")[-1]
