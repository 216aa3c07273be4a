"""Committed bench artifacts must stay in sync with their bench scripts.

``benchmarks/out/BENCH_*.json`` files are committed performance records
(the authoritative before/after numbers the README and ROADMAP cite).
Each emitting script declares a ``SCHEMA_VERSION`` it writes into its
report; when a script changes its JSON layout it must bump the constant
and the artifact must be regenerated.  These tests fail when the two
drift — or when a new ``BENCH_*.json`` lands without a registered
emitting script.
"""

from __future__ import annotations

import json
import re
from pathlib import Path

import pytest

BENCH_DIR = Path(__file__).resolve().parent.parent / "benchmarks"
OUT_DIR = BENCH_DIR / "out"

# artifact -> the script that emits it (and owns its SCHEMA_VERSION).
ARTIFACT_SCRIPTS = {
    "BENCH_stats.json": "bench_stats.py",
    "BENCH_kronfit.json": "bench_kronfit.py",
    "BENCH_trajectory.json": "bench_trajectory.py",
    "BENCH_serve.json": "bench_serve.py",
    "BENCH_graphs.json": "bench_graphs.py",
}


def load_bench_module(script_name: str):
    """Import a benchmarks/ script by path (the dir is not a package)."""
    import importlib.util

    spec = importlib.util.spec_from_file_location(
        script_name.removesuffix(".py"), BENCH_DIR / script_name
    )
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def trajectory_row(commit, recorded, speedup, fit_speedup=None):
    return {
        "commit": commit,
        "label": "",
        "recorded": recorded,
        "quick": True,
        "stats": {"combined_speedup": speedup},
        "kronfit": {"fit_speedup": fit_speedup if fit_speedup is not None else speedup},
    }


def script_schema_version(script_name: str) -> int:
    text = (BENCH_DIR / script_name).read_text(encoding="utf-8")
    match = re.search(r"^SCHEMA_VERSION\s*=\s*(\d+)\s*$", text, re.MULTILINE)
    assert match, f"{script_name} must declare a module-level SCHEMA_VERSION"
    return int(match.group(1))


class TestBenchArtifactSchema:
    def test_every_committed_artifact_has_an_emitting_script(self):
        committed = {
            path.name
            for path in OUT_DIR.glob("BENCH_*.json")
            # quick/smoke runs drop gitignored *_quick.json side files;
            # they are transient, not committed artifacts.
            if not path.stem.endswith("_quick")
        }
        unregistered = committed - set(ARTIFACT_SCRIPTS)
        assert not unregistered, (
            f"BENCH artifacts without a registered emitting script: "
            f"{sorted(unregistered)}; add them to ARTIFACT_SCRIPTS"
        )

    @pytest.mark.parametrize("artifact", sorted(ARTIFACT_SCRIPTS))
    def test_registered_artifacts_are_committed(self, artifact):
        assert (OUT_DIR / artifact).exists(), f"{artifact} is not committed"

    @pytest.mark.parametrize("artifact", sorted(ARTIFACT_SCRIPTS))
    def test_schema_version_in_sync(self, artifact):
        script = ARTIFACT_SCRIPTS[artifact]
        report = json.loads((OUT_DIR / artifact).read_text(encoding="utf-8"))
        assert report.get("schema_version") == script_schema_version(script), (
            f"{artifact} was written by an older schema of {script}; "
            f"regenerate it with `python benchmarks/{script}`"
        )

    @pytest.mark.parametrize("artifact", sorted(ARTIFACT_SCRIPTS))
    def test_committed_artifacts_are_full_runs(self, artifact):
        """Quick/smoke runs write *_quick.json; the committed artifact
        must be the full matrix."""
        report = json.loads((OUT_DIR / artifact).read_text(encoding="utf-8"))
        assert report.get("quick") is False

    def test_trajectory_rows_are_well_formed(self):
        """The perf trajectory must carry at least one row, with the
        headline keys, one row per commit, and recorded timestamps
        ascending (CI appends chronologically)."""
        trajectory = json.loads(
            (OUT_DIR / "BENCH_trajectory.json").read_text(encoding="utf-8")
        )
        rows = trajectory["rows"]
        assert rows, "the committed trajectory must not be empty"
        for row in rows:
            assert set(row) >= {
                "commit",
                "label",
                "recorded",
                "quick",
                "stats",
                "kronfit",
            }
            assert row["stats"]["combined_speedup"] is not None
            assert row["kronfit"]["fit_speedup"] is not None
        commits = [row["commit"] for row in rows]
        assert len(commits) == len(set(commits)), "one row per commit"
        recorded = [row["recorded"] for row in rows]
        assert recorded == sorted(recorded), "rows sorted by recorded time"

    def test_trajectory_append_replaces_same_commit(self):
        """Re-benching a commit must update its row, not duplicate it."""
        module = load_bench_module("bench_trajectory.py")
        row = trajectory_row

        trajectory = module.fresh_trajectory()
        trajectory = module.append_row(trajectory, row("aaa", "2026-01-01T00:00:00Z", 1.0))
        trajectory = module.append_row(trajectory, row("bbb", "2026-01-02T00:00:00Z", 2.0))
        trajectory = module.append_row(trajectory, row("aaa", "2026-01-03T00:00:00Z", 3.0))
        assert [entry["commit"] for entry in trajectory["rows"]] == ["bbb", "aaa"]
        assert trajectory["rows"][-1]["stats"]["combined_speedup"] == 3.0
        with pytest.raises(ValueError, match="missing keys"):
            module.append_row(trajectory, {"commit": "ccc"})

    def test_trajectory_gate_flags_regressions(self):
        """A headline speedup dropping below the tolerance floor must be
        reported; drops within tolerance must pass."""
        module = load_bench_module("bench_trajectory.py")
        previous = trajectory_row("aaa", "2026-01-01T00:00:00Z", 10.0, 4.0)

        # Within tolerance (50% default): half the previous speedup holds.
        fine = trajectory_row("bbb", "2026-01-02T00:00:00Z", 5.0, 2.0)
        assert module.check_regression(previous, fine, 0.5) == []

        # Below the floor on one headline: exactly one violation, naming
        # the metric and the baseline commit.
        bad = trajectory_row("bbb", "2026-01-02T00:00:00Z", 4.0, 4.0)
        problems = module.check_regression(previous, bad, 0.5)
        assert len(problems) == 1
        assert "stats.combined_speedup" in problems[0]
        assert "aaa" in problems[0]

        # Both headlines regressed: both reported.
        awful = trajectory_row("bbb", "2026-01-02T00:00:00Z", 1.0, 0.5)
        assert len(module.check_regression(previous, awful, 0.5)) == 2

        # Tolerance 0 is the strictest gate: any drop fails.
        assert module.check_regression(previous, fine, 0.0)
        assert module.check_regression(previous, previous, 0.0) == []

    def test_trajectory_gate_skips_missing_headlines(self):
        """A headline absent on either side (backend unavailable on that
        runner) is an environment property, not a regression."""
        module = load_bench_module("bench_trajectory.py")
        previous = trajectory_row("aaa", "2026-01-01T00:00:00Z", 10.0)
        previous["kronfit"]["fit_speedup"] = None
        row = trajectory_row("bbb", "2026-01-02T00:00:00Z", 9.0)
        row["stats"]["combined_speedup"] = None
        assert module.check_regression(previous, row, 0.5) == []
        with pytest.raises(ValueError, match="tolerance"):
            module.check_regression(previous, row, 1.5)

    def test_trajectory_gate_baseline_is_previous_distinct_commit(self):
        """Re-benching HEAD gates against the last *other* commit, and
        the very first row has no baseline at all."""
        module = load_bench_module("bench_trajectory.py")
        trajectory = module.fresh_trajectory()
        assert module.previous_row(trajectory, "aaa") is None
        trajectory = module.append_row(
            trajectory, trajectory_row("aaa", "2026-01-01T00:00:00Z", 1.0)
        )
        assert module.previous_row(trajectory, "aaa") is None
        trajectory = module.append_row(
            trajectory, trajectory_row("bbb", "2026-01-02T00:00:00Z", 2.0)
        )
        baseline = module.previous_row(trajectory, "bbb")
        assert baseline["commit"] == "aaa"

    def test_trajectory_gate_end_to_end(self, tmp_path):
        """main(--gate) exits 1 on a regression but still records the
        row; a recovery run on the same trajectory passes again."""
        module = load_bench_module("bench_trajectory.py")

        def reports(speedup, directory):
            """Minimal quick-mode stats/kronfit reports for build_row."""
            stats = {
                "quick": True,
                "kernel_backend": "numpy",
                "speedup_floor": {"workload": "w", "measured": speedup},
                "fused_speedup_floor": {"backend": "cext", "measured": speedup},
            }
            kronfit = {
                "quick": True,
                "fused_fit_floor": {
                    "workload": "w", "backend": "cext", "measured": speedup
                },
            }
            stats_path = directory / "stats.json"
            kronfit_path = directory / "kronfit.json"
            stats_path.write_text(json.dumps(stats))
            kronfit_path.write_text(json.dumps(kronfit))
            return stats_path, kronfit_path

        out = tmp_path / "trajectory.json"

        def run(commit, recorded, speedup):
            stats_path, kronfit_path = reports(speedup, tmp_path)
            return module.main([
                "--stats", str(stats_path), "--kronfit", str(kronfit_path),
                "--commit", commit, "--recorded", recorded,
                "--out", str(out), "--gate",
            ])

        assert run("aaa", "2026-01-01T00:00:00Z", 10.0) == 0  # no baseline
        assert run("bbb", "2026-01-02T00:00:00Z", 9.0) == 0   # within tolerance
        assert run("ccc", "2026-01-03T00:00:00Z", 1.0) == 1   # regressed
        rows = json.loads(out.read_text())["rows"]
        assert [row["commit"] for row in rows] == ["aaa", "bbb", "ccc"]
        # The regressed row was still recorded; gating vs it now fails
        # the *next* run only if the next run is slower still.
        assert run("ddd", "2026-01-04T00:00:00Z", 0.9) == 0

    def test_serve_artifact_records_floors(self):
        """The committed serve bench must carry the latency distribution
        and all three floors, measured above their requirements (the full
        run asserts them at bench time; this guards the committed record)."""
        report = json.loads(
            (OUT_DIR / "BENCH_serve.json").read_text(encoding="utf-8")
        )
        warm = report["cold_vs_warm"]["warm"]
        assert {"p50_ms", "p95_ms", "p99_ms"} <= set(warm)
        assert report["cold_vs_warm"]["bit_identical"] is True
        for floor in (
            report["cache_speedup_floor"],
            report["throughput_floor"],
            report["mixed_throughput_floor"],
        ):
            assert floor["measured"] >= floor["required"]
        assert report["sustained"]["clients"] >= 8
        assert report["sustained"]["throughput_rps"] > 0

    def test_graphs_artifact_records_the_load_stage(self):
        """The load-graph stage: each stand-in's build time under its
        pinned digest, ``Graph.from_edge_arrays`` at ca-grqc and skg-k18
        size, and the canonicalization floor over the np.unique oracle."""
        report = json.loads((OUT_DIR / "BENCH_graphs.json").read_text(encoding="utf-8"))
        bench = load_bench_module("bench_graphs.py")
        standins = {row["dataset"]: row for row in report["standins"]}
        assert set(standins) == {"ca-grqc", "as20", "ca-hepth"}
        for name, row in standins.items():
            assert row["digest"] == bench.STANDIN_DIGESTS[name]
            assert row["build"]["median_ms"] > 0
        rows = {row["dataset"]: row for row in report["edge_arrays"]}
        assert set(rows) == {"ca-grqc", "skg-k18"}
        for row in rows.values():
            assert row["canonicalize"]["bit_identical"] is True
            assert row["from_edge_arrays"]["shuffled_input"]["median_ms"] > 0
        floor = report["canonicalize_floor"]
        assert floor["required"] == bench.CANONICALIZE_FLOOR >= 3.0
        assert floor["measured"] >= floor["required"]
        assert floor["measured"] == min(row["canonicalize"]["speedup"] for row in rows.values())

    def test_graphs_artifact_records_the_csr_build_and_import_footprint(self):
        """Schema 2: ``Graph.csr`` against the scipy COO→CSR oracle at
        ca-grqc and skg-k18 (bit-identity enforced by the bench, floor
        ≥ 1.2×), and the import footprint of the pipeline without scipy."""
        report = json.loads((OUT_DIR / "BENCH_graphs.json").read_text(encoding="utf-8"))
        bench = load_bench_module("bench_graphs.py")
        rows = {row["dataset"]: row for row in report["csr"]}
        assert set(rows) == {"ca-grqc", "skg-k18"}
        assert all(row["bit_identical"] is True for row in rows.values())
        floor = report["csr_floor"]
        assert floor["required"] == bench.CSR_FLOOR >= 1.2
        assert floor["measured"] >= floor["required"]
        assert floor["measured"] == min(row["speedup"] for row in rows.values())
        footprint = report["import_footprint"]
        assert footprint["pipeline"]["scipy_loaded"] is False
        assert footprint["pipeline_then_scipy"]["scipy_loaded"] is True
        assert (
            footprint["pipeline"]["peak_rss_mib"]
            < footprint["pipeline_then_scipy"]["peak_rss_mib"]
        )

    def test_stats_artifact_records_one_call_pass_rows(self):
        """Schema 7 dropped the row-block keys: each counting row times the
        one-call fused pass against the scipy oracle, both bit-identical,
        under the ``backends``/``speedup_vs_scipy`` layout the trajectory's
        ``fused_speedup`` headline reads."""
        report = json.loads(
            (OUT_DIR / "BENCH_stats.json").read_text(encoding="utf-8")
        )
        assert report["schema_version"] == 7
        rows = report["workloads"]
        assert [row["workload"] for row in rows] == [
            "skg-k10", "skg-k12", "skg-k14", "ca-grqc", "as20",
        ]
        for row in rows:
            assert not {"auto_n_blocks", "kernel_block256_peak_bytes"} & set(row)
            assert row["counts_identical"] is True
            assert set(row["backends"]) == {"scipy", "cext"}
            assert row["backends"]["scipy"]["speedup_vs_scipy"] == 1.0
        floor = report["fused_speedup_floor"]
        assert floor["workload"] == "skg-k14" and floor["required"] == 2.0
        assert floor["backend"] == "cext" and floor["measured"] >= floor["required"]
        assert floor["measured"] == rows[2]["backends"]["cext"]["speedup_vs_scipy"]

    def test_stats_artifact_records_large_k_rows(self):
        """Schema 3 added the large-k scale rows: sampler engine
        trajectory (bit-identity enforced by the bench) plus the KronMom
        fit at k in {16, 18, 20}, and the fused-sampler floor record."""
        report = json.loads(
            (OUT_DIR / "BENCH_stats.json").read_text(encoding="utf-8")
        )
        rows = report["large_k"]
        assert [row["k"] for row in rows] == [16, 18, 20]
        for row in rows:
            assert row["n_nodes"] == 2 ** row["k"]
            assert row["sampler"]["numpy"]["available"]
            assert row["kronmom_seconds"] > 0
            assert len(row["kronmom_initiator"]) == 3
            for backend, entry in row["sampler"].items():
                if backend != "numpy" and entry.get("available"):
                    assert entry["bit_identical"] is True
        floor = report["sampler_speedup_floor"]
        assert floor["k"] == 18 and floor["required"] == 2.0
        if floor["backend"] is not None:
            assert floor["measured"] >= floor["required"]

    def test_stats_artifact_records_isotonic_rows(self):
        """Schema 5 added the isotonic (PAVA) rows: the compiled twin vs
        the numpy oracle at as20's length and k=18's, bit-identity
        enforced by the bench, and the >= 10x floor record."""
        report = json.loads(
            (OUT_DIR / "BENCH_stats.json").read_text(encoding="utf-8")
        )
        rows = report["isotonic"]
        assert [(row["workload"], row["n"]) for row in rows] == [
            ("as20", 6474),
            ("skg-k18", 2**18),
        ]
        for row in rows:
            assert row["engines"]["numpy"]["available"]
            for backend, entry in row["engines"].items():
                if backend != "numpy" and entry.get("available"):
                    assert entry["bit_identical"] is True
        floor = report["isotonic_speedup_floor"]
        assert floor["workloads"] == ["as20", "skg-k18"]
        assert floor["required"] == 10.0
        if floor["backend"] is not None:
            assert floor["measured"] >= floor["required"]

    def test_stats_artifact_records_kronmom_rows(self):
        """Schema 6 added the KronMom rows: fit_statistics on the noisy
        as20 and ca-grqc releases with the compiled Nelder–Mead kernel vs
        the numpy oracle, bit-identity enforced by the bench, and the
        >= 5x floor record."""
        report = json.loads(
            (OUT_DIR / "BENCH_stats.json").read_text(encoding="utf-8")
        )
        rows = report["kronmom"]
        assert [(row["workload"], row["k"]) for row in rows] == [
            ("as20", 13),
            ("ca-grqc", 13),
        ]
        for row in rows:
            assert len(row["observed"]) == 4
            assert row["engines"]["numpy"]["available"]
            for backend, entry in row["engines"].items():
                if backend != "numpy" and entry.get("available"):
                    assert entry["bit_identical"] is True
        floor = report["kronmom_speedup_floor"]
        assert floor["workloads"] == ["as20", "ca-grqc"]
        assert floor["required"] == 5.0
        if floor["backend"] is not None:
            assert floor["measured"] >= floor["required"]

    def test_kronfit_artifact_records_large_k_rows(self):
        """Schema 3's large-k fit rows: per-engine Table-1-budget fits on
        the skg-k16/k18/k20 datasets, with the k=18 fused floor."""
        report = json.loads(
            (OUT_DIR / "BENCH_kronfit.json").read_text(encoding="utf-8")
        )
        rows = report["large_k"]
        assert [row["k"] for row in rows] == [16, 18, 20]
        for row in rows:
            assert row["n_nodes"] == 2 ** row["k"]
            assert row["fit"]["numpy"]["available"]
        floor = report["large_k_fit_floor"]
        assert floor["k"] == 18 and floor["required"] == 2.0
        if floor["backend"] is not None:
            assert floor["measured"] >= floor["required"]

    def test_kronfit_artifact_records_heavy_tailed_chain_row(self):
        """Schema 6's per-workload ``proposal_events``: the padded ca-grqc
        row (k=13) makes several times the SKG rows' cell events per
        proposal, with hubs of degree > 64, and every available engine's
        chain is bit-identical to the numpy reference there."""
        report = json.loads(
            (OUT_DIR / "BENCH_kronfit.json").read_text(encoding="utf-8")
        )
        rows = {row["workload"]: row for row in report["workloads"]}
        heavy = rows["ca-grqc"]
        assert heavy["k"] == 13
        events = heavy["proposal_events"]
        assert events["max_degree"] > 64
        assert events["p99"] > 2 * 64
        for name in ("skg-k10", "skg-k12"):
            assert events["mean"] > 3 * rows[name]["proposal_events"]["mean"]
        for engine, record in heavy["chain"].items():
            if record["available"] and engine != "numpy":
                assert record["bit_identical"] is True
                assert record["proposals_per_second"] > 0

    def test_kronfit_artifact_records_table1_fit_rows(self):
        """Schema 7's ``table1_fit`` rows: the 30-iteration ca-grqc and
        as20 fits (84,000 proposals each, the kronfit-paper op), split
        into the time inside the sampler's run calls and the remainder,
        after a bit-identity check against the numpy engine."""
        report = json.loads(
            (OUT_DIR / "BENCH_kronfit.json").read_text(encoding="utf-8")
        )
        rows = report["table1_fit"]
        assert [row["dataset"] for row in rows] == ["ca-grqc", "as20"]
        for row in rows:
            assert row["k"] == 13 and row["n_iterations"] == 30
            assert row["n_proposals"] == 84_000
            assert row["bit_identical_iterations"] >= 1
            assert 0 < row["chain_call_ms"] < row["fit_ms"]
            assert row["remainder_ms"] == pytest.approx(
                row["fit_ms"] - row["chain_call_ms"]
            )

    def test_kronfit_artifact_records_table1_chain_ns_per_proposal(self):
        """Schema 8: each ``table1_fit`` row also gives the time inside
        the sampler's run calls per proposal, in ns."""
        report = json.loads(
            (OUT_DIR / "BENCH_kronfit.json").read_text(encoding="utf-8")
        )
        for row in report["table1_fit"]:
            assert row["chain_ns_per_proposal"] == pytest.approx(
                row["chain_call_ms"] * 1e6 / row["n_proposals"]
            )

    def test_kronfit_artifact_records_multichain_column(self):
        """Schema 5's batched multichain column: S ∈ {8, 64} rows with
        the sequential single-start baseline and batched timings at
        kernel_threads ∈ {1, 2} (chain-0 bit-identity recorded by the
        bench's enforcement), plus the floor record — asserted on every
        host, since neither side needs a second core.  The pool
        ``multistart`` column is gone."""
        report = json.loads(
            (OUT_DIR / "BENCH_kronfit.json").read_text(encoding="utf-8")
        )
        assert "multistart_floor" not in report
        floor = report["multichain_floor"]
        assert floor["n_starts"] == 8
        assert floor["kernel_threads"] == 1
        assert floor["required"] == 1.25
        assert floor["asserted"] is True
        assert floor["measured"] >= floor["required"]
        record = next(
            workload
            for workload in report["workloads"]
            if workload["workload"] == floor["workload"]
        )
        assert "multistart" not in record
        by_starts = record["multichain"]["by_starts"]
        assert set(by_starts) == {"8", "64"}
        for row in by_starts.values():
            assert row["sequential"]["seconds"] > 0
            assert set(row["batched"]) == {"1", "2"}
            for entry in row["batched"].values():
                assert entry["bit_identical"] is True
                assert entry["seconds"] > 0
                assert entry["speedup_vs_sequential"] == pytest.approx(
                    row["sequential"]["seconds"] / entry["seconds"]
                )

    def test_kronfit_artifact_states_the_multichain_floor_on_overhead(self):
        """Schema 9: each multichain row records the time outside the
        sampler's run calls, and the floor measures what batching
        amortizes, the sequential fits' such time over the batched fit's;
        the whole-fit ratio is kept beside it."""
        report = json.loads(
            (OUT_DIR / "BENCH_kronfit.json").read_text(encoding="utf-8")
        )
        floor = report["multichain_floor"]
        record = next(
            workload
            for workload in report["workloads"]
            if workload["workload"] == floor["workload"]
        )
        rows = record["multichain"]["by_starts"]
        for row in rows.values():
            outside = row["sequential"]["outside_run_seconds"]
            assert 0 < outside < row["sequential"]["seconds"]
            for entry in row["batched"].values():
                assert 0 < entry["outside_run_seconds"] < entry["seconds"]
                assert entry["overhead_amortization"] == pytest.approx(
                    outside / entry["outside_run_seconds"]
                )
        batched = rows["8"]["batched"]["1"]
        assert floor["measured"] == batched["overhead_amortization"]
        assert floor["speedup_vs_sequential"] == batched["speedup_vs_sequential"]

    def test_trajectory_gate_covers_multichain_headline(self):
        """The batched multichain headline participates in the gate;
        rows predating it (no ``multichain_vs_solo_speedup`` key — e.g.
        the fan-out-based ``multichain_speedup`` rows) are skipped, not
        failed."""
        module = load_bench_module("bench_trajectory.py")
        key = "multichain_vs_solo_speedup"
        assert ("kronfit", key) in module.GATE_KEYS
        assert ("kronfit", "multichain_speedup") not in module.GATE_KEYS
        previous = trajectory_row("aaa", "2026-01-01T00:00:00Z", 10.0)
        previous["kronfit"][key] = 4.0
        row = trajectory_row("bbb", "2026-01-02T00:00:00Z", 10.0)
        row["kronfit"][key] = 1.0
        problems = module.check_regression(previous, row, 0.5)
        assert len(problems) == 1
        assert key in problems[0]
        del previous["kronfit"][key]
        previous["kronfit"]["multichain_speedup"] = 4.0
        assert module.check_regression(previous, row, 0.5) == []
