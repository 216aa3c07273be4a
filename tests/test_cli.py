"""Tests for the command-line interface."""

from __future__ import annotations

import json

import pytest

from repro.cli import main
from repro.graphs import Graph, write_edge_list


@pytest.fixture
def edge_list_file(tmp_path):
    path = tmp_path / "toy.txt"
    graph = Graph(6, [(0, 1), (1, 2), (2, 0), (3, 4), (4, 5)])
    write_edge_list(graph, path)
    return path


class TestDatasets:
    def test_lists_all(self, capsys):
        assert main(["datasets"]) == 0
        output = capsys.readouterr().out
        for name in ("ca-grqc", "ca-hepth", "as20", "synthetic-kronecker"):
            assert name in output


class TestSummarize:
    def test_from_file(self, edge_list_file, capsys):
        assert main(["summarize", str(edge_list_file)]) == 0
        output = capsys.readouterr().out
        assert "triangles           1" in output

    def test_unknown_input(self, capsys):
        assert main(["summarize", "no-such-thing"]) == 1
        assert "error:" in capsys.readouterr().err


class TestFit:
    def test_private_fit_prints_ledger(self, edge_list_file, capsys):
        code = main(
            [
                "fit",
                str(edge_list_file),
                "--method",
                "private",
                "--epsilon",
                "1.0",
                "--seed",
                "0",
            ]
        )
        assert code == 0
        output = capsys.readouterr().out
        assert "private SKG estimate" in output
        assert "privacy budget" in output

    def test_kronmom_fit(self, edge_list_file, capsys):
        assert main(["fit", str(edge_list_file), "--method", "kronmom"]) == 0
        output = capsys.readouterr().out
        assert "KronMom estimate" in output

    def test_kronfit_fit(self, edge_list_file, capsys):
        code = main(
            [
                "fit",
                str(edge_list_file),
                "--method",
                "kronfit",
                "--kronfit-iterations",
                "2",
                "--seed",
                "0",
            ]
        )
        assert code == 0
        assert "KronFit estimate" in capsys.readouterr().out


class TestRelease:
    def test_package_contents(self, edge_list_file, tmp_path, capsys):
        out_dir = tmp_path / "pkg"
        code = main(
            [
                "release",
                str(edge_list_file),
                "--out",
                str(out_dir),
                "--epsilon",
                "1.0",
                "--samples",
                "2",
                "--seed",
                "3",
            ]
        )
        assert code == 0
        parameter = json.loads((out_dir / "private_initiator.json").read_text())
        assert set(parameter) == {"model", "a", "b", "c", "k", "epsilon", "delta"}
        assert (out_dir / "privacy_ledger.txt").exists()
        assert (out_dir / "synthetic_0.txt").exists()
        assert (out_dir / "synthetic_1.txt").exists()


class TestTable1Command:
    def test_reduced_methods_to_file(self, tmp_path, capsys, monkeypatch):
        # KronMom-only keeps this CLI path fast while covering the writer.
        monkeypatch.setenv("REPRO_KRONFIT_ITERATIONS", "1")
        target = tmp_path / "t1.txt"
        code = main(["table1", "--methods", "KronMom", "--out", str(target)])
        assert code == 0
        content = target.read_text()
        assert "Table 1" in content
        assert "KronMom (a, b, c)" in content
        assert "KronFit" not in content


class TestSample:
    def test_to_stdout(self, capsys):
        code = main(
            ["sample", "--a", "0.9", "--b", "0.5", "--c", "0.2", "-k", "5",
             "--seed", "0"]
        )
        assert code == 0
        assert "nodes               32" in capsys.readouterr().out

    def test_to_file(self, tmp_path, capsys):
        target = tmp_path / "sampled.txt"
        code = main(
            ["sample", "--a", "0.9", "--b", "0.5", "--c", "0.2", "-k", "4",
             "--seed", "1", "--out", str(target)]
        )
        assert code == 0
        assert target.exists()

    def test_invalid_parameter_rejected(self, capsys):
        code = main(
            ["sample", "--a", "1.5", "--b", "0.5", "--c", "0.2", "-k", "4"]
        )
        assert code == 1
        assert "error:" in capsys.readouterr().err


class TestRunEnsemble:
    ARGS = ["run-ensemble", "--a", "0.9", "--b", "0.5", "--c", "0.2",
            "-k", "6", "--count", "3", "--seed", "1"]

    def test_summary_to_stdout(self, capsys):
        assert main(self.ARGS) == 0
        output = capsys.readouterr().out
        assert "Ensemble of 3 SKG realizations" in output
        for statistic in ("edges", "hairpins", "tripins", "triangles"):
            assert statistic in output
        assert "3 trial(s) executed, 0 from cache" in output

    def test_parallel_matches_serial(self, capsys):
        assert main(self.ARGS + ["--n-jobs", "1"]) == 0
        serial = capsys.readouterr().out
        assert main(self.ARGS + ["--n-jobs", "2"]) == 0
        parallel = capsys.readouterr().out
        # Identical statistics tables; only the execution footer differs.
        assert serial.splitlines()[:8] == parallel.splitlines()[:8]

    def test_cache_resumes(self, tmp_path, capsys):
        cache = str(tmp_path / "cache")
        assert main(self.ARGS + ["--cache-dir", cache]) == 0
        first = capsys.readouterr().out
        assert "3 trial(s) executed, 0 from cache" in first
        assert main(self.ARGS + ["--cache-dir", cache]) == 0
        second = capsys.readouterr().out
        assert "0 trial(s) executed, 3 from cache" in second
        assert first.splitlines()[:8] == second.splitlines()[:8]

    def test_json_output(self, tmp_path, capsys):
        target = tmp_path / "ensemble.json"
        assert main(self.ARGS + ["--out", str(target)]) == 0
        payload = json.loads(target.read_text())
        assert payload["count"] == 3
        assert payload["initiator"] == {"a": 0.9, "b": 0.5, "c": 0.2}
        assert len(payload["statistics"]) == 3
        assert set(payload["statistics"][0]) == {
            "edges", "hairpins", "tripins", "triangles"
        }

    # Per-trial (E, H, T, Δ) of the CI smoke ensemble (Θ = (0.99, 0.45,
    # 0.25), k = 10, 8 realizations, seed 0): a golden, so moving the
    # trial function or its run_trials site cannot shift a row.
    GOLDEN_ROWS = [
        (1017, 6395, 32495, 40), (973, 5623, 27129, 28),
        (1077, 6786, 28728, 56), (1010, 6098, 24055, 34),
        (946, 5411, 19791, 39), (1040, 6584, 31796, 31),
        (994, 5700, 24265, 31), (997, 5887, 28359, 35),
    ]

    @pytest.mark.parametrize("n_jobs", ["1", "2"])
    def test_rows_match_the_golden(self, tmp_path, capsys, n_jobs):
        target = tmp_path / "ensemble.json"
        arguments = ["run-ensemble", "--a", "0.99", "--b", "0.45", "--c", "0.25",
                     "-k", "10", "--count", "8", "--seed", "0",
                     "--n-jobs", n_jobs, "--out", str(target)]
        assert main(arguments) == 0
        rows = json.loads(target.read_text())["statistics"]
        names = ("edges", "hairpins", "tripins", "triangles")
        assert rows == [
            {name: float(value) for name, value in zip(names, golden)}
            for golden in self.GOLDEN_ROWS
        ]

    def test_empty_ensemble_rejected(self, capsys):
        assert main(self.ARGS[:-4] + ["--count", "0"]) == 1
        assert "count must be >= 1" in capsys.readouterr().err

    def test_invalid_initiator_rejected(self, capsys):
        code = main(
            ["run-ensemble", "--a", "1.5", "--b", "0.5", "--c", "0.2", "-k", "4"]
        )
        assert code == 1
        assert "error:" in capsys.readouterr().err


class TestBlockSizeOption:
    def test_flag_removed(self, edge_list_file):
        # The A² pass chooses its own block size; the flag is gone.
        with pytest.raises(SystemExit):
            main(["--block-size", "2", "summarize", str(edge_list_file)])

    def test_stale_environment_variable_ignored(
        self, edge_list_file, capsys, monkeypatch
    ):
        monkeypatch.delenv("REPRO_BLOCK_SIZE", raising=False)
        assert main(["summarize", str(edge_list_file)]) == 0
        default_output = capsys.readouterr().out
        monkeypatch.setenv("REPRO_BLOCK_SIZE", "many")
        assert main(["summarize", str(edge_list_file)]) == 0
        assert capsys.readouterr().out == default_output


class TestKernelBackendOption:
    def test_statistics_identical_for_any_backend(
        self, edge_list_file, capsys, monkeypatch
    ):
        from repro.stats.kernels import available_kernel_backends

        # setenv (not delenv) so teardown restores the pre-test state even
        # after main() publishes the flag through os.environ; "auto" is the
        # default, so the first run behaves as if the knob were unset.
        monkeypatch.setenv("REPRO_KERNEL_BACKEND", "auto")
        assert main(["summarize", str(edge_list_file)]) == 0
        default_output = capsys.readouterr().out
        for backend in available_kernel_backends():
            code = main(
                ["--kernel-backend", backend, "summarize", str(edge_list_file)]
            )
            assert code == 0
            assert capsys.readouterr().out == default_output

    def test_option_publishes_environment_knob(self, edge_list_file, monkeypatch):
        import os

        monkeypatch.setenv("REPRO_KERNEL_BACKEND", "auto")
        code = main(["--kernel-backend", "scipy", "summarize", str(edge_list_file)])
        assert code == 0
        assert os.environ["REPRO_KERNEL_BACKEND"] == "scipy"

    def test_unknown_backend_rejected_by_argparse(self, edge_list_file, capsys):
        for name in ("fortran", "numba"):
            with pytest.raises(SystemExit):
                main(["--kernel-backend", name, "summarize", str(edge_list_file)])

    def test_unavailable_backend_fails_loudly(
        self, edge_list_file, capsys, monkeypatch
    ):
        """Requesting a fused backend the host lacks is a clear exit-1 error."""
        from repro.native.counting import COUNTING_KERNEL

        monkeypatch.setitem(
            COUNTING_KERNEL.states, "cext", (None, "no C compiler found")
        )
        code = main(["--kernel-backend", "cext", "summarize", str(edge_list_file)])
        assert code == 1
        error = capsys.readouterr().err
        assert "error:" in error
        assert "no C compiler found" in error


class TestRunScenario:
    def test_list_presets(self, capsys):
        assert main(["run-scenario", "--list"]) == 0
        output = capsys.readouterr().out
        assert "table1" in output
        assert "baseline-comparison" in output
        assert "kronfit" in output

    def test_grid_runs_and_writes_report(self, tmp_path, capsys, monkeypatch):
        monkeypatch.setenv("REPRO_KRONFIT_ITERATIONS", "2")
        out = tmp_path / "report.txt"
        code = main(
            [
                "run-scenario",
                "--datasets",
                "synthetic-kronecker",
                "--estimators",
                "kronmom,dpdegree",
                "--count",
                "2",
                "--n-jobs",
                "2",
                "--seed",
                "0",
                "--out",
                str(out),
            ]
        )
        assert code == 0
        output = capsys.readouterr().out
        assert "synthetic-kronecker:KronMom" in output
        assert "synthetic-kronecker:DPDegree" in output
        assert "4 trial(s) executed" in output
        assert out.read_text().strip() == output.rsplit(
            "scenario report written", 1
        )[0].strip()

    def test_grid_is_deterministic_given_seed(self, capsys, monkeypatch):
        arguments = [
            "run-scenario",
            "--datasets",
            "synthetic-kronecker",
            "--estimators",
            "dpdegree",
            "--count",
            "2",
            "--seed",
            "7",
        ]
        assert main(arguments) == 0
        first = capsys.readouterr().out
        assert main(arguments) == 0
        second = capsys.readouterr().out
        assert first == second

    def test_cache_resume_executes_nothing(self, tmp_path, capsys):
        arguments = [
            "run-scenario",
            "--datasets",
            "synthetic-kronecker",
            "--estimators",
            "dpdegree",
            "--count",
            "2",
            "--seed",
            "3",
            "--cache-dir",
            str(tmp_path / "cache"),
        ]
        assert main(arguments) == 0
        assert "2 trial(s) executed, 0 from cache" in capsys.readouterr().out
        assert main(arguments) == 0
        assert "0 trial(s) executed, 2 from cache" in capsys.readouterr().out

    def test_unknown_estimator_rejected(self, capsys):
        code = main(
            [
                "run-scenario",
                "--datasets",
                "synthetic-kronecker",
                "--estimators",
                "oracle",
            ]
        )
        assert code == 1
        assert "unknown estimator" in capsys.readouterr().err

    def test_preset_and_grid_flags_are_exclusive(self, capsys):
        code = main(
            [
                "run-scenario",
                "--preset",
                "table1",
                "--datasets",
                "synthetic-kronecker",
            ]
        )
        assert code == 1
        assert "mutually exclusive" in capsys.readouterr().err

    def test_missing_axes_rejected(self, capsys):
        assert main(["run-scenario"]) == 1
        assert "--datasets" in capsys.readouterr().err

    def test_n_starts_flows_into_kronfit_scenarios(self, capsys, monkeypatch):
        monkeypatch.setenv("REPRO_KRONFIT_ITERATIONS", "2")
        code = main(
            [
                "run-scenario",
                "--datasets",
                "synthetic-kronecker",
                "--estimators",
                "kronfit",
                "--count",
                "1",
                "--n-starts",
                "2",
                "--seed",
                "0",
            ]
        )
        assert code == 0
        assert "KronFit" in capsys.readouterr().out

    def test_count_rejected_with_preset(self, capsys):
        code = main(
            ["run-scenario", "--preset", "table1", "--count", "5"]
        )
        assert code == 1
        assert "mutually exclusive" in capsys.readouterr().err


class TestTable1ErrorPath:
    def test_unknown_method_prints_error_not_traceback(self, capsys):
        code = main(["table1", "--methods", "Bogus"])
        assert code == 1
        err = capsys.readouterr().err
        assert "error:" in err
        assert "Traceback" not in err

    def test_malformed_knob_prints_one_error_line(self, capsys, monkeypatch):
        monkeypatch.setenv("REPRO_REALIZATIONS", "x")
        assert main(["table1"]) == 1
        lines = capsys.readouterr().err.splitlines()
        assert len(lines) == 1
        assert lines[0].startswith("error:")
        assert "REPRO_REALIZATIONS" in lines[0]


class TestRunScenarioCacheEnv:
    def test_honours_repro_cache_dir(self, tmp_path, capsys, monkeypatch):
        monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path / "env-cache"))
        arguments = [
            "run-scenario",
            "--datasets",
            "synthetic-kronecker",
            "--estimators",
            "dpdegree",
            "--count",
            "2",
            "--seed",
            "9",
        ]
        assert main(arguments) == 0
        assert "2 trial(s) executed, 0 from cache" in capsys.readouterr().out
        assert main(arguments) == 0
        assert "0 trial(s) executed, 2 from cache" in capsys.readouterr().out


# Every flag that mirrors a knob, as (subcommand path, flag) -> variable.
KNOB_FLAGS = {
    ("", "--kernel-backend"): "REPRO_KERNEL_BACKEND",
    ("", "--kernel-threads"): "REPRO_KERNEL_THREADS",
    ("fit", "--epsilon"): "REPRO_EPSILON",
    ("fit", "--delta"): "REPRO_DELTA",
    ("fit", "--kronfit-iterations"): "REPRO_KRONFIT_ITERATIONS",
    ("release", "--epsilon"): "REPRO_EPSILON",
    ("release", "--delta"): "REPRO_DELTA",
    ("run-ensemble", "--n-jobs"): "REPRO_N_JOBS",
    ("run-ensemble", "--cache-dir"): "REPRO_CACHE_DIR",
    ("run-scenario", "--epsilon"): "REPRO_EPSILON",
    ("run-scenario", "--delta"): "REPRO_DELTA",
    ("run-scenario", "--count"): "REPRO_REALIZATIONS",
    ("run-scenario", "--n-starts"): "REPRO_N_STARTS",
    ("run-scenario", "--n-jobs"): "REPRO_N_JOBS",
    ("run-scenario", "--cache-dir"): "REPRO_CACHE_DIR",
    ("run-scenario", "--seed"): "REPRO_SEED",
    ("run-scenario", "--runs-dir"): "REPRO_RUNS_DIR",
    ("compare", "--runs-dir"): "REPRO_RUNS_DIR",
    ("runs list", "--runs-dir"): "REPRO_RUNS_DIR",
    ("runs show", "--runs-dir"): "REPRO_RUNS_DIR",
    ("serve", "--queue"): "REPRO_SERVE_QUEUE",
    ("serve", "--timeout"): "REPRO_SERVE_TIMEOUT",
    ("serve", "--drain"): "REPRO_SERVE_DRAIN",
    ("serve", "--breaker"): "REPRO_SERVE_BREAKER",
    ("serve", "--budget-epsilon"): "REPRO_SERVE_BUDGET_EPSILON",
    ("serve", "--budget-delta"): "REPRO_SERVE_BUDGET_DELTA",
    ("serve", "--n-jobs"): "REPRO_N_JOBS",
    ("serve", "--cache-dir"): "REPRO_CACHE_DIR",
    ("serve", "--ledger-dir"): "REPRO_SERVE_LEDGER_DIR",
}


def _parser_actions(parser, path=""):
    """(subcommand path, action) for every option of the parser tree."""
    import argparse

    for action in parser._actions:
        if isinstance(action, argparse._SubParsersAction):
            for name, child in action.choices.items():
                yield from _parser_actions(child, f"{path} {name}".strip())
        elif action.option_strings:
            yield path, action


class TestKnobFlags:
    def test_every_knob_flag_is_generated_from_the_table(self):
        import re

        from repro.cli import build_parser
        from repro.knobs import KNOBS

        found = {}
        for path, action in _parser_actions(build_parser()):
            match = re.search(r"\(default: (REPRO_\w+)", action.help or "")
            if match is None:
                continue
            name = match.group(1)
            found[(path, action.option_strings[-1])] = name
            spec = KNOBS[name]
            assert action.default is None
            assert action.help.startswith(spec.doc)
            assert action.type is {"int": int, "float": float}.get(spec.kind)
            expected = spec.check if spec.kind == "choice" else None
            assert action.choices == expected
        assert len(KNOB_FLAGS) == 29
        assert found == KNOB_FLAGS

    @pytest.mark.parametrize(
        "command, name",
        [
            (["fit"], "REPRO_EPSILON"),
            (["fit"], "REPRO_DELTA"),
            (["fit", "--method", "kronfit"], "REPRO_KRONFIT_ITERATIONS"),
            (["release", "--out", "{tmp}"], "REPRO_EPSILON"),
            (["release", "--out", "{tmp}"], "REPRO_DELTA"),
        ],
    )
    def test_fit_and_release_honour_the_environment(
        self, edge_list_file, tmp_path, capsys, monkeypatch, command, name
    ):
        monkeypatch.setenv(name, "x")
        arguments = [token.format(tmp=tmp_path / "pkg") for token in command]
        assert main(arguments[:1] + [str(edge_list_file)] + arguments[1:]) == 1
        lines = capsys.readouterr().err.splitlines()
        assert len(lines) == 1
        assert lines[0].startswith("error:")
        assert name in lines[0]

    def test_run_ensemble_honours_repro_cache_dir(
        self, tmp_path, capsys, monkeypatch
    ):
        monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path / "env-cache"))
        assert main(TestRunEnsemble.ARGS) == 0
        assert "3 trial(s) executed, 0 from cache" in capsys.readouterr().out
        assert main(TestRunEnsemble.ARGS) == 0
        assert "0 trial(s) executed, 3 from cache" in capsys.readouterr().out


class TestRunEnsembleCounts:
    def test_kernel_counts_equal_the_graph_path(self, tmp_path, capsys):
        """Counting inside the sampler kernel reports exactly what counting
        the sampled graph does, trial by trial."""
        import numpy as np

        from repro.kronecker.initiator import Initiator
        from repro.kronecker.sampling import sample_skg
        from repro.stats.counts import matching_statistics

        target = tmp_path / "ensemble.json"
        arguments = ["run-ensemble", "--a", "0.9", "--b", "0.5", "--c", "0.2",
                     "-k", "10", "--count", "3", "--seed", "5", "--out", str(target)]
        assert main(arguments) == 0
        rows = json.loads(target.read_text())["statistics"]
        theta = Initiator(0.9, 0.5, 0.2)
        for row, child in zip(rows, np.random.SeedSequence(5).spawn(3), strict=True):
            graph = sample_skg(theta, 10, seed=np.random.default_rng(child))
            assert row == matching_statistics(graph)._asdict()
