"""Command-line interface: the curator workflow without writing Python.

Subcommands::

    python -m repro datasets
        List the registered experiment datasets.

    python -m repro summarize GRAPH
        Print the structural summary of a dataset or edge-list file.

    python -m repro fit GRAPH [--method private|kronmom|kronfit]
                              [--epsilon E --delta D --seed S]
                              [--kronfit-iterations N]
        Estimate the SKG initiator and print it (with the privacy ledger
        for the private method).

    python -m repro release GRAPH --out DIR [--epsilon E --delta D
                              --samples N --seed S]
        Produce a complete private release package: parameter JSON,
        N synthetic edge lists, and the privacy ledger.

    python -m repro sample --a A --b B --c C -k K [--seed S --out FILE]
        Sample a synthetic SKG from an explicit initiator.

    python -m repro run-ensemble --a A --b B --c C -k K [--count N]
                              [--n-jobs J --cache-dir DIR --seed S --out FILE]
        Sample an ensemble of N realizations through the parallel trial
        engine (repro.runtime) and summarize the matching statistics
        against their closed-form expectations.  ``--n-jobs`` fans the
        trials across worker processes (results are bit-identical for any
        value); ``--cache-dir`` memoizes completed trials so a rerun is
        resumable and executes only what is missing.

    python -m repro run-scenario [--preset NAME | --datasets D1,D2
                              --estimators E1,E2] [--epsilon E --delta D]
                              [--count N] [--n-starts S] [--n-jobs J]
                              [--cache-dir DIR] [--out FILE] [--list]
                              [--track [--runs-dir DIR]]
        Run a declarative scenario grid (repro.scenarios).  ``--preset``
        executes a registered scenario list by name (``--list`` shows
        them); otherwise ``--datasets`` × ``--estimators`` (kronfit,
        kronmom, private, dpdegree) × the budget forms an ad-hoc grid:
        each cell fits the estimator ``--count`` times and measures the
        matching statistics of one synthetic realization per fit.
        ``--n-starts`` selects multi-start KronFit (S chains per fit,
        best final log-likelihood wins).  Scenario trials run through
        the parallel trial engine: bit-identical for any ``--n-jobs``,
        memoized under ``--cache-dir``.  ``--track`` additionally writes
        a run directory (config, materialized seeds, per-trial metric
        tables, environment fingerprint, cache attribution) under
        ``--runs-dir`` (default: REPRO_RUNS_DIR or ``runs/``).

    python -m repro compare RUN_A RUN_B [--runs-dir DIR] [--tolerance T]
        Diff two tracked runs (paths or names under the runs directory):
        config/environment deltas, per-scenario metric drift against the
        tolerance (default 0 = bit-identical), and each run's
        executed/cached attribution.  Exits 1 when metrics drift beyond
        tolerance or the runs measured different things.

    python -m repro runs {list | show RUN} [--runs-dir DIR]
        Inspect tracked run directories: ``list`` tabulates them oldest
        first (``--paths`` prints bare paths for scripting), ``show``
        prints one run's configuration, environment, and per-scenario
        metric summary.

``GRAPH`` is either a registered dataset name (see ``datasets``) or a path
to a SNAP-format edge list (optionally gzipped).

Every flag that mirrors a ``REPRO_*`` knob (``--epsilon``, ``--n-jobs``,
``--cache-dir``, ``--queue``, ...) is declared from its :data:`KNOBS`
entry: an unset flag falls back to the variable, then to the table
default, and ``--help`` names the variable.

Every pipeline stage runs on a native kernel compiled on first use with
the system C compiler; a host where one cannot be built prints one
``error:`` line naming the compiler's message and exits 1.  The global
``--kernel-threads`` option shards multi-start KronFit chains over
threads, with bit-identical results for any count.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from pathlib import Path

from repro.errors import DatasetError, ReproError, ValidationError
from repro.graphs import Graph, load_dataset, read_edge_list, write_edge_list
from repro.graphs.datasets import available_datasets, dataset_info
from repro.core.estimator import PrivateKroneckerEstimator
from repro.core.nonprivate import fit_kronfit, fit_kronmom
from repro.kronecker.initiator import Initiator
from repro.kronecker.sampling import sample_skg
from repro.knobs import KNOBS, knob
from repro.native.registry import resolve_kernel_threads
from repro.stats.summary import summarize
from repro.utils.tables import TextTable
from repro.utils.validation import check_integer

__all__ = ["main", "build_parser"]


def _knob_flags(parser: argparse.ArgumentParser, flags: dict[str, str]) -> None:
    """Declare each ``flag`` as the command-line face of its knob.

    The type and help come from the knob's :data:`KNOBS` entry,
    and the default is ``None``: the handler resolves the value through
    :func:`repro.knobs.knob`, so an unset flag falls back to the variable,
    then to the table default.
    """
    for flag, name in flags.items():
        spec = KNOBS[name]
        fallback = "unset" if spec.default is None else spec.default
        parser.add_argument(
            flag,
            type={"int": int, "float": float}.get(spec.kind),
            default=None,
            help=f"{spec.doc} (default: {name}, else {fallback})",
        )


def build_parser() -> argparse.ArgumentParser:
    """The argparse tree for the ``repro`` command."""
    parser = argparse.ArgumentParser(
        prog="repro",
        description="Differentially private stochastic Kronecker graph estimation",
    )
    _knob_flags(parser, {"--kernel-threads": "REPRO_KERNEL_THREADS"})
    commands = parser.add_subparsers(dest="command", required=True)

    commands.add_parser("datasets", help="list registered datasets")

    summarize_parser = commands.add_parser(
        "summarize", help="structural summary of a graph"
    )
    summarize_parser.add_argument("graph", help="dataset name or edge-list path")

    fit_parser = commands.add_parser("fit", help="estimate the SKG initiator")
    fit_parser.add_argument("graph", help="dataset name or edge-list path")
    fit_parser.add_argument(
        "--method",
        choices=("private", "kronmom", "kronfit"),
        default="private",
    )
    fit_parser.add_argument("--seed", type=int, default=None)
    _knob_flags(fit_parser, {
        "--epsilon": "REPRO_EPSILON",
        "--delta": "REPRO_DELTA",
        "--kronfit-iterations": "REPRO_KRONFIT_ITERATIONS",
    })

    release_parser = commands.add_parser(
        "release", help="produce a private release package"
    )
    release_parser.add_argument("graph", help="dataset name or edge-list path")
    release_parser.add_argument("--out", required=True, help="output directory")
    release_parser.add_argument("--samples", type=int, default=1)
    release_parser.add_argument("--seed", type=int, default=None)
    _knob_flags(release_parser, {
        "--epsilon": "REPRO_EPSILON",
        "--delta": "REPRO_DELTA",
    })

    sample_parser = commands.add_parser(
        "sample", help="sample a synthetic SKG from an initiator"
    )
    sample_parser.add_argument("--a", type=float, required=True)
    sample_parser.add_argument("--b", type=float, required=True)
    sample_parser.add_argument("--c", type=float, required=True)
    sample_parser.add_argument("-k", type=int, required=True)
    sample_parser.add_argument("--seed", type=int, default=None)
    sample_parser.add_argument("--out", default=None, help="edge-list output path")

    ensemble_parser = commands.add_parser(
        "run-ensemble",
        help="sample an SKG ensemble through the parallel trial engine",
    )
    ensemble_parser.add_argument("--a", type=float, required=True)
    ensemble_parser.add_argument("--b", type=float, required=True)
    ensemble_parser.add_argument("--c", type=float, required=True)
    ensemble_parser.add_argument("-k", type=int, required=True)
    ensemble_parser.add_argument(
        "--count", type=int, default=20, help="ensemble size (default 20)"
    )
    ensemble_parser.add_argument("--seed", type=int, default=0)
    ensemble_parser.add_argument(
        "--out", default=None, help="write the per-trial statistics as JSON"
    )
    _knob_flags(ensemble_parser, {
        "--n-jobs": "REPRO_N_JOBS",
        "--cache-dir": "REPRO_CACHE_DIR",
    })

    scenario_parser = commands.add_parser(
        "run-scenario",
        help="run a declarative scenario grid through the trial engine",
    )
    scenario_parser.add_argument(
        "--preset",
        default=None,
        help="registered scenario preset to run (see --list)",
    )
    scenario_parser.add_argument(
        "--list",
        action="store_true",
        dest="list_presets",
        help="list registered presets and estimator methods, then exit",
    )
    scenario_parser.add_argument(
        "--datasets",
        default=None,
        help="comma-separated dataset names forming the workload axis",
    )
    scenario_parser.add_argument(
        "--estimators",
        default=None,
        help=(
            "comma-separated estimator axis values: "
            "kronfit, kronmom, private, dpdegree"
        ),
    )
    scenario_parser.add_argument(
        "--out", default=None, help="write the scenario report here"
    )
    scenario_parser.add_argument(
        "--on-error",
        choices=["raise", "collect"],
        default=None,
        dest="on_error",
        help=(
            "failure policy once a trial's retries are exhausted: raise "
            "(default) aborts the grid, collect records the failure and "
            "keeps the surviving trials (see REPRO_TRIAL_RETRIES / "
            "REPRO_TRIAL_TIMEOUT)"
        ),
    )
    scenario_parser.add_argument(
        "--track",
        action="store_true",
        help=(
            "write a tracked run directory (config, seeds, per-trial metric "
            "tables, environment fingerprint, cache attribution)"
        ),
    )
    _knob_flags(scenario_parser, {
        "--epsilon": "REPRO_EPSILON",
        "--delta": "REPRO_DELTA",
        "--count": "REPRO_REALIZATIONS",
        "--n-starts": "REPRO_N_STARTS",
        "--n-jobs": "REPRO_N_JOBS",
        "--cache-dir": "REPRO_CACHE_DIR",
        "--seed": "REPRO_SEED",
        "--runs-dir": "REPRO_RUNS_DIR",
    })

    compare_parser = commands.add_parser(
        "compare", help="diff two tracked run directories"
    )
    compare_parser.add_argument("run_a", help="run directory path or name")
    compare_parser.add_argument("run_b", help="run directory path or name")
    compare_parser.add_argument(
        "--tolerance",
        type=float,
        default=0.0,
        help="max |metric delta| treated as identical (default 0 = bitwise)",
    )
    _knob_flags(compare_parser, {"--runs-dir": "REPRO_RUNS_DIR"})

    runs_parser = commands.add_parser(
        "runs", help="inspect tracked run directories"
    )
    runs_commands = runs_parser.add_subparsers(dest="runs_command", required=True)
    runs_list_parser = runs_commands.add_parser(
        "list", help="tabulate tracked runs, oldest first"
    )
    runs_list_parser.add_argument(
        "--paths",
        action="store_true",
        help="print bare run-directory paths (for scripting)",
    )
    _knob_flags(runs_list_parser, {"--runs-dir": "REPRO_RUNS_DIR"})
    runs_show_parser = runs_commands.add_parser(
        "show", help="print one tracked run's record"
    )
    runs_show_parser.add_argument("run", help="run directory path or name")
    _knob_flags(runs_show_parser, {"--runs-dir": "REPRO_RUNS_DIR"})

    figure_parser = commands.add_parser(
        "figure", help="regenerate one of the paper's figures (1-4)"
    )
    figure_parser.add_argument("number", type=int, choices=(1, 2, 3, 4))
    figure_parser.add_argument("--out", default=None, help="write the report here")
    figure_parser.add_argument(
        "--no-plots", action="store_true", help="omit the ASCII scatter overlays"
    )

    serve_parser = commands.add_parser(
        "serve", help="run the synthesis-as-a-service JSON API"
    )
    serve_parser.add_argument("--host", default="127.0.0.1", help="bind address")
    serve_parser.add_argument(
        "--port", type=int, default=8377, help="bind port (0 = ephemeral)"
    )
    _knob_flags(serve_parser, {
        "--queue": "REPRO_SERVE_QUEUE",
        "--timeout": "REPRO_SERVE_TIMEOUT",
        "--drain": "REPRO_SERVE_DRAIN",
        "--breaker": "REPRO_SERVE_BREAKER",
        "--budget-epsilon": "REPRO_SERVE_BUDGET_EPSILON",
        "--budget-delta": "REPRO_SERVE_BUDGET_DELTA",
        "--n-jobs": "REPRO_N_JOBS",
        "--cache-dir": "REPRO_CACHE_DIR",
        "--ledger-dir": "REPRO_SERVE_LEDGER_DIR",
    })

    table_parser = commands.add_parser(
        "table1", help="regenerate the paper's Table 1"
    )
    table_parser.add_argument("--out", default=None, help="write the table here")
    table_parser.add_argument(
        "--methods",
        default="KronFit,KronMom,Private",
        help="comma-separated subset of KronFit,KronMom,Private",
    )
    return parser


def main(argv: list[str] | None = None) -> int:
    """CLI entry point; returns a process exit code."""
    parser = build_parser()
    arguments = parser.parse_args(argv)
    try:
        if arguments.kernel_threads is not None:
            # Validate eagerly, then publish through the environment: the
            # multichain kernel reads the knob wherever a batched
            # multi-start fit is constructed (including inside pool
            # workers, which inherit the environment).
            resolve_kernel_threads(arguments.kernel_threads)
            os.environ["REPRO_KERNEL_THREADS"] = str(arguments.kernel_threads)
        handler = _HANDLERS[arguments.command]
        return handler(arguments)
    except ReproError as error:
        print(f"error: {error}", file=sys.stderr)
        return 1
    except OSError as error:
        print(f"error: {error}", file=sys.stderr)
        return 1


def _resolve_graph(token: str) -> Graph:
    """Interpret ``token`` as a dataset name first, then as a file path."""
    try:
        return load_dataset(token)
    except DatasetError:
        pass
    path = Path(token)
    if not path.exists():
        raise DatasetError(
            f"{token!r} is neither a registered dataset "
            f"({', '.join(available_datasets())}) nor an existing file"
        )
    graph, _labels = read_edge_list(path)
    return graph


def _seed(arguments: argparse.Namespace) -> int | None:
    """``--seed``, refused before any work unless a non-negative integer
    (numpy's rule for an integer seed)."""
    if arguments.seed is None:
        return None
    return check_integer(arguments.seed, "seed", minimum=0)


def _cmd_datasets(_arguments: argparse.Namespace) -> int:
    table = TextTable(
        ["name", "kind", "paper nodes", "paper edges", "description"],
        title="Registered datasets",
    )
    for name in available_datasets():
        spec = dataset_info(name)
        description = spec.description.split(".")[0]
        table.add_row(
            [name, spec.kind, spec.paper_nodes, spec.paper_edges, description]
        )
    print(table.render())
    return 0


def _cmd_summarize(arguments: argparse.Namespace) -> int:
    graph = _resolve_graph(arguments.graph)
    print(summarize(graph).render())
    return 0


def _cmd_fit(arguments: argparse.Namespace) -> int:
    epsilon = knob("REPRO_EPSILON", arguments.epsilon)
    delta = knob("REPRO_DELTA", arguments.delta)
    iterations = knob("REPRO_KRONFIT_ITERATIONS", arguments.kronfit_iterations)
    seed = _seed(arguments)
    graph = _resolve_graph(arguments.graph)
    if arguments.method == "private":
        estimate = PrivateKroneckerEstimator(epsilon, delta, seed=seed).fit(graph)
        print(estimate.describe())
        return 0
    if arguments.method == "kronmom":
        result = fit_kronmom(graph)
    else:
        result = fit_kronfit(graph, n_iterations=iterations, seed=seed)
    theta = result.initiator
    print(f"{result.method} estimate: a={theta.a:.4f} b={theta.b:.4f} c={theta.c:.4f}")
    print(f"kronecker order k={result.k} ({2 ** result.k} nodes)")
    return 0


def _cmd_release(arguments: argparse.Namespace) -> int:
    epsilon = knob("REPRO_EPSILON", arguments.epsilon)
    delta = knob("REPRO_DELTA", arguments.delta)
    seed = _seed(arguments)
    graph = _resolve_graph(arguments.graph)
    out_dir = Path(arguments.out)
    out_dir.mkdir(parents=True, exist_ok=True)
    estimate = PrivateKroneckerEstimator(epsilon, delta, seed=seed).fit(graph)

    theta = estimate.initiator
    (out_dir / "private_initiator.json").write_text(
        json.dumps(
            {
                "model": "stochastic-kronecker-2x2-symmetric",
                "a": theta.a,
                "b": theta.b,
                "c": theta.c,
                "k": estimate.k,
                "epsilon": estimate.epsilon,
                "delta": estimate.delta,
            },
            indent=2,
        )
        + "\n"
    )
    (out_dir / "privacy_ledger.txt").write_text(
        estimate.release.accountant.describe() + "\n"
    )
    for index, synthetic in enumerate(
        estimate.sample_graphs(arguments.samples, seed=seed)
    ):
        write_edge_list(synthetic, out_dir / f"synthetic_{index}.txt")
    print(estimate.describe())
    print(f"release package written to {out_dir}")
    return 0


def _cmd_sample(arguments: argparse.Namespace) -> int:
    theta = Initiator(arguments.a, arguments.b, arguments.c)
    graph = sample_skg(theta, arguments.k, seed=_seed(arguments))
    if arguments.out:
        write_edge_list(graph, arguments.out)
        print(f"wrote {graph} to {arguments.out}")
    else:
        print(summarize(graph).render())
    return 0


def _cmd_run_ensemble(arguments: argparse.Namespace) -> int:
    from repro.core.synthesis import run_skg_ensemble
    from repro.kronecker.moments import expected_statistics

    theta = Initiator(arguments.a, arguments.b, arguments.c)
    rows, report = run_skg_ensemble(
        theta,
        arguments.k,
        arguments.count,
        seed=_seed(arguments),
        n_jobs=arguments.n_jobs,
        cache=knob("REPRO_CACHE_DIR", arguments.cache_dir),
    )
    expected = expected_statistics(theta, arguments.k)
    table = TextTable(
        ["statistic", "ensemble mean", "ensemble std", "expected (moments)"],
        title=(
            f"Ensemble of {arguments.count} SKG realizations "
            f"(a={theta.a}, b={theta.b}, c={theta.c}, k={arguments.k}, "
            f"seed={arguments.seed})"
        ),
    )
    names = ("edges", "hairpins", "tripins", "triangles")
    for column, name in enumerate(names):
        table.add_row(
            [
                name,
                float(rows[:, column].mean()),
                float(rows[:, column].std()),
                getattr(expected, name),
            ]
        )
    print(table.render())
    print(
        f"{report.executed} trial(s) executed, {report.cached} from cache, "
        f"n_jobs={report.n_jobs}, {report.elapsed:.2f}s"
    )
    if arguments.out:
        path = Path(arguments.out)
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(
            json.dumps(
                {
                    "initiator": {"a": theta.a, "b": theta.b, "c": theta.c},
                    "k": arguments.k,
                    "count": arguments.count,
                    "seed": arguments.seed,
                    "n_jobs": report.n_jobs,
                    "executed": report.executed,
                    "cached": report.cached,
                    "elapsed_seconds": report.elapsed,
                    "statistics": [dict(zip(names, row)) for row in rows.tolist()],
                },
                indent=2,
            )
            + "\n"
        )
        print(f"per-trial statistics written to {path}")
    return 0


def _cmd_run_scenario(arguments: argparse.Namespace) -> int:
    # Imported lazily: the scenario layer pulls in the evaluation stack.
    import dataclasses

    from repro.evaluation.experiments import default_config
    from repro.scenarios import (
        available_estimator_axis_values,
        available_scenarios,
        build_scenarios,
        render_scenario_reports,
        run_scenarios,
        scenario_grid,
    )

    if arguments.list_presets:
        print("registered scenario presets: " + ", ".join(available_scenarios()))
        print(
            "estimator axis values: "
            + ", ".join(name.lower() for name in available_estimator_axis_values())
        )
        return 0

    config = dataclasses.replace(
        default_config(),
        epsilon=knob("REPRO_EPSILON", arguments.epsilon),
        delta=knob("REPRO_DELTA", arguments.delta),
        seed=knob("REPRO_SEED", arguments.seed),
        n_starts=knob("REPRO_N_STARTS", arguments.n_starts),
    )

    if arguments.preset is not None:
        if arguments.datasets or arguments.estimators or arguments.count is not None:
            raise ValidationError(
                "--preset and the grid flags (--datasets/--estimators/--count) "
                "are mutually exclusive; presets declare their own cells"
            )
        scenarios = build_scenarios(arguments.preset, config)
        title = f"Scenario report — preset {arguments.preset!r}"
    else:
        if not arguments.datasets or not arguments.estimators:
            raise ValidationError(
                "run-scenario needs either --preset NAME or both "
                "--datasets and --estimators (see --list)"
            )
        datasets = tuple(
            token.strip() for token in arguments.datasets.split(",") if token.strip()
        )
        methods = tuple(
            _resolve_estimator_axis(token.strip())
            for token in arguments.estimators.split(",")
            if token.strip()
        )
        scenarios = scenario_grid(
            config,
            workloads=datasets,
            methods=methods,
            ensemble_size=knob("REPRO_REALIZATIONS", arguments.count),
        )
        title = (
            f"Scenario report — {len(datasets)} workload(s) x "
            f"{len(methods)} estimator(s), seed={config.seed}"
        )

    reports = run_scenarios(
        scenarios,
        n_jobs=arguments.n_jobs,
        cache=knob("REPRO_CACHE_DIR", arguments.cache_dir),
        on_error=arguments.on_error,
    )
    text = render_scenario_reports(reports, title=title)
    executed = sum(report.report.executed for report in reports)
    cached = sum(report.report.cached for report in reports)
    failed = sum(report.report.failed for report in reports)
    retried = sum(report.report.retried for report in reports)
    pool_restarts = max(
        (report.report.pool_restarts for report in reports), default=0
    )
    footer = (
        f"{len(reports)} scenario(s), {executed} trial(s) executed, "
        f"{cached} from cache"
    )
    if failed or retried or pool_restarts:
        footer += (
            f"\nfault recovery: {failed} trial(s) failed, {retried} retried, "
            f"{pool_restarts} pool restart(s)"
        )
    print(text)
    print(footer)
    if arguments.out:
        path = Path(arguments.out)
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(text + "\n" + footer + "\n", encoding="utf-8")
        print(f"scenario report written to {path}")
    if arguments.track:
        from repro.tracking import build_run_record, write_run

        record = build_run_record(
            reports,
            config=config,
            label=arguments.preset or "grid",
            preset=arguments.preset,
        )
        run_path = write_run(record, arguments.runs_dir)
        print(f"run directory: {run_path}")
    return 0


def _cmd_compare(arguments: argparse.Namespace) -> int:
    from repro.tracking import (
        compare_runs,
        find_run,
        load_run,
        render_comparison,
        resolve_runs_dir,
    )

    runs_dir = resolve_runs_dir(arguments.runs_dir)
    path_a = find_run(arguments.run_a, runs_dir)
    path_b = find_run(arguments.run_b, runs_dir)
    comparison = compare_runs(
        load_run(path_a),
        load_run(path_b),
        tolerance=arguments.tolerance,
        name_a=path_a.name,
        name_b=path_b.name,
    )
    print(render_comparison(comparison))
    return 1 if comparison.has_drift else 0


def _cmd_runs(arguments: argparse.Namespace) -> int:
    from repro.tracking import find_run, list_runs, load_run, resolve_runs_dir

    runs_dir = resolve_runs_dir(arguments.runs_dir)
    if arguments.runs_command == "list":
        paths = list_runs(runs_dir)
        if arguments.paths:
            for path in paths:
                print(path)
            return 0
        if not paths:
            print(f"no tracked runs under {runs_dir}")
            return 0
        table = TextTable(
            ["run", "created", "preset", "scenarios", "trials", "executed", "cached"],
            title=f"Tracked runs under {runs_dir}",
        )
        for path in paths:
            record = load_run(path)
            trials = sum(
                scenario["ensemble_size"] for scenario in record.scenarios
            )
            table.add_row(
                [
                    path.name,
                    record.created,
                    record.preset or "-",
                    len(record.scenarios),
                    trials,
                    record.timing["executed"],
                    record.timing["cached"],
                ]
            )
        print(table.render())
        return 0
    path = find_run(arguments.run, runs_dir)
    record = load_run(path)
    print(f"run {path.name}")
    print(f"  created: {record.created}")
    print(f"  label: {record.label}  preset: {record.preset or '-'}")
    print(f"  schema_version: {record.schema_version}")
    print(
        "  timing: "
        f"{record.timing['executed']} executed / {record.timing['cached']} cached, "
        f"n_jobs={record.timing['n_jobs']}, "
        f"{record.timing['elapsed_seconds']:.2f}s"
    )
    failed = record.timing.get("failed", 0)
    retried = record.timing.get("retried", 0)
    pool_restarts = record.timing.get("pool_restarts", 0)
    if failed or retried or pool_restarts:
        print(
            "  fault recovery: "
            f"{failed} failed / {retried} retried / "
            f"{pool_restarts} pool restart(s)"
        )
    print("  environment:")
    for key in sorted(record.environment):
        print(f"    {key}: {record.environment[key]}")
    print("  config:")
    for key in sorted(record.config):
        print(f"    {key}: {record.config[key]}")
    table = TextTable(
        ["scenario", "estimator", "trials", "executed", "cached", "failed",
         "metrics"],
        title="Scenarios",
    )
    for scenario in record.scenarios:
        metric_names = sorted(
            {name for row in scenario["metrics"] for name in row}
        )
        table.add_row(
            [
                scenario["name"],
                scenario["estimator"]["method"],
                scenario["ensemble_size"],
                scenario["executed"],
                scenario["cached"],
                scenario.get("failed", 0),
                ", ".join(metric_names) if metric_names else "-",
            ]
        )
    print(table.render())
    return 0


def _resolve_estimator_axis(token: str) -> str:
    """Map a CLI estimator token (case-insensitive) to its registry name."""
    from repro.scenarios import available_estimator_axis_values

    by_lower = {name.lower(): name for name in available_estimator_axis_values()}
    try:
        return by_lower[token.lower()]
    except KeyError:
        raise ValidationError(
            f"unknown estimator {token!r}; choose from "
            f"{', '.join(sorted(by_lower))}"
        ) from None


def _cmd_figure(arguments: argparse.Namespace) -> int:
    # Imported lazily: the evaluation harness pulls in the whole stack.
    from repro.evaluation.figures import run_figure
    from repro.evaluation.reporting import render_figure, write_report

    result = run_figure(arguments.number)
    text = render_figure(result, plots=not arguments.no_plots)
    if arguments.out:
        write_report(text, arguments.out)
        print(f"figure {arguments.number} written to {arguments.out}")
    else:
        print(text)
    return 0


def _cmd_table1(arguments: argparse.Namespace) -> int:
    from repro.evaluation.table1 import render_table1, run_table1

    methods = tuple(m.strip() for m in arguments.methods.split(",") if m.strip())
    rows = run_table1(methods=methods)
    text = render_table1(rows)
    if arguments.out:
        Path(arguments.out).parent.mkdir(parents=True, exist_ok=True)
        Path(arguments.out).write_text(text + "\n", encoding="utf-8")
        print(f"table 1 written to {arguments.out}")
    else:
        print(text)
    return 0


def _cmd_serve(arguments: argparse.Namespace) -> int:
    """Boot the JSON API and serve until SIGTERM/SIGINT drains it."""
    import logging

    from repro.serve.config import ServeConfig
    from repro.serve.server import ServeRuntime

    # A server's lifecycle (drain signals, pool self-healing, shutdown)
    # must be visible to its operator: give the serve namespace an INFO
    # handler — the CLI otherwise configures no logging at all.
    serve_logger = logging.getLogger("repro.serve")
    if not serve_logger.handlers:
        handler = logging.StreamHandler(sys.stdout)
        handler.setFormatter(
            logging.Formatter("%(asctime)s %(name)s: %(message)s")
        )
        serve_logger.addHandler(handler)
        serve_logger.setLevel(logging.INFO)

    config = ServeConfig.resolve(
        host=arguments.host,
        port=arguments.port,
        queue=arguments.queue,
        timeout=arguments.timeout,
        drain=arguments.drain,
        breaker=arguments.breaker,
        budget_epsilon=arguments.budget_epsilon,
        budget_delta=arguments.budget_delta,
        n_jobs=arguments.n_jobs,
        cache_dir=arguments.cache_dir,
        ledger_dir=arguments.ledger_dir,
    )
    runtime = ServeRuntime(config)
    host, port = runtime.address
    print(f"repro serve listening on http://{host}:{port}")
    print(
        f"  queue={config.queue_limit} timeout={config.timeout:g}s "
        f"drain={config.drain_deadline:g}s breaker={config.breaker_threshold} "
        f"n_jobs={config.n_jobs}"
    )
    print(
        f"  budget per dataset: epsilon={config.budget_epsilon:g} "
        f"delta={config.budget_delta:g}"
        + (f"  ledger: {config.ledger_dir}" if config.ledger_dir else "  ledger: memory")
    )
    sys.stdout.flush()
    runtime.run()
    return 0


_HANDLERS = {
    "datasets": _cmd_datasets,
    "summarize": _cmd_summarize,
    "fit": _cmd_fit,
    "release": _cmd_release,
    "sample": _cmd_sample,
    "run-ensemble": _cmd_run_ensemble,
    "run-scenario": _cmd_run_scenario,
    "compare": _cmd_compare,
    "runs": _cmd_runs,
    "figure": _cmd_figure,
    "table1": _cmd_table1,
    "serve": _cmd_serve,
}


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
