"""CI-maintained perf trajectory: one row of bench numbers per commit.

The committed ``benchmarks/out/BENCH_trajectory.json`` is the repo's
performance history: each row condenses one commit's quick-bench reports
(``bench_stats.py`` and ``bench_kronfit.py`` ``--quick`` outputs) into
the headline numbers the ROADMAP tracks — the combined counting-path
speedup, the fused pass speedup over blocked scipy, the fused KronFit
fit speedup over the numpy chain, and the batched multichain speedup
over S sequential single-start fits.  The CI bench-smoke job
appends the current commit's row on every run; re-benching the same
commit replaces its row, so the trajectory has one row per commit and is
sorted by the time it was recorded.

Usage (CI appends; locally the same command works)::

    python benchmarks/bench_stats.py --quick --out /tmp/stats.json
    python benchmarks/bench_kronfit.py --quick --out /tmp/kronfit.json
    python benchmarks/bench_trajectory.py --stats /tmp/stats.json \
        --kronfit /tmp/kronfit.json

``tests/test_bench_artifacts.py`` guards the committed artifact: the
schema version must match this script's and rows must stay well-formed
(one per commit, recorded timestamps ascending).
"""

from __future__ import annotations

import argparse
import json
import subprocess
import sys
from datetime import datetime, timezone
from pathlib import Path

# Bump when the JSON layout changes; tests/test_bench_artifacts.py keeps
# the committed artifact in sync.
SCHEMA_VERSION = 1

OUT_PATH = Path(__file__).parent / "out" / "BENCH_trajectory.json"
ROW_KEYS = ("commit", "label", "recorded", "quick", "stats", "kronfit")


def fresh_trajectory() -> dict:
    """An empty trajectory artifact (the committed file's skeleton)."""
    return {
        "bench": "bench_trajectory",
        "schema_version": SCHEMA_VERSION,
        "quick": False,
        "rows": [],
    }


def build_row(
    stats_report: dict,
    kronfit_report: dict,
    *,
    commit: str,
    label: str,
    recorded: str,
) -> dict:
    """Condense one commit's two bench reports into a trajectory row.

    Full-matrix reports contribute their floor records verbatim; quick
    reports skip the floor workloads, so the row falls back to the best
    *measured* workload in the report (recording which one), keeping CI
    rows populated with real numbers instead of nulls.
    """
    return {
        "commit": commit,
        "label": label,
        "recorded": recorded,
        "quick": bool(stats_report["quick"] or kronfit_report["quick"]),
        "stats": {
            **_stats_headline(stats_report),
            "kernel_backend": stats_report["kernel_backend"],
        },
        "kronfit": _kronfit_headline(kronfit_report),
    }


def _stats_headline(report: dict) -> dict:
    """Combined-path + fused-pass speedups: the floor record when it was
    measured, else the best measured workload."""
    floor = report["speedup_floor"]
    fused = report["fused_speedup_floor"]
    if floor["measured"] is not None:
        return {
            "workload": floor["workload"],
            "combined_speedup": floor["measured"],
            "fused_backend": fused["backend"],
            "fused_speedup": fused["measured"],
        }
    best = max(report["workloads"], key=lambda entry: entry["speedup"])
    fused_backends = {
        backend: entry["speedup_vs_scipy"]
        for backend, entry in best["backends"].items()
        if backend != "scipy" and entry.get("available")
    }
    backend = max(fused_backends, key=fused_backends.get) if fused_backends else None
    return {
        "workload": best["workload"],
        "combined_speedup": best["speedup"],
        "fused_backend": backend,
        "fused_speedup": fused_backends.get(backend),
    }


def _kronfit_headline(report: dict) -> dict:
    """Fused fit speedup over the numpy chain (floor record when it was
    measured, else the best measured workload/backend), plus the batched
    multichain speedup over S sequential single-start fits (reports
    without it record ``None`` and the gate skips the headline)."""
    floor = report["fused_fit_floor"]
    if floor["measured"] is not None:
        headline = {
            "workload": floor["workload"],
            "backend": floor["backend"],
            "fit_speedup": floor["measured"],
        }
    else:
        headline = {"workload": None, "backend": None, "fit_speedup": None}
        for workload in report["workloads"]:
            for backend, entry in workload["fit"].items():
                if backend == "params" or not isinstance(entry, dict):
                    continue
                speedup = entry.get("speedup_vs_numpy")
                if backend == "numpy" or not entry.get("available") or speedup is None:
                    continue
                if headline["fit_speedup"] is None or speedup > headline["fit_speedup"]:
                    headline = {
                        "workload": workload["workload"],
                        "backend": backend,
                        "fit_speedup": speedup,
                    }
    multichain = report.get("multichain_floor") or {}
    # The whole-fit ratio: the floor's own measure since schema 9 of
    # bench_kronfit is the overhead ratio.
    headline["multichain_vs_solo_speedup"] = multichain.get(
        "speedup_vs_sequential", multichain.get("measured")
    )
    return headline


# The headline numbers the regression gate watches, as (section, key)
# paths into a trajectory row.  Rows predating a headline simply lack
# its key — check_regression treats absence as "not measured" and skips.
GATE_KEYS = (
    ("stats", "combined_speedup"),
    ("kronfit", "fit_speedup"),
    ("kronfit", "multichain_vs_solo_speedup"),
)

# Quick-mode rows are measured on shared CI runners: noisy.  The gate is
# a tripwire for real regressions (a kernel accidentally knocked off its
# fast path), not a microbenchmark referee, so the default tolerance is
# deliberately loose.
DEFAULT_GATE_TOLERANCE = 0.5


def check_regression(previous: dict, row: dict, tolerance: float) -> list[str]:
    """Compare ``row``'s headline speedups against ``previous``'s.

    Returns one human-readable violation per headline that fell below
    ``previous * (1 - tolerance)``.  Headlines missing on either side
    (e.g. a backend unavailable on this runner) are skipped — absence is
    an environment property, not a regression.
    """
    if not 0.0 <= tolerance < 1.0:
        raise ValueError(f"gate tolerance must be in [0, 1), got {tolerance}")
    problems = []
    for section, key in GATE_KEYS:
        before = (previous.get(section) or {}).get(key)
        after = (row.get(section) or {}).get(key)
        if before is None or after is None:
            continue
        floor = before * (1.0 - tolerance)
        if after < floor:
            problems.append(
                f"{section}.{key} regressed: {after:.2f}x now vs "
                f"{before:.2f}x in {previous['commit']} "
                f"(floor {floor:.2f}x at tolerance {tolerance:.0%})"
            )
    return problems


def previous_row(trajectory: dict, commit: str) -> dict | None:
    """The most recent row not belonging to ``commit`` (gate baseline)."""
    rows = [entry for entry in trajectory["rows"] if entry["commit"] != commit]
    return rows[-1] if rows else None


def append_row(trajectory: dict, row: dict) -> dict:
    """Append ``row``, replacing any prior row for the same commit.

    Keeps exactly one row per commit (re-benching a commit updates it)
    and the whole trajectory sorted by ``recorded``.
    """
    missing = [key for key in ROW_KEYS if key not in row]
    if missing:
        raise ValueError(f"trajectory row is missing keys: {missing}")
    rows = [entry for entry in trajectory["rows"] if entry["commit"] != row["commit"]]
    rows.append(row)
    rows.sort(key=lambda entry: entry["recorded"])
    return {**trajectory, "rows": rows}


def load_trajectory(path: Path) -> dict:
    if not path.exists():
        return fresh_trajectory()
    trajectory = json.loads(path.read_text(encoding="utf-8"))
    if trajectory.get("schema_version") != SCHEMA_VERSION:
        raise SystemExit(
            f"{path} has trajectory schema "
            f"{trajectory.get('schema_version')!r}; this script writes "
            f"{SCHEMA_VERSION} — migrate or remove the artifact first"
        )
    return trajectory


def current_commit() -> str:
    return subprocess.run(
        ["git", "rev-parse", "--short", "HEAD"],
        check=True,
        capture_output=True,
        text=True,
        cwd=Path(__file__).parent,
    ).stdout.strip()


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--stats",
        required=True,
        help="bench_stats.py JSON report to condense (usually a --quick run)",
    )
    parser.add_argument(
        "--kronfit",
        required=True,
        help="bench_kronfit.py JSON report to condense (usually a --quick run)",
    )
    parser.add_argument(
        "--commit",
        default=None,
        help="commit hash for the row (default: git rev-parse --short HEAD)",
    )
    parser.add_argument(
        "--label", default="", help="free-form row label (e.g. the PR name)"
    )
    parser.add_argument(
        "--recorded",
        default=None,
        help="row timestamp, ISO UTC (default: now)",
    )
    parser.add_argument(
        "--out",
        default=str(OUT_PATH),
        help="trajectory artifact to append to (default: the committed one)",
    )
    parser.add_argument(
        "--gate",
        action="store_true",
        help=(
            "fail (exit 1) when a headline speedup falls below the previous "
            "row's by more than --gate-tolerance; the row is recorded either way"
        ),
    )
    parser.add_argument(
        "--gate-tolerance",
        type=float,
        default=DEFAULT_GATE_TOLERANCE,
        help=(
            "allowed fractional drop vs the previous row before the gate "
            f"fails (default {DEFAULT_GATE_TOLERANCE:g})"
        ),
    )
    arguments = parser.parse_args(argv)

    stats_report = json.loads(Path(arguments.stats).read_text(encoding="utf-8"))
    kronfit_report = json.loads(Path(arguments.kronfit).read_text(encoding="utf-8"))
    commit = arguments.commit or current_commit()
    recorded = arguments.recorded or datetime.now(timezone.utc).strftime(
        "%Y-%m-%dT%H:%M:%SZ"
    )
    row = build_row(
        stats_report, kronfit_report, commit=commit, label=arguments.label,
        recorded=recorded,
    )
    out = Path(arguments.out)
    before = load_trajectory(out)
    baseline = previous_row(before, commit)
    trajectory = append_row(before, row)
    out.parent.mkdir(parents=True, exist_ok=True)
    out.write_text(json.dumps(trajectory, indent=2) + "\n", encoding="utf-8")
    print(
        f"trajectory row for {commit} recorded ({len(trajectory['rows'])} "
        f"row(s) in {out})"
    )
    if arguments.gate and baseline is not None:
        problems = check_regression(baseline, row, arguments.gate_tolerance)
        if problems:
            for problem in problems:
                print(f"GATE: {problem}", file=sys.stderr)
            return 1
        print(f"gate passed vs {baseline['commit']}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
