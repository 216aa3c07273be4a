"""Diffing two tracked runs: config deltas, metric drift, cache credit.

:func:`compare_runs` lines two :class:`~repro.tracking.record.RunRecord`
objects up scenario-by-scenario and metric-by-metric:

* **config / environment deltas** — knobs and host facts that differ
  (informational: a different backend *explains* a timing difference,
  it is not itself drift);
* **metric drift** — per (scenario, metric), the maximum absolute
  difference across trials, flagged against a tolerance (default 0.0 =
  bit-identical, the CI contract for a cold run vs its cache-resumed
  re-run).  ``NaN`` on both sides compares equal; ``NaN`` on one side is
  unconditional drift;
* **structure mismatches** — scenarios present in only one run, trial
  counts that differ, metric keys that differ: always drift (the runs
  measured different things);
* **cache attribution** — each run's executed/cached split, so the
  comparison states which numbers were recomputed and which were served
  from the trial cache;
* **failure attribution** — each run's failed/retried trial totals and
  pool restarts (schema v2 records).  Positions where *either* run's
  trial permanently failed are excluded from metric drift — a failed
  trial has no metrics to compare — and reported as informational notes
  instead, so "bit-identical on surviving metrics" is exactly what the
  verdict states.  A chaos run whose faults were all healed (retries,
  pool restarts) carries no failed trials and is compared in full.

Comparison is deterministic: the same two records always produce the
same :class:`RunComparison` and the same rendered report.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Any

from repro.errors import ValidationError
from repro.tracking.record import RunRecord
from repro.utils.tables import TextTable

__all__ = ["MetricDrift", "RunComparison", "compare_runs", "render_comparison"]


@dataclass(frozen=True)
class MetricDrift:
    """Drift of one metric of one scenario across the two runs."""

    scenario: str
    metric: str
    max_abs_diff: float
    within: bool


@dataclass(frozen=True)
class RunComparison:
    """The full diff of two tracked runs (see module docstring)."""

    name_a: str
    name_b: str
    tolerance: float
    config_delta: dict[str, tuple[Any, Any]]
    environment_delta: dict[str, tuple[Any, Any]]
    drifts: list[MetricDrift] = field(repr=False)
    structure_mismatches: list[str] = field(default_factory=list)
    cache: dict[str, dict[str, int]] = field(default_factory=dict)
    failures: dict[str, dict[str, int]] = field(default_factory=dict)
    notes: list[str] = field(default_factory=list)

    @property
    def drifted(self) -> list[MetricDrift]:
        """Metrics outside tolerance."""
        return [drift for drift in self.drifts if not drift.within]

    @property
    def has_drift(self) -> bool:
        """True when the runs disagree beyond tolerance (or in shape)."""
        return bool(self.drifted) or bool(self.structure_mismatches)


def _metric_diff(a: Any, b: Any) -> float:
    """Absolute difference of two metric values; NaN==NaN, NaN!=number."""
    a = float(a)
    b = float(b)
    if math.isnan(a) and math.isnan(b):
        return 0.0
    if math.isnan(a) or math.isnan(b):
        return float("inf")
    return abs(a - b)


def compare_runs(
    record_a: RunRecord,
    record_b: RunRecord,
    *,
    tolerance: float = 0.0,
    name_a: str = "A",
    name_b: str = "B",
) -> RunComparison:
    """Diff two run records (see module docstring for semantics)."""
    if tolerance < 0:
        raise ValidationError(f"tolerance must be non-negative, got {tolerance}")
    config_delta = _mapping_delta(record_a.config, record_b.config)
    environment_delta = _mapping_delta(record_a.environment, record_b.environment)

    by_name_a = {entry["name"]: entry for entry in record_a.scenarios}
    by_name_b = {entry["name"]: entry for entry in record_b.scenarios}
    mismatches: list[str] = []
    for name in by_name_a:
        if name not in by_name_b:
            mismatches.append(f"scenario {name!r} only in {name_a}")
    for name in by_name_b:
        if name not in by_name_a:
            mismatches.append(f"scenario {name!r} only in {name_b}")

    drifts: list[MetricDrift] = []
    notes: list[str] = []
    for name, entry_a in by_name_a.items():
        entry_b = by_name_b.get(name)
        if entry_b is None:
            continue
        rows_a = entry_a["metrics"]
        rows_b = entry_b["metrics"]
        if len(rows_a) != len(rows_b):
            mismatches.append(
                f"scenario {name!r}: {len(rows_a)} trials in {name_a} vs "
                f"{len(rows_b)} in {name_b}"
            )
            continue
        # A permanently failed trial (collect policy) has no metrics, so
        # its position cannot drift — exclude it on both sides and say so.
        # Records written before schema v2 carry no failed_indices.
        skip = set(entry_a.get("failed_indices", ())) | set(
            entry_b.get("failed_indices", ())
        )
        if skip:
            notes.append(
                f"scenario {name!r}: trial position(s) "
                f"{', '.join(str(p) for p in sorted(skip))} failed in at "
                f"least one run; excluded from drift (comparing the "
                f"{len(rows_a) - len(skip)} surviving trial(s))"
            )
            rows_a = [row for p, row in enumerate(rows_a) if p not in skip]
            rows_b = [row for p, row in enumerate(rows_b) if p not in skip]
        keys_a = {key for row in rows_a for key in row}
        keys_b = {key for row in rows_b for key in row}
        if keys_a != keys_b:
            only = sorted(keys_a.symmetric_difference(keys_b))
            mismatches.append(
                f"scenario {name!r}: metric keys differ ({', '.join(only)})"
            )
            continue
        for metric in sorted(keys_a):
            diff = max(
                (
                    _metric_diff(row_a.get(metric, float("nan")),
                                 row_b.get(metric, float("nan")))
                    for row_a, row_b in zip(rows_a, rows_b)
                ),
                default=0.0,
            )
            drifts.append(
                MetricDrift(
                    scenario=name,
                    metric=metric,
                    max_abs_diff=diff,
                    within=diff <= tolerance,
                )
            )

    cache = {
        name_a: _cache_split(record_a),
        name_b: _cache_split(record_b),
    }
    failures = {
        name_a: _failure_split(record_a),
        name_b: _failure_split(record_b),
    }
    return RunComparison(
        name_a=name_a,
        name_b=name_b,
        tolerance=tolerance,
        config_delta=config_delta,
        environment_delta=environment_delta,
        drifts=drifts,
        structure_mismatches=mismatches,
        cache=cache,
        failures=failures,
        notes=notes,
    )


def _mapping_delta(a: dict, b: dict) -> dict[str, tuple[Any, Any]]:
    delta: dict[str, tuple[Any, Any]] = {}
    for key in sorted(set(a) | set(b)):
        value_a = a.get(key)
        value_b = b.get(key)
        if value_a != value_b:
            delta[key] = (value_a, value_b)
    return delta


def _cache_split(record: RunRecord) -> dict[str, int]:
    return {
        "executed": int(record.timing["executed"]),
        "cached": int(record.timing["cached"]),
    }


def _failure_split(record: RunRecord) -> dict[str, int]:
    # .get defaults keep pre-v2 (and minimal test-built) records readable.
    return {
        "failed": int(record.timing.get("failed", 0)),
        "retried": int(record.timing.get("retried", 0)),
        "pool_restarts": int(record.timing.get("pool_restarts", 0)),
    }


def render_comparison(comparison: RunComparison) -> str:
    """The plain-text comparison report behind ``repro compare``."""
    lines: list[str] = []
    lines.append(
        f"Run comparison — {comparison.name_a} vs {comparison.name_b} "
        f"(tolerance {comparison.tolerance:g})"
    )
    if comparison.config_delta:
        lines.append("config delta:")
        for key, (value_a, value_b) in comparison.config_delta.items():
            lines.append(f"  {key}: {value_a!r} -> {value_b!r}")
    else:
        lines.append("config delta: (none)")
    if comparison.environment_delta:
        lines.append("environment delta:")
        for key, (value_a, value_b) in comparison.environment_delta.items():
            lines.append(f"  {key}: {value_a!r} -> {value_b!r}")
    else:
        lines.append("environment delta: (none)")
    for name in (comparison.name_a, comparison.name_b):
        split = comparison.cache.get(name, {})
        lines.append(
            f"cache attribution: {name} {split.get('executed', 0)} executed / "
            f"{split.get('cached', 0)} cached"
        )
    for name in (comparison.name_a, comparison.name_b):
        split = comparison.failures.get(name, {})
        if any(split.get(key, 0) for key in ("failed", "retried", "pool_restarts")):
            lines.append(
                f"failure attribution: {name} {split.get('failed', 0)} failed / "
                f"{split.get('retried', 0)} retried / "
                f"{split.get('pool_restarts', 0)} pool restart(s)"
            )
    for note in comparison.notes:
        lines.append(f"note: {note}")
    for mismatch in comparison.structure_mismatches:
        lines.append(f"structure mismatch: {mismatch}")

    by_scenario: dict[str, list[MetricDrift]] = {}
    for drift in comparison.drifts:
        by_scenario.setdefault(drift.scenario, []).append(drift)
    if by_scenario:
        table = TextTable(
            ["scenario", "metrics", "max |delta|", "outside tolerance"],
            title="Per-scenario metric drift",
        )
        for name, drifts in by_scenario.items():
            worst = max((drift.max_abs_diff for drift in drifts), default=0.0)
            outside = [drift for drift in drifts if not drift.within]
            detail = (
                ", ".join(
                    f"{drift.metric} ({drift.max_abs_diff:.3g})"
                    for drift in outside[:4]
                )
                + ("…" if len(outside) > 4 else "")
                if outside
                else "-"
            )
            table.add_row([name, len(drifts), f"{worst:.6g}", detail])
        lines.append(table.render())
    if comparison.has_drift:
        drifted = len(comparison.drifted)
        lines.append(
            f"verdict: DRIFT — {drifted} metric(s) outside tolerance, "
            f"{len(comparison.structure_mismatches)} structure mismatch(es)"
        )
    else:
        lines.append(
            f"verdict: metrics identical within tolerance "
            f"{comparison.tolerance:g} ({len(comparison.drifts)} metric(s) "
            f"compared)"
        )
    return "\n".join(lines)
