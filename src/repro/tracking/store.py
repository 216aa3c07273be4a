"""Atomic on-disk run directories and the loader/query API.

Layout (one directory per tracked run)::

    runs/
      20260808T120000__grid__1a2b3c4d/
        run.json                      # config, seeds, env, attribution
        metrics/
          000__as20-kronmom.json      # per-scenario per-trial metric rows
          001__as20-dpdegree.json

The directory name is ``<timestamp>__<preset>__<shorthash>``: the UTC
creation time, the preset (or ``grid``) slug, and a short stable hash of
the run's config + scenario seeds, so same-configuration runs sort
adjacently and re-runs never collide (a same-second collision gets a
``-2`` suffix).

Writes are atomic at the directory level: everything is staged in a
hidden tempdir inside the runs directory (``run.json`` written *last*)
and renamed into place in one step, so a crashed or failed run can never
leave a directory containing a partial ``run.json`` — and the loader
ignores hidden directories and directories without a ``run.json``.

The runs directory resolves argument → ``REPRO_RUNS_DIR`` → ``runs``.
"""

from __future__ import annotations

import json
import os
import re
import shutil
import tempfile
from pathlib import Path

from repro.errors import ValidationError
from repro.knobs import knob
from repro.runtime.hashing import stable_hash
from repro.tracking.record import SCHEMA_VERSION, RunRecord

__all__ = [
    "resolve_runs_dir",
    "write_run",
    "load_run",
    "list_runs",
    "find_run",
]

RUN_FILE = "run.json"
METRICS_DIR = "metrics"


def resolve_runs_dir(runs_dir: str | os.PathLike | None = None) -> Path:
    """Resolve the runs directory: argument, then ``REPRO_RUNS_DIR``,
    then ``runs/`` under the working directory."""
    return Path(knob("REPRO_RUNS_DIR", runs_dir))


def _slug(token: str) -> str:
    """Filesystem-safe lowercase slug of a preset/scenario name."""
    cleaned = re.sub(r"[^A-Za-z0-9]+", "-", token.lower()).strip("-")
    return cleaned or "run"


def _short_hash(record: RunRecord) -> str:
    """Stable 8-hex fingerprint of the run's config + scenario seeds.

    Deliberately excludes the timestamp and the metrics: a cold run and
    its cache-resumed re-run share the fingerprint (same configuration,
    same seeds), which is exactly the pair ``repro compare`` is for.
    """
    payload = {
        "config": record.config,
        "scenarios": [
            {"name": entry["name"], "seeds": entry["seeds"]}
            for entry in record.scenarios
        ],
    }
    return stable_hash(payload)[:8]


def _run_name(record: RunRecord) -> str:
    compact = re.sub(r"[^0-9TZ]", "", record.created)
    return f"{compact}__{_slug(record.preset or record.label)}__{_short_hash(record)}"


def _write_json(path: Path, payload: dict) -> None:
    path.write_text(json.dumps(payload, indent=2) + "\n", encoding="utf-8")


def write_run(record: RunRecord, runs_dir: str | os.PathLike | None = None) -> Path:
    """Persist ``record`` as a new run directory; returns its path.

    Atomic: the directory is staged under a hidden temp name and renamed
    into place only after ``run.json`` (written last) is complete.  On
    any failure the staging directory is removed and nothing appears in
    the runs directory.
    """
    base = resolve_runs_dir(runs_dir)
    base.mkdir(parents=True, exist_ok=True)
    name = _run_name(record)
    staging = Path(tempfile.mkdtemp(prefix=f".staging-{name}-", dir=base))
    try:
        payload = {
            "schema_version": record.schema_version,
            "created": record.created,
            "label": record.label,
            "preset": record.preset,
            "config": record.config,
            "environment": record.environment,
            "timing": record.timing,
            "scenarios": [],
        }
        metrics_dir = staging / METRICS_DIR
        metrics_dir.mkdir()
        for index, entry in enumerate(record.scenarios):
            entry = dict(entry)
            rows = entry.pop("metrics")
            table = f"{METRICS_DIR}/{index:03d}__{_slug(entry['name'])}.json"
            _write_json(
                staging / table,
                {"scenario": entry["name"], "rows": rows},
            )
            entry["metrics_file"] = table
            payload["scenarios"].append(entry)
        _write_json(staging / RUN_FILE, payload)
        final = base / name
        suffix = 2
        while final.exists():
            final = base / f"{name}-{suffix}"
            suffix += 1
        os.rename(staging, final)
    except BaseException:
        shutil.rmtree(staging, ignore_errors=True)
        raise
    return final


def load_run(path: str | os.PathLike) -> RunRecord:
    """Load one run directory back into a :class:`RunRecord`.

    The loaded record compares equal to the record that was written
    (the schema round-trip guarantee); a missing ``run.json`` or a
    record written under a different :data:`SCHEMA_VERSION` fails
    loudly instead of being misread.
    """
    directory = Path(path)
    run_file = directory / RUN_FILE
    if not run_file.is_file():
        raise ValidationError(
            f"{directory} is not a run directory (no {RUN_FILE}); "
            f"see `repro runs list`"
        )
    payload = json.loads(run_file.read_text(encoding="utf-8"))
    version = payload.get("schema_version")
    if version != SCHEMA_VERSION:
        raise ValidationError(
            f"{run_file} has run-record schema version {version!r}; this "
            f"build reads version {SCHEMA_VERSION} — regenerate the run "
            f"with `repro run-scenario --track`"
        )
    scenarios = []
    for entry in payload["scenarios"]:
        entry = dict(entry)
        table = entry.pop("metrics_file")
        rows = json.loads((directory / table).read_text(encoding="utf-8"))
        entry["metrics"] = rows["rows"]
        scenarios.append(entry)
    return RunRecord(
        schema_version=version,
        created=payload["created"],
        label=payload["label"],
        preset=payload["preset"],
        config=payload["config"],
        environment=payload["environment"],
        timing=payload["timing"],
        scenarios=scenarios,
    )


def list_runs(runs_dir: str | os.PathLike | None = None) -> list[Path]:
    """Run-directory paths under ``runs_dir``, oldest first.

    Ordered by the write time of each run's ``run.json`` (its
    nanosecond mtime — the file is the last thing written before the
    staging rename, so it marks when the run was persisted), with the
    timestamp-first name as the tie-break: the name alone only resolves
    to the second, and two runs persisted within the same second would
    otherwise order by config hash.  Hidden entries (staging leftovers)
    and directories without a ``run.json`` are skipped.
    """
    base = resolve_runs_dir(runs_dir)
    if not base.is_dir():
        return []
    candidates = (
        path
        for path in base.iterdir()
        if path.is_dir()
        and not path.name.startswith(".")
        and (path / RUN_FILE).is_file()
    )
    return sorted(
        candidates,
        key=lambda path: ((path / RUN_FILE).stat().st_mtime_ns, path.name),
    )


def find_run(token: str, runs_dir: str | os.PathLike | None = None) -> Path:
    """Resolve a CLI run token: a run-directory path, or a name under
    the runs directory."""
    direct = Path(token)
    if (direct / RUN_FILE).is_file():
        return direct
    named = resolve_runs_dir(runs_dir) / token
    if (named / RUN_FILE).is_file():
        return named
    known = ", ".join(path.name for path in list_runs(runs_dir)) or "(none)"
    raise ValidationError(
        f"{token!r} is neither a run directory nor a run name under "
        f"{resolve_runs_dir(runs_dir)}; tracked runs: {known}"
    )
