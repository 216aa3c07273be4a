"""The knob table: one declaration per ``REPRO_*`` variable, one policy.

Three guarantees: every variable the package (or CI) names is declared
in :data:`repro.knobs.KNOBS` and documented in the README table with the
same default; an empty or whitespace-only value behaves exactly like an
unset one, for every knob and every consumer; and numbers tolerate
surrounding whitespace.
"""

from __future__ import annotations

import re
from pathlib import Path

import pytest

from repro.errors import ValidationError
from repro.evaluation.experiments import default_config
from repro.knobs import KNOBS, knob
from repro.native.registry import resolve_kernel_threads
from repro.runtime import resolve_fault_plan, resolve_n_jobs
from repro.serve.config import ServeConfig
from repro.stats.kernels import resolve_kernel_backend
from repro.tracking.store import resolve_runs_dir

ROOT = Path(__file__).resolve().parent.parent
# A full variable name: the bare prefixes "REPRO_" and "REPRO_SERVE_"
# (used to filter the environment) end in "_" and are not knobs.
_KNOB_NAME = re.compile(r"\bREPRO_[A-Z_]*[A-Z]\b")


def _readme_table() -> dict[str, str]:
    """Variable -> default column of the README "Environment knobs" table."""
    text = (ROOT / "README.md").read_text(encoding="utf-8")
    section = text.split("## Environment knobs", 1)[1].split("\n## ", 1)[0]
    rows = {}
    for line in section.splitlines():
        match = re.match(r"\| `(REPRO_[A-Z_]+)` \| ([^|]+) \|", line)
        if match:
            rows[match.group(1)] = match.group(2).strip()
    return rows


def _shown(value) -> str:
    """How the README spells a table default."""
    if value is None or value == "":
        return "*(unset)*"
    if isinstance(value, str):
        return f"`{value}`"
    return str(value)


def _observed():
    """Everything the knobs feed, as one comparable snapshot."""
    return (
        default_config(),
        ServeConfig.resolve(port=0),
        resolve_n_jobs(),
        resolve_kernel_backend(),
        resolve_kernel_threads(),
        knob("REPRO_TRIAL_RETRIES"),
        knob("REPRO_TRIAL_TIMEOUT"),
        knob("REPRO_TRIAL_BACKOFF"),
        knob("REPRO_POOL_RESTARTS"),
        resolve_fault_plan(),
        resolve_fault_plan(knob_name="REPRO_SERVE_FAULT_INJECT"),
        resolve_runs_dir(),
    )


@pytest.fixture
def clean_env(monkeypatch):
    for name in KNOBS:
        monkeypatch.delenv(name, raising=False)
    return monkeypatch


class TestCoverage:
    def test_readme_table_matches_knob_table(self):
        documented = _readme_table()
        declared = {name: _shown(entry.default) for name, entry in KNOBS.items()}
        assert documented == declared

    def test_every_named_variable_is_declared(self):
        sources = sorted((ROOT / "src").rglob("*.py"))
        sources.append(ROOT / ".github" / "workflows" / "ci.yml")
        named = set()
        for path in sources:
            named |= set(_KNOB_NAME.findall(path.read_text(encoding="utf-8")))
        assert named - set(KNOBS) == set()


class TestResolution:
    @pytest.mark.parametrize("name", sorted(KNOBS))
    @pytest.mark.parametrize("blank", ["", "  "])
    def test_blank_means_unset(self, clean_env, name, blank):
        unset = (knob(name), _observed())
        clean_env.setenv(name, blank)
        assert (knob(name), _observed()) == unset

    @pytest.mark.parametrize(
        "name", sorted(n for n, k in KNOBS.items() if k.kind in ("int", "float"))
    )
    def test_numbers_tolerate_padding(self, clean_env, name):
        value = KNOBS[name].default or 5
        clean_env.setenv(name, f" {value} ")
        assert knob(name) == value

    def test_padded_values_reach_consumers(self, clean_env):
        clean_env.setenv("REPRO_N_JOBS", " 2 ")
        clean_env.setenv("REPRO_REALIZATIONS", "7 ")
        assert resolve_n_jobs() == 2
        assert default_config().realizations == 7

    def test_paths_pass_through_verbatim(self, clean_env):
        clean_env.setenv("REPRO_CACHE_DIR", " dir with spaces ")
        assert knob("REPRO_CACHE_DIR") == " dir with spaces "

    def test_errors_name_the_source(self, clean_env):
        clean_env.setenv("REPRO_SEED", "soon")
        with pytest.raises(ValidationError, match="environment variable REPRO_SEED"):
            default_config()
        with pytest.raises(ValidationError, match=r"seed \(from argument\)"):
            knob("REPRO_SEED", -1)
        clean_env.setenv("REPRO_EPSILON", "0")
        with pytest.raises(ValidationError, match="REPRO_EPSILON"):
            default_config()

    def test_pool_knob_is_gone(self):
        for name in ("REPRO_POOL", "REPRO_BLOCK_SIZE", "REPRO_SHM", "REPRO_OPENMP",
                     "REPRO_KERNEL_BACKEND"):
            assert name not in KNOBS
        assert len(KNOBS) == 27


class TestUsableCores:
    def test_all_cores_means_the_affinity_mask(self, clean_env):
        """``0`` resolves to the cores this process may use, for the trial
        engine and the batched kernel alike: a process pinned to one core
        of a 64-core host forks one worker, not 64."""
        import os

        clean_env.setattr(os, "sched_getaffinity", lambda pid: {0}, raising=False)
        clean_env.setattr(os, "cpu_count", lambda: 64)
        assert resolve_n_jobs(0) == 1
        assert resolve_kernel_threads(0) == 1
        clean_env.setenv("REPRO_N_JOBS", "-1")
        clean_env.setenv("REPRO_KERNEL_THREADS", "0")
        assert resolve_n_jobs() == 1
        assert resolve_kernel_threads() == 1
