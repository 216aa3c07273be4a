"""Tests for the ``REPRO_SERVE_*`` knob surface."""

from __future__ import annotations

import pytest

from repro.errors import ValidationError
from repro.knobs import default
from repro.serve.config import ServeConfig


def _resolve(**arguments) -> ServeConfig:
    """``ServeConfig.resolve`` with ``port`` and ``n_jobs`` fixed."""
    return ServeConfig.resolve(port=0, n_jobs=1, **arguments)


# (environment variable, ServeConfig field, resolve() argument,
#  environment value, resolved value, argument value)
FIELD_KNOBS = [
    ("REPRO_SERVE_QUEUE", "queue_limit", "queue", "32", 32, 2),
    ("REPRO_SERVE_TIMEOUT", "timeout", "timeout", "2.5", 2.5, 1.5),
    ("REPRO_SERVE_DRAIN", "drain_deadline", "drain", "4.5", 4.5, 0.5),
    ("REPRO_SERVE_BREAKER", "breaker_threshold", "breaker", "7", 7, 5),
    ("REPRO_SERVE_BUDGET_EPSILON", "budget_epsilon", "budget_epsilon", "3.5", 3.5, 0.7),
    ("REPRO_SERVE_BUDGET_DELTA", "budget_delta", "budget_delta", "0.25", 0.25, 0.05),
    ("REPRO_SERVE_MAX_SAMPLES", "max_samples", "max_samples", "200", 200, 16),
]
FIELD_IDS = [row[1] for row in FIELD_KNOBS]


class TestKnobResolution:
    @pytest.mark.parametrize(
        "env, field, argument, raw, resolved, explicit", FIELD_KNOBS, ids=FIELD_IDS
    )
    def test_each_field_reads_its_knob(
        self, monkeypatch, env, field, argument, raw, resolved, explicit
    ):
        for other, *_ in FIELD_KNOBS:
            monkeypatch.delenv(other, raising=False)
        monkeypatch.setenv(env, raw)
        config = _resolve()
        assert getattr(config, field) == resolved
        for other, other_field, *_ in FIELD_KNOBS:
            if other != env:
                assert getattr(config, other_field) == default(other)
        assert getattr(_resolve(**{argument: explicit}), field) == explicit

    @pytest.mark.parametrize("env", [row[0] for row in FIELD_KNOBS], ids=FIELD_IDS)
    def test_each_malformed_knob_names_itself(self, monkeypatch, env):
        monkeypatch.setenv(env, "lots")
        with pytest.raises(ValidationError, match=env):
            _resolve()

    def test_defaults(self, monkeypatch):
        for name in ("REPRO_SERVE_QUEUE", "REPRO_SERVE_TIMEOUT", "REPRO_SERVE_DRAIN",
                     "REPRO_SERVE_BREAKER", "REPRO_SERVE_MAX_SAMPLES"):
            monkeypatch.delenv(name, raising=False)
        config = _resolve()
        assert config.queue_limit == default("REPRO_SERVE_QUEUE")
        assert config.timeout == default("REPRO_SERVE_TIMEOUT")
        assert config.drain_deadline == default("REPRO_SERVE_DRAIN")
        assert config.breaker_threshold == default("REPRO_SERVE_BREAKER")
        assert config.budget_epsilon == default("REPRO_SERVE_BUDGET_EPSILON")
        assert config.max_samples == default("REPRO_SERVE_MAX_SAMPLES")

    def test_environment_knobs(self, monkeypatch):
        monkeypatch.setenv("REPRO_SERVE_QUEUE", "32")
        monkeypatch.setenv("REPRO_SERVE_TIMEOUT", "2.5")
        monkeypatch.setenv("REPRO_SERVE_BREAKER", "7")
        monkeypatch.setenv("REPRO_SERVE_BUDGET_EPSILON", "3.5")
        config = _resolve()
        assert config.queue_limit == 32
        assert config.timeout == 2.5
        assert config.breaker_threshold == 7
        assert config.budget_epsilon == 3.5

    def test_argument_beats_environment(self, monkeypatch):
        monkeypatch.setenv("REPRO_SERVE_QUEUE", "32")
        assert _resolve(queue=2).queue_limit == 2

    def test_empty_environment_means_default(self, monkeypatch):
        monkeypatch.setenv("REPRO_SERVE_TIMEOUT", "")
        assert _resolve().timeout == default("REPRO_SERVE_TIMEOUT")

    def test_malformed_environment_rejected(self, monkeypatch):
        monkeypatch.setenv("REPRO_SERVE_QUEUE", "many")
        with pytest.raises(ValidationError, match="REPRO_SERVE_QUEUE"):
            _resolve()
        monkeypatch.delenv("REPRO_SERVE_QUEUE")
        monkeypatch.setenv("REPRO_SERVE_TIMEOUT", "soon")
        with pytest.raises(ValidationError, match="REPRO_SERVE_TIMEOUT"):
            _resolve()

    def test_nonpositive_rejected(self):
        with pytest.raises(ValidationError):
            _resolve(queue=0)
        with pytest.raises(ValidationError):
            _resolve(timeout=0.0)
        with pytest.raises(ValidationError):
            _resolve(drain=-1.0)
        with pytest.raises(ValidationError):
            _resolve(breaker=0)
        with pytest.raises(ValidationError):
            _resolve(max_samples=0)

    def test_max_samples_environment_knob(self, monkeypatch):
        monkeypatch.setenv("REPRO_SERVE_MAX_SAMPLES", "200")
        assert _resolve().max_samples == 200
        assert _resolve(max_samples=16).max_samples == 16
        monkeypatch.setenv("REPRO_SERVE_MAX_SAMPLES", "lots")
        with pytest.raises(ValidationError, match="REPRO_SERVE_MAX_SAMPLES"):
            _resolve()
        monkeypatch.setenv("REPRO_SERVE_MAX_SAMPLES", "0")
        with pytest.raises(ValidationError):
            _resolve()


class TestServeConfig:
    def test_resolve_is_explicit_and_validated(self):
        config = ServeConfig.resolve(
            port=0, queue=2, timeout=1.5, drain=2.0, breaker=5,
            budget_epsilon=0.7, budget_delta=0.05, n_jobs=1,
        )
        assert config.port == 0
        assert config.queue_limit == 2
        assert config.timeout == 1.5
        assert config.drain_deadline == 2.0
        assert config.breaker_threshold == 5
        assert config.budget_epsilon == 0.7
        assert config.budget_delta == 0.05
        assert config.n_jobs == 1

    def test_negative_port_rejected(self):
        with pytest.raises(ValidationError):
            ServeConfig.resolve(port=-1)

    def test_ledger_dir_environment_fallback(self, monkeypatch, tmp_path):
        monkeypatch.setenv("REPRO_SERVE_LEDGER_DIR", str(tmp_path / "ledgers"))
        config = ServeConfig.resolve(port=0, n_jobs=1)
        assert config.ledger_dir == str(tmp_path / "ledgers")
        assert ServeConfig.resolve(port=0, n_jobs=1, ledger_dir="x").ledger_dir == "x"

    def test_cache_dir_environment_fallback(self, monkeypatch, tmp_path):
        monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path / "cache"))
        config = ServeConfig.resolve(port=0, n_jobs=1)
        assert config.cache_dir == str(tmp_path / "cache")

    def test_default_budget_delta(self):
        assert ServeConfig.resolve(port=0, n_jobs=1).budget_delta == (
            default("REPRO_SERVE_BUDGET_DELTA")
        )

    def test_max_samples_resolution(self, monkeypatch):
        monkeypatch.delenv("REPRO_SERVE_MAX_SAMPLES", raising=False)
        assert ServeConfig.resolve(port=0, n_jobs=1).max_samples == (
            default("REPRO_SERVE_MAX_SAMPLES")
        )
        monkeypatch.setenv("REPRO_SERVE_MAX_SAMPLES", "3")
        assert ServeConfig.resolve(port=0, n_jobs=1).max_samples == 3
        assert ServeConfig.resolve(port=0, n_jobs=1, max_samples=9).max_samples == 9

    def test_frozen(self):
        config = ServeConfig.resolve(port=0, n_jobs=1)
        with pytest.raises(AttributeError):
            config.port = 9
