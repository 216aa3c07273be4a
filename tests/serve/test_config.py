"""Tests for the ``REPRO_SERVE_*`` knob surface."""

from __future__ import annotations

import pytest

from repro.errors import ValidationError
from repro.knobs import default
from repro.serve.config import (
    SERVE_BREAKER_ENV,
    SERVE_BUDGET_DELTA_ENV,
    SERVE_BUDGET_EPSILON_ENV,
    SERVE_DRAIN_ENV,
    SERVE_LEDGER_DIR_ENV,
    SERVE_MAX_SAMPLES_ENV,
    SERVE_QUEUE_ENV,
    SERVE_TIMEOUT_ENV,
    ServeConfig,
)


def _resolve(**arguments) -> ServeConfig:
    """``ServeConfig.resolve`` with ``port`` and ``n_jobs`` fixed."""
    return ServeConfig.resolve(port=0, n_jobs=1, **arguments)


# (environment variable, ServeConfig field, resolve() argument,
#  environment value, resolved value, argument value)
FIELD_KNOBS = [
    (SERVE_QUEUE_ENV, "queue_limit", "queue", "32", 32, 2),
    (SERVE_TIMEOUT_ENV, "timeout", "timeout", "2.5", 2.5, 1.5),
    (SERVE_DRAIN_ENV, "drain_deadline", "drain", "4.5", 4.5, 0.5),
    (SERVE_BREAKER_ENV, "breaker_threshold", "breaker", "7", 7, 5),
    (SERVE_BUDGET_EPSILON_ENV, "budget_epsilon", "budget_epsilon", "3.5", 3.5, 0.7),
    (SERVE_BUDGET_DELTA_ENV, "budget_delta", "budget_delta", "0.25", 0.25, 0.05),
    (SERVE_MAX_SAMPLES_ENV, "max_samples", "max_samples", "200", 200, 16),
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
        for name in (SERVE_QUEUE_ENV, SERVE_TIMEOUT_ENV, SERVE_DRAIN_ENV,
                     SERVE_BREAKER_ENV, SERVE_MAX_SAMPLES_ENV):
            monkeypatch.delenv(name, raising=False)
        config = _resolve()
        assert config.queue_limit == default(SERVE_QUEUE_ENV)
        assert config.timeout == default(SERVE_TIMEOUT_ENV)
        assert config.drain_deadline == default(SERVE_DRAIN_ENV)
        assert config.breaker_threshold == default(SERVE_BREAKER_ENV)
        assert config.budget_epsilon == default(SERVE_BUDGET_EPSILON_ENV)
        assert config.max_samples == default(SERVE_MAX_SAMPLES_ENV)

    def test_environment_knobs(self, monkeypatch):
        monkeypatch.setenv(SERVE_QUEUE_ENV, "32")
        monkeypatch.setenv(SERVE_TIMEOUT_ENV, "2.5")
        monkeypatch.setenv(SERVE_BREAKER_ENV, "7")
        monkeypatch.setenv(SERVE_BUDGET_EPSILON_ENV, "3.5")
        config = _resolve()
        assert config.queue_limit == 32
        assert config.timeout == 2.5
        assert config.breaker_threshold == 7
        assert config.budget_epsilon == 3.5

    def test_argument_beats_environment(self, monkeypatch):
        monkeypatch.setenv(SERVE_QUEUE_ENV, "32")
        assert _resolve(queue=2).queue_limit == 2

    def test_empty_environment_means_default(self, monkeypatch):
        monkeypatch.setenv(SERVE_TIMEOUT_ENV, "")
        assert _resolve().timeout == default(SERVE_TIMEOUT_ENV)

    def test_malformed_environment_rejected(self, monkeypatch):
        monkeypatch.setenv(SERVE_QUEUE_ENV, "many")
        with pytest.raises(ValidationError, match=SERVE_QUEUE_ENV):
            _resolve()
        monkeypatch.delenv(SERVE_QUEUE_ENV)
        monkeypatch.setenv(SERVE_TIMEOUT_ENV, "soon")
        with pytest.raises(ValidationError, match=SERVE_TIMEOUT_ENV):
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
        monkeypatch.setenv(SERVE_MAX_SAMPLES_ENV, "200")
        assert _resolve().max_samples == 200
        assert _resolve(max_samples=16).max_samples == 16
        monkeypatch.setenv(SERVE_MAX_SAMPLES_ENV, "lots")
        with pytest.raises(ValidationError, match=SERVE_MAX_SAMPLES_ENV):
            _resolve()
        monkeypatch.setenv(SERVE_MAX_SAMPLES_ENV, "0")
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
        monkeypatch.setenv(SERVE_LEDGER_DIR_ENV, str(tmp_path / "ledgers"))
        config = ServeConfig.resolve(port=0, n_jobs=1)
        assert config.ledger_dir == str(tmp_path / "ledgers")
        assert ServeConfig.resolve(port=0, n_jobs=1, ledger_dir="x").ledger_dir == "x"

    def test_cache_dir_environment_fallback(self, monkeypatch, tmp_path):
        monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path / "cache"))
        config = ServeConfig.resolve(port=0, n_jobs=1)
        assert config.cache_dir == str(tmp_path / "cache")

    def test_default_budget_delta(self):
        assert ServeConfig.resolve(port=0, n_jobs=1).budget_delta == (
            default(SERVE_BUDGET_DELTA_ENV)
        )

    def test_max_samples_resolution(self, monkeypatch):
        monkeypatch.delenv(SERVE_MAX_SAMPLES_ENV, raising=False)
        assert ServeConfig.resolve(port=0, n_jobs=1).max_samples == (
            default(SERVE_MAX_SAMPLES_ENV)
        )
        monkeypatch.setenv(SERVE_MAX_SAMPLES_ENV, "3")
        assert ServeConfig.resolve(port=0, n_jobs=1).max_samples == 3
        assert ServeConfig.resolve(port=0, n_jobs=1, max_samples=9).max_samples == 9

    def test_frozen(self):
        config = ServeConfig.resolve(port=0, n_jobs=1)
        with pytest.raises(AttributeError):
            config.port = 9
