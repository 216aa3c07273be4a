"""Tests for experiment configuration."""

from __future__ import annotations

from dataclasses import fields

import pytest

from repro.evaluation.experiments import (
    FIGURE_DATASETS,
    ExperimentConfig,
    default_config,
)


class TestConfig:
    def test_figure_dataset_map(self):
        assert FIGURE_DATASETS == {
            1: "ca-grqc",
            2: "as20",
            3: "ca-hepth",
            4: "synthetic-kronecker",
        }

    def test_paper_defaults(self):
        config = ExperimentConfig()
        assert config.epsilon == 0.2
        assert config.delta == 0.01

    def test_env_overrides(self, monkeypatch):
        monkeypatch.setenv("REPRO_REALIZATIONS", "7")
        monkeypatch.setenv("REPRO_EPSILON", "0.5")
        monkeypatch.setenv("REPRO_HOP_SOURCES", "32")
        config = default_config()
        assert config.realizations == 7
        assert config.epsilon == 0.5
        assert config.hop_sources == 32

    def test_bad_env_value_raises(self, monkeypatch):
        monkeypatch.setenv("REPRO_REALIZATIONS", "many")
        with pytest.raises(ValueError):
            default_config()

    def test_frozen(self):
        config = ExperimentConfig()
        with pytest.raises(AttributeError):
            config.epsilon = 1.0  # type: ignore[misc]

    def test_runtime_defaults(self):
        config = ExperimentConfig()
        assert config.n_jobs == 1
        assert config.cache_dir == ""
        assert config.trial_cache is None

    def test_runtime_env_overrides(self, monkeypatch, tmp_path):
        monkeypatch.setenv("REPRO_N_JOBS", "4")
        monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path))
        config = default_config()
        assert config.n_jobs == 4
        assert config.cache_dir == str(tmp_path)
        assert config.trial_cache == str(tmp_path)

    @pytest.mark.parametrize("name", ["REPRO_EPSILON", "REPRO_DELTA"])
    def test_bad_float_env_names_variable(self, monkeypatch, name):
        monkeypatch.setenv(name, "very private")
        with pytest.raises(ValueError, match=name):
            default_config()

    @pytest.mark.parametrize("name", ["REPRO_N_JOBS", "REPRO_REALIZATIONS"])
    def test_bad_int_env_names_variable(self, monkeypatch, name):
        monkeypatch.setenv(name, "2.5")
        with pytest.raises(ValueError, match=name):
            default_config()

    def test_float_env_accepts_scientific_notation(self, monkeypatch):
        monkeypatch.setenv("REPRO_DELTA", "1e-5")
        assert default_config().delta == 1e-5

    def test_kernel_backend_field_is_gone(self):
        """Every stage has one engine, so there is no backend to record."""
        assert "kernel_backend" not in {entry.name for entry in fields(ExperimentConfig)}
