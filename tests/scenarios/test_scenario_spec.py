"""Tests for the declarative scenario descriptions."""

from __future__ import annotations

import numpy as np
import pytest

from repro.errors import ValidationError
from repro.scenarios.spec import (
    EstimatorSpec,
    ScenarioSpec,
    SeedPolicy,
    as_params,
    fixed_seeds,
    spawn_seeds,
)


class TestParams:
    def test_as_params_sorts_by_name(self):
        assert as_params({"b": 2, "a": 1}) == (("a", 1), ("b", 2))

    def test_as_params_merges_extra(self):
        assert as_params({"a": 1}, b=2) == (("a", 1), ("b", 2))

    def test_round_trip(self):
        payload = {"x": 1, "y": (2, 3)}
        assert dict(as_params(payload)) == payload

    def test_order_independent_equality(self):
        assert as_params({"a": 1, "b": 2}) == as_params({"b": 2, "a": 1})


class TestEstimatorSpec:
    def test_create_normalizes(self):
        spec = EstimatorSpec.create("KronFit", n_iterations=5, backend="auto")
        assert spec.method == "KronFit"
        assert dict(spec.params) == {"n_iterations": 5, "backend": "auto"}

    def test_hashable(self):
        assert hash(EstimatorSpec.create("KronMom")) is not None


class TestSeedPolicy:
    def test_default_spawns_without_root(self):
        policy = SeedPolicy()
        assert policy.root_seed() is None
        assert policy.trial_seed(0) is None

    def test_spawn_with_entropy_has_deterministic_root(self):
        a = spawn_seeds(1, 2, 3).root_seed()
        b = spawn_seeds(1, 2, 3).root_seed()
        assert isinstance(a, np.random.SeedSequence)
        assert a.entropy == b.entropy

    def test_fixed_pins_trial_seeds(self):
        policy = fixed_seeds(7, 8, 9)
        assert policy.root_seed() is None
        assert [policy.trial_seed(i) for i in range(3)] == [7, 8, 9]

    def test_invalid_kind_rejected(self):
        with pytest.raises(ValidationError, match="seed policy"):
            SeedPolicy(kind="lottery")


class TestScenarioSpec:
    def make(self, **overrides):
        base = dict(
            name="test",
            workload="ca-grqc",
            estimator=EstimatorSpec.create("KronMom"),
            ensemble_size=2,
            seed_policy=fixed_seeds(0, 1),
        )
        base.update(overrides)
        return ScenarioSpec(**base)

    def test_valid_spec(self):
        assert self.make().ensemble_size == 2

    def test_fixed_seed_count_must_match_ensemble(self):
        with pytest.raises(ValidationError, match="fixed seed policy"):
            self.make(ensemble_size=3)

    def test_ensemble_size_must_be_positive(self):
        with pytest.raises(ValidationError):
            self.make(ensemble_size=0, seed_policy=fixed_seeds())

    def test_hashable_and_frozen(self):
        spec = self.make()
        assert hash(spec) is not None
        with pytest.raises(AttributeError):
            spec.name = "other"
