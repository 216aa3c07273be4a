"""Tests for the Laplace mechanism."""

from __future__ import annotations

import numpy as np
import pytest

from repro.errors import ValidationError
from repro.privacy.mechanisms import laplace_mechanism, laplace_noise


class TestLaplaceNoise:
    def test_shape(self):
        assert laplace_noise(1.0, 10, seed=0).shape == (10,)

    def test_tuple_shape(self):
        assert laplace_noise(1.0, (3, 4), seed=0).shape == (3, 4)

    def test_scale_matches_distribution(self):
        samples = laplace_noise(2.5, 200_000, seed=1)
        # For Laplace(0, b): E|X| = b and Var = 2b^2.
        assert np.mean(np.abs(samples)) == pytest.approx(2.5, rel=0.02)
        assert np.var(samples) == pytest.approx(2 * 2.5**2, rel=0.05)

    def test_zero_mean(self):
        samples = laplace_noise(1.0, 200_000, seed=2)
        assert np.mean(samples) == pytest.approx(0.0, abs=0.02)

    def test_invalid_scale(self):
        with pytest.raises(ValidationError):
            laplace_noise(0.0, 5)


class TestLaplaceMechanism:
    def test_scalar_in_scalar_out(self):
        value = laplace_mechanism(10.0, sensitivity=1.0, epsilon=1.0, seed=0)
        assert isinstance(value, float)

    def test_vector_shape_preserved(self):
        result = laplace_mechanism(np.zeros(7), 1.0, 0.5, seed=0)
        assert result.shape == (7,)

    def test_deterministic_given_seed(self):
        a = laplace_mechanism(5.0, 1.0, 0.5, seed=42)
        b = laplace_mechanism(5.0, 1.0, 0.5, seed=42)
        assert a == b

    def test_noise_scale_is_sensitivity_over_epsilon(self):
        draws = np.array(
            [laplace_mechanism(0.0, 4.0, 2.0, seed=s) for s in range(40_000)]
        )
        assert np.mean(np.abs(draws)) == pytest.approx(2.0, rel=0.03)

    def test_epsilon_must_be_positive(self):
        with pytest.raises(ValidationError):
            laplace_mechanism(1.0, 1.0, 0.0)

    def test_sensitivity_must_be_positive(self):
        with pytest.raises(ValidationError):
            laplace_mechanism(1.0, 0.0, 1.0)

    def test_unbiased(self):
        draws = np.array(
            [laplace_mechanism(100.0, 1.0, 1.0, seed=s) for s in range(20_000)]
        )
        assert np.mean(draws) == pytest.approx(100.0, abs=0.05)

