"""Tests for the Laplace noise path every release draws through."""

from __future__ import annotations

import numpy as np
import pytest

from repro.errors import ValidationError
from repro.privacy.mechanisms import laplace_noise


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

    def test_deterministic_given_seed(self):
        a = laplace_noise(2.0, 5, seed=42)
        b = laplace_noise(2.0, 5, seed=42)
        assert np.array_equal(a, b)
        assert not np.array_equal(a, laplace_noise(2.0, 5, seed=43))

    # A release's scale is sensitivity / epsilon: a zero or negative
    # sensitivity, or a zero epsilon (infinite scale), must be refused.
    @pytest.mark.parametrize("scale", [0.0, -1.0, np.inf, np.nan])
    def test_invalid_scale(self, scale):
        with pytest.raises(ValidationError):
            laplace_noise(scale, 5)
