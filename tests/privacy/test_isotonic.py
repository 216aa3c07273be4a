"""Tests for pool-adjacent-violators isotonic regression."""

from __future__ import annotations

import numpy as np
import pytest
import scipy.optimize
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import ValidationError
from repro.privacy.isotonic import isotonic_regression

float_arrays = st.lists(
    st.floats(min_value=-100, max_value=100, allow_nan=False),
    min_size=1,
    max_size=40,
).map(np.array)


class TestBasicCases:
    def test_sorted_input_unchanged(self):
        values = np.array([1.0, 2.0, 3.0])
        np.testing.assert_array_equal(isotonic_regression(values), values)

    def test_reverse_sorted_becomes_global_mean(self):
        values = np.array([3.0, 2.0, 1.0])
        np.testing.assert_allclose(isotonic_regression(values), [2.0, 2.0, 2.0])

    def test_single_violation_pools_pair(self):
        values = np.array([1.0, 3.0, 2.0, 4.0])
        np.testing.assert_allclose(isotonic_regression(values), [1.0, 2.5, 2.5, 4.0])

    def test_empty(self):
        assert isotonic_regression(np.array([])).size == 0

    def test_single_element(self):
        np.testing.assert_array_equal(isotonic_regression(np.array([5.0])), [5.0])

    def test_constant(self):
        values = np.full(6, 2.5)
        np.testing.assert_array_equal(isotonic_regression(values), values)

    def test_weighted_projection(self):
        # A heavy first element dominates the pooled block mean.
        values = np.array([2.0, 0.0])
        weights = np.array([3.0, 1.0])
        np.testing.assert_allclose(isotonic_regression(values, weights), [1.5, 1.5])

    def test_2d_rejected(self):
        with pytest.raises(ValidationError):
            isotonic_regression(np.zeros((2, 2)))

    def test_weight_shape_mismatch_rejected(self):
        with pytest.raises(ValidationError):
            isotonic_regression(np.zeros(3), np.ones(2))

    def test_nonpositive_weights_rejected(self):
        with pytest.raises(ValidationError):
            isotonic_regression(np.zeros(2), np.array([1.0, 0.0]))


class TestAgainstScipyOracle:
    @given(values=float_arrays)
    @settings(max_examples=60)
    def test_matches_scipy(self, values):
        ours = isotonic_regression(values)
        theirs = scipy.optimize.isotonic_regression(values, increasing=True).x
        np.testing.assert_allclose(ours, theirs, rtol=1e-9, atol=1e-9)


class TestProjectionProperties:
    @given(values=float_arrays)
    @settings(max_examples=60)
    def test_output_is_monotone(self, values):
        result = isotonic_regression(values)
        assert np.all(np.diff(result) >= -1e-9)

    @given(values=float_arrays)
    @settings(max_examples=60)
    def test_sum_preserved(self, values):
        # L2 projection onto the monotone cone preserves the (uniform-
        # weight) total: block means replace block values.
        result = isotonic_regression(values)
        assert result.sum() == pytest.approx(values.sum(), rel=1e-9, abs=1e-6)

    @given(values=float_arrays)
    @settings(max_examples=60)
    def test_idempotent(self, values):
        once = isotonic_regression(values)
        twice = isotonic_regression(once)
        np.testing.assert_allclose(once, twice, rtol=1e-12, atol=1e-12)

    @given(values=float_arrays)
    @settings(max_examples=40)
    def test_never_farther_than_any_monotone_vector(self, values):
        # Projection optimality spot check against the sorted input, which
        # is always a feasible monotone candidate.
        result = isotonic_regression(values)
        candidate = np.sort(values)
        assert np.sum((result - values) ** 2) <= np.sum(
            (candidate - values) ** 2
        ) + 1e-6
