"""Tests for comparison metrics."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import ValidationError
from repro.stats.comparison import (
    ks_distance,
    log_series_distance,
    relative_error,
)


class TestRelativeError:
    def test_exact_match(self):
        assert relative_error(5.0, 5.0) == 0.0

    def test_zero_truth_bounded(self):
        assert relative_error(3.0, 0.0) == 3.0

    def test_symmetric_magnitude(self):
        assert relative_error(8.0, 10.0) == pytest.approx(0.2)


class TestKsDistance:
    def test_identical_samples(self):
        samples = np.array([1, 2, 2, 3])
        assert ks_distance(samples, samples) == 0.0

    def test_disjoint_supports(self):
        assert ks_distance(np.zeros(5), np.ones(5)) == 1.0

    def test_empty_rejected(self):
        with pytest.raises(ValidationError):
            ks_distance(np.array([]), np.array([1.0]))

    def test_matches_scipy(self):
        scipy_stats = pytest.importorskip("scipy.stats")
        rng = np.random.default_rng(0)
        a = rng.normal(size=200)
        b = rng.normal(0.5, size=150)
        ours = ks_distance(a, b)
        theirs = scipy_stats.ks_2samp(a, b).statistic
        assert ours == pytest.approx(theirs, abs=1e-12)

    @given(
        a=st.lists(st.integers(min_value=0, max_value=20), min_size=1, max_size=50),
        b=st.lists(st.integers(min_value=0, max_value=20), min_size=1, max_size=50),
    )
    @settings(max_examples=40)
    def test_bounds_and_symmetry(self, a, b):
        distance = ks_distance(np.array(a), np.array(b))
        assert 0.0 <= distance <= 1.0
        assert distance == pytest.approx(ks_distance(np.array(b), np.array(a)))


class TestLogSeriesDistance:
    def test_identical_series(self):
        xs = np.array([1.0, 10.0, 100.0])
        ys = np.array([5.0, 2.0, 0.5])
        assert log_series_distance(xs, ys, xs, ys) == pytest.approx(0.0, abs=1e-12)

    def test_constant_factor_is_log_gap(self):
        xs = np.array([1.0, 10.0, 100.0])
        ys = np.array([5.0, 2.0, 0.5])
        distance = log_series_distance(xs, ys, xs, 10 * ys)
        assert distance == pytest.approx(1.0, rel=1e-9)

    def test_disjoint_supports_nan(self):
        d = log_series_distance(
            np.array([1.0, 2.0]), np.array([1.0, 1.0]),
            np.array([100.0, 200.0]), np.array([1.0, 1.0]),
        )
        assert np.isnan(d)

    def test_nonpositive_points_dropped(self):
        xs = np.array([0.0, 1.0, 10.0])
        ys = np.array([5.0, 2.0, 0.5])
        distance = log_series_distance(xs, ys, xs[1:], ys[1:])
        assert distance == pytest.approx(0.0, abs=1e-12)
