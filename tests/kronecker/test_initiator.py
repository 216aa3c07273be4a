"""Tests for the Initiator parameter type."""

from __future__ import annotations

import numpy as np
import pytest

from repro.errors import ValidationError
from repro.kronecker.initiator import Initiator, as_initiator


class TestConstruction:
    def test_valid(self):
        theta = Initiator(0.99, 0.45, 0.25)
        assert (theta.a, theta.b, theta.c) == (0.99, 0.45, 0.25)

    @pytest.mark.parametrize("params", [(1.5, 0, 0), (0, -0.1, 0), (0, 0, 2)])
    def test_out_of_range_rejected(self, params):
        with pytest.raises(ValidationError):
            Initiator(*params)

    def test_boundary_values_allowed(self):
        Initiator(1.0, 0.0, 0.0)
        Initiator(0.0, 1.0, 1.0)

    def test_frozen(self):
        theta = Initiator(0.5, 0.5, 0.5)
        with pytest.raises(AttributeError):
            theta.a = 0.9  # type: ignore[misc]


class TestBehaviour:
    def test_unpacking(self):
        a, b, c = Initiator(0.9, 0.5, 0.1)
        assert (a, b, c) == (0.9, 0.5, 0.1)

    def test_matrix(self):
        matrix = Initiator(0.9, 0.5, 0.1).matrix()
        np.testing.assert_array_equal(matrix, [[0.9, 0.5], [0.5, 0.1]])

    def test_canonical_swaps_when_needed(self):
        theta = Initiator(0.1, 0.5, 0.9).canonical()
        assert theta.a == 0.9
        assert theta.c == 0.1

    def test_canonical_noop_when_ordered(self):
        theta = Initiator(0.9, 0.5, 0.1)
        assert theta.canonical() is theta

    def test_distance_canonicalizes(self):
        assert Initiator(0.1, 0.5, 0.9).distance(Initiator(0.9, 0.5, 0.1)) == 0.0

    def test_sample_convenience(self):
        graph = Initiator(0.9, 0.5, 0.2).sample(4, seed=0)
        assert graph.n_nodes == 16

    def test_repr_contains_values(self):
        assert "0.9900" in repr(Initiator(0.99, 0.45, 0.25))


class TestAsInitiator:
    def test_passthrough(self):
        theta = Initiator(0.5, 0.5, 0.5)
        assert as_initiator(theta) is theta

    def test_from_triple(self):
        theta = as_initiator((0.9, 0.5, 0.1))
        assert theta.b == 0.5

    def test_from_matrix(self):
        theta = as_initiator(np.array([[0.9, 0.5], [0.5, 0.1]]))
        assert (theta.a, theta.b, theta.c) == (0.9, 0.5, 0.1)

    def test_asymmetric_matrix_rejected(self):
        with pytest.raises(ValidationError):
            as_initiator(np.array([[0.9, 0.5], [0.4, 0.1]]))

    def test_bad_shape_rejected(self):
        with pytest.raises(ValidationError):
            as_initiator([0.9, 0.5])
