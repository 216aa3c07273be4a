"""Tests for k-edge privacy arithmetic."""

from __future__ import annotations

import math

import pytest

from repro.errors import ValidationError
from repro.privacy.k_edge import (
    KEdgeGuarantee,
    k_edge_guarantee,
    per_edge_budget_for_group,
)


class TestKEdgeGuarantee:
    def test_composition_scaling(self):
        # Group privacy for approximate DP: (kε, k·e^{(k−1)ε}·δ).
        guarantee = k_edge_guarantee(0.2, 0.01, 5)
        assert guarantee.epsilon == pytest.approx(1.0)
        assert guarantee.delta == pytest.approx(5 * math.exp(0.8) * 0.01)
        assert guarantee.delta == pytest.approx(0.111, abs=5e-4)
        assert guarantee.k == 5

    @pytest.mark.parametrize("k", [1, 2, 5, 10])
    def test_delta_covers_the_chained_neighbour_steps(self, k):
        """Chaining k neighbour steps picks up e^{iε}·δ at step i + 1."""
        epsilon, delta = 0.3, 1e-3
        chained = sum(math.exp(i * epsilon) * delta for i in range(k))
        assert k_edge_guarantee(epsilon, delta, k).delta >= chained * (1 - 1e-12)

    def test_k_one_is_identity(self):
        guarantee = k_edge_guarantee(0.3, 0.02, 1)
        assert guarantee.epsilon == 0.3
        assert guarantee.delta == 0.02

    def test_describe(self):
        text = k_edge_guarantee(0.1, 0.0, 3).describe()
        assert "groups of up to 3" in text

    def test_invalid_k(self):
        with pytest.raises(ValidationError):
            k_edge_guarantee(0.1, 0.0, 0)

    def test_negative_epsilon_rejected(self):
        with pytest.raises(ValidationError):
            k_edge_guarantee(-0.1, 0.0, 2)


class TestPerEdgeBudget:
    def test_inverse_of_composition(self):
        epsilon, delta = per_edge_budget_for_group(1.0, 0.05, 5)
        guarantee = k_edge_guarantee(epsilon, delta, 5)
        assert guarantee.epsilon == pytest.approx(1.0)
        assert guarantee.delta == pytest.approx(0.05)

    def test_node_cover_use_case(self):
        # Cover nodes of degree up to 9 -> groups of k = 10 edges.
        epsilon, delta = per_edge_budget_for_group(2.0, 0.1, 10)
        assert epsilon == pytest.approx(0.2)
        assert delta == pytest.approx(0.1 / (10 * math.exp(1.8)))

    def test_frozen(self):
        guarantee = KEdgeGuarantee(1, 0.1, 0.0)
        with pytest.raises(AttributeError):
            guarantee.epsilon = 1.0  # type: ignore[misc]
