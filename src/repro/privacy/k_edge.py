"""k-edge differential privacy (Hay et al., discussed in the paper's §4.1).

Two graphs are *k-edge neighbours* when |V ⊕ V′| + |E ⊕ E′| ≤ k, i.e. they
differ in up to k edges (and/or isolated-node insertions).  The paper
notes that a 1-edge guarantee extends to k-edge neighbours, which also
yields a *weak form of node privacy*: a degree-d node's entire
neighbourhood is covered by taking k = d + 1.  The paper gives no
formula for δ; the bound used here is the group-privacy lemma for
approximate DP (Vadhan, "The Complexity of Differential Privacy", 2017):
an (ε, δ)-DP mechanism is (kε, k·e^{(k−1)ε}·δ)-DP for groups of k, since
chaining k neighbour steps multiplies the δ picked up at step i by
e^{(i−1)ε}, and Σ_{i<k} e^{iε} ≤ k·e^{(k−1)ε}.

These helpers make that arithmetic explicit, including its inverse: how
much per-edge budget to request so that a *group* guarantee holds.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from repro.utils.validation import check_integer, check_nonnegative

__all__ = ["KEdgeGuarantee", "k_edge_guarantee", "per_edge_budget_for_group"]


@dataclass(frozen=True)
class KEdgeGuarantee:
    """An (ε, δ) guarantee at a given neighbourhood granularity.

    Attributes
    ----------
    k:
        Neighbourhood size: guarantees hold between graphs differing in up
        to ``k`` edges.
    epsilon, delta:
        The privacy parameters at that granularity.
    """

    k: int
    epsilon: float
    delta: float

    def describe(self) -> str:
        """One-line rendering, e.g. for release documentation."""
        return (
            f"({self.epsilon:g}, {self.delta:g})-differential privacy for "
            f"groups of up to {self.k} edge(s)"
        )


def k_edge_guarantee(epsilon: float, delta: float, k: int) -> KEdgeGuarantee:
    """The k-edge guarantee implied by a 1-edge (ε, δ) guarantee:
    (kε, k·e^{(k−1)ε}·δ).

    >>> k_edge_guarantee(0.2, 0.01, 5).describe()
    '(1, 0.111277)-differential privacy for groups of up to 5 edge(s)'
    """
    epsilon = check_nonnegative(epsilon, "epsilon")
    delta = check_nonnegative(delta, "delta")
    k = check_integer(k, "k", minimum=1)
    return KEdgeGuarantee(
        k=k, epsilon=k * epsilon, delta=k * math.exp((k - 1) * epsilon) * delta
    )


def per_edge_budget_for_group(
    target_epsilon: float, target_delta: float, k: int
) -> tuple[float, float]:
    """Per-edge (ε, δ) to request so a k-edge target guarantee holds.

    Useful when a curator wants node-level cover for nodes of degree up to
    ``k - 1``: run the estimator with the returned (stricter) parameters
    and publish the ``target`` guarantee for k-edge groups.  The inverse
    of :func:`k_edge_guarantee`: ε = ε_T/k and δ = δ_T / (k·e^{(k−1)ε}).

    >>> epsilon, delta = per_edge_budget_for_group(1.0, 0.05, 5)
    >>> epsilon, round(delta, 6)
    (0.2, 0.004493)
    """
    target_epsilon = check_nonnegative(target_epsilon, "target_epsilon")
    target_delta = check_nonnegative(target_delta, "target_delta")
    k = check_integer(k, "k", minimum=1)
    epsilon = target_epsilon / k
    return epsilon, target_delta / (k * math.exp((k - 1) * epsilon))
