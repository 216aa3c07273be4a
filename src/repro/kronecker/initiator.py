"""The 2×2 symmetric Kronecker initiator matrix Θ = [[a, b], [b, c]].

Following the paper (§3.4) and Gleich & Owen, the model space is restricted
to symmetric 2×2 initiators with entries in [0, 1] and the identifiability
convention ``a ≥ c`` (swapping a and c relabels nodes by complementing
their bits, producing the same distribution on graphs up to isomorphism —
:meth:`Initiator.canonical` applies the convention).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterator

import numpy as np

from repro.errors import ValidationError
from repro.utils.validation import check_in_unit_interval

__all__ = ["Initiator", "as_initiator"]


@dataclass(frozen=True)
class Initiator:
    """Immutable 2×2 symmetric stochastic-Kronecker initiator.

    Iterating an ``Initiator`` yields ``(a, b, c)``, so instances unpack
    anywhere a parameter triple is accepted.

    >>> theta = Initiator(0.99, 0.45, 0.25)
    >>> a, b, c = theta
    >>> theta.matrix().shape
    (2, 2)
    """

    a: float
    b: float
    c: float

    def __post_init__(self) -> None:
        object.__setattr__(self, "a", check_in_unit_interval(self.a, "a"))
        object.__setattr__(self, "b", check_in_unit_interval(self.b, "b"))
        object.__setattr__(self, "c", check_in_unit_interval(self.c, "c"))

    def __iter__(self) -> Iterator[float]:
        return iter((self.a, self.b, self.c))

    def matrix(self) -> np.ndarray:
        """The 2×2 matrix [[a, b], [b, c]] as float64."""
        return np.array([[self.a, self.b], [self.b, self.c]], dtype=np.float64)

    def canonical(self) -> "Initiator":
        """The equivalent initiator with ``a >= c`` (identifiability)."""
        if self.a >= self.c:
            return self
        return Initiator(self.c, self.b, self.a)

    def sample(self, k: int, seed=None):
        """Sample one undirected SKG realization of order ``k``.

        Convenience wrapper around :func:`repro.kronecker.sampling.sample_skg`.
        """
        from repro.kronecker.sampling import sample_skg

        return sample_skg(self, k, seed=seed)

    def distance(self, other: "Initiator") -> float:
        """Max-abs parameter difference after canonicalizing both sides."""
        mine = self.canonical()
        theirs = other.canonical()
        return max(
            abs(mine.a - theirs.a), abs(mine.b - theirs.b), abs(mine.c - theirs.c)
        )

    def __repr__(self) -> str:
        return f"Initiator(a={self.a:.4f}, b={self.b:.4f}, c={self.c:.4f})"


def as_initiator(value) -> Initiator:
    """Coerce an ``Initiator``, an (a, b, c) triple, or a 2×2 symmetric
    matrix into an :class:`Initiator`."""
    if isinstance(value, Initiator):
        return value
    array = np.asarray(value, dtype=np.float64)
    if array.shape == (3,):
        return Initiator(float(array[0]), float(array[1]), float(array[2]))
    if array.shape == (2, 2):
        if not np.isclose(array[0, 1], array[1, 0]):
            raise ValidationError(
                f"initiator matrix must be symmetric, got off-diagonals "
                f"{array[0, 1]!r} and {array[1, 0]!r}"
            )
        return Initiator(float(array[0, 0]), float(array[0, 1]), float(array[1, 1]))
    raise ValidationError(
        f"cannot interpret {value!r} as an initiator: expected Initiator, "
        "(a, b, c), or a 2x2 symmetric matrix"
    )
