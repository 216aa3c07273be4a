"""Oracle of the KronMom kernel: every refinement restart in Python.

:class:`ReferenceKronMomEstimator` runs each Nelder–Mead restart on
``kronmom._nelder_mead`` over the float objective, the path the
estimator takes only for a restart the kernel flags; both give the same
bits.
"""

from __future__ import annotations

from repro.kronecker.kronmom import KronMomEstimator

__all__ = ["ReferenceKronMomEstimator"]


class ReferenceKronMomEstimator(KronMomEstimator):
    """:class:`KronMomEstimator` whose refinement never calls the kernel."""

    def _restart_runs(self, starts, observed, k: int) -> list:
        return [None] * len(starts)
