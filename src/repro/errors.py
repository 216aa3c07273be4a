"""Exception hierarchy for :mod:`repro`.

Every error raised by the library derives from :class:`ReproError`, so
callers can catch library failures with a single ``except`` clause while
still being able to distinguish the finer-grained categories below.
"""

from __future__ import annotations

__all__ = [
    "ReproError",
    "GraphFormatError",
    "ValidationError",
    "EstimationError",
    "NotFittedError",
    "PrivacyError",
    "PrivacyBudgetError",
    "DatasetError",
    "KernelUnavailableError",
]


class ReproError(Exception):
    """Base class for all errors raised by the :mod:`repro` library."""


class ValidationError(ReproError, ValueError):
    """An argument failed validation (wrong range, shape, or type)."""


class GraphFormatError(ReproError, ValueError):
    """An edge list or adjacency structure could not be interpreted."""


class EstimationError(ReproError, RuntimeError):
    """A parameter-estimation procedure failed to produce an estimate."""


class NotFittedError(EstimationError):
    """An estimator was queried for results before :meth:`fit` was called."""


class PrivacyError(ReproError, RuntimeError):
    """A differential-privacy invariant would be violated."""


class PrivacyBudgetError(PrivacyError):
    """The requested computation exceeds the remaining privacy budget."""


class DatasetError(ReproError, KeyError):
    """An unknown dataset name was requested from the registry."""


class KernelUnavailableError(ReproError, RuntimeError):
    """A native kernel could not be compiled, loaded or smoke-tested (the
    message names why); every pipeline stage needs its kernel."""
