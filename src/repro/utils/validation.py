"""Argument-validation helpers.

These raise :class:`repro.errors.ValidationError` with messages that name
the offending argument, so failures surface at API boundaries rather than
deep inside numerical code.
"""

from __future__ import annotations

import math
from typing import Any

import numpy as np

from repro.errors import ValidationError

__all__ = [
    "check_in_unit_interval",
    "check_positive",
    "check_nonnegative",
    "check_integer",
    "check_probability_matrix",
]


def check_in_unit_interval(value: float, name: str) -> float:
    """Validate that ``value`` is a finite float in [0, 1] and return it."""
    value = _as_finite_float(value, name)
    if not 0.0 <= value <= 1.0:
        raise ValidationError(f"{name} must lie in [0, 1], got {value!r}")
    return value


def check_positive(value: float, name: str) -> float:
    """Validate that ``value`` is a finite float > 0 and return it."""
    value = _as_finite_float(value, name)
    if value <= 0.0:
        raise ValidationError(f"{name} must be positive, got {value!r}")
    return value


def check_nonnegative(value: float, name: str) -> float:
    """Validate that ``value`` is a finite float >= 0 and return it."""
    value = _as_finite_float(value, name)
    if value < 0.0:
        raise ValidationError(f"{name} must be non-negative, got {value!r}")
    return value


def check_integer(
    value: Any, name: str, *, minimum: int | None = None, maximum: int | None = None
) -> int:
    """Validate that ``value`` is integral (optionally within ``[minimum, maximum]``)."""
    if isinstance(value, bool) or not isinstance(value, (int, np.integer)):
        raise ValidationError(f"{name} must be an integer, got {value!r}")
    value = int(value)
    if minimum is not None and value < minimum:
        raise ValidationError(f"{name} must be >= {minimum}, got {value}")
    if maximum is not None and value > maximum:
        raise ValidationError(f"{name} must be <= {maximum}, got {value}")
    return value


def check_probability_matrix(matrix: np.ndarray, name: str) -> np.ndarray:
    """Validate a square matrix with entries in [0, 1]; return as float64."""
    matrix = np.asarray(matrix, dtype=np.float64)
    if matrix.ndim != 2 or matrix.shape[0] != matrix.shape[1]:
        raise ValidationError(f"{name} must be a square matrix, got shape {matrix.shape}")
    if not np.all(np.isfinite(matrix)):
        raise ValidationError(f"{name} must contain only finite entries")
    if matrix.min() < 0.0 or matrix.max() > 1.0:
        raise ValidationError(f"{name} entries must lie in [0, 1]")
    return matrix


def _as_finite_float(value: Any, name: str) -> float:
    if isinstance(value, bool):
        raise ValidationError(f"{name} must be a real number, got {value!r}")
    try:
        value = float(value)
    except (TypeError, ValueError) as exc:
        raise ValidationError(f"{name} must be a real number, got {value!r}") from exc
    if not math.isfinite(value):
        raise ValidationError(f"{name} must be finite, got {value!r}")
    return value
