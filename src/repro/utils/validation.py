"""Argument validation helpers.

Centralising the checks keeps kernel and simulator code free of
boilerplate and makes error messages uniform (they always name the
offending parameter).
"""

from __future__ import annotations

import numpy as np

from repro.errors import ConfigurationError, ReproError, ShapeError

__all__ = [
    "is_int",
    "check_positive_int",
    "check_non_negative_int",
    "check_in_range",
    "check_multiple_of",
    "check_divides",
    "check_matrix",
    "check_real",
    "check_weights",
    "check_fraction",
]


def is_int(value: object) -> bool:
    """``value`` is a Python or NumPy integer (``bool`` excluded)."""
    return not isinstance(value, bool) and isinstance(value, (int, np.integer))


def check_positive_int(name: str, value: object) -> int:
    """Validate that ``value`` is a positive integer and return it."""
    if isinstance(value, bool) or not isinstance(value, (int, np.integer)):
        raise ConfigurationError(f"{name} must be an int, got {type(value).__name__}")
    if value <= 0:
        raise ConfigurationError(f"{name} must be positive, got {value}")
    return int(value)


def check_non_negative_int(name: str, value: object) -> int:
    """Validate that ``value`` is a non-negative integer and return it."""
    if isinstance(value, bool) or not isinstance(value, (int, np.integer)):
        raise ConfigurationError(f"{name} must be an int, got {type(value).__name__}")
    if value < 0:
        raise ConfigurationError(f"{name} must be non-negative, got {value}")
    return int(value)


def check_in_range(name: str, value: float, low: float, high: float) -> float:
    """Validate ``low <= value <= high`` and return ``value`` as float."""
    value = float(value)
    if not (low <= value <= high):
        raise ConfigurationError(f"{name} must be in [{low}, {high}], got {value}")
    return value


def check_fraction(name: str, value: float) -> float:
    """Validate that ``value`` is a fraction in [0, 1]."""
    return check_in_range(name, value, 0.0, 1.0)


def check_multiple_of(name: str, value: int, multiple: int) -> int:
    """Validate that ``value`` is a positive multiple of ``multiple``."""
    value = check_positive_int(name, value)
    if value % multiple != 0:
        raise ConfigurationError(f"{name} must be a multiple of {multiple}, got {value}")
    return value


def check_divides(name_a: str, a: int, name_b: str, b: int) -> None:
    """Validate that ``a`` divides ``b`` exactly."""
    if a <= 0:
        raise ConfigurationError(f"{name_a} must be positive, got {a}")
    if b % a != 0:
        raise ConfigurationError(f"{name_a}={a} must divide {name_b}={b}")


def check_matrix(name: str, array: np.ndarray, *, dtype: type | None = None) -> np.ndarray:
    """Validate that ``array`` is a 2-D ndarray (optionally of ``dtype``)."""
    if not isinstance(array, np.ndarray):
        raise ShapeError(f"{name} must be a numpy ndarray, got {type(array).__name__}")
    if array.ndim != 2:
        raise ShapeError(f"{name} must be 2-D, got shape {array.shape}")
    if dtype is not None and array.dtype != np.dtype(dtype):
        raise ShapeError(f"{name} must have dtype {np.dtype(dtype)}, got {array.dtype}")
    return array


def check_real(
    name: str, array: np.ndarray, *, error: type[ReproError] = ShapeError
) -> np.ndarray:
    """Validate that ``array`` holds real numbers (an integer or float
    dtype) before anything converts it to float: a complex array would
    lose its imaginary part with a warning, and strings would be parsed
    as numbers or fail inside NumPy.  Raises ``error``."""
    if array.dtype.kind not in "iuf":
        raise error(f"{name} must be real numbers, got dtype {array.dtype}")
    return array


def check_weights(name: str, array: np.ndarray) -> np.ndarray:
    """Validate a dense weight matrix: a 2-D ndarray of real numbers
    with at least one row and column.  Raises :class:`ShapeError`."""
    array = check_real(name, check_matrix(name, array))
    if not array.size:
        raise ShapeError(
            f"{name} must have at least one row and column, got shape {array.shape}"
        )
    return array
