"""Argument validation helpers.

Centralising the checks keeps kernel and simulator code free of
boilerplate and makes error messages uniform: a field checked by two
constructors is refused with the same words by both, and every message
names the offending parameter.  Each scalar rule takes the error class
to raise (``error=``), so every package raises its own
:class:`~repro.errors.ReproError` subclass from the one rule, and
``optional=True`` lets ``None`` through.
"""

from __future__ import annotations

import math
from typing import Collection, TypeVar

import numpy as np

from repro.errors import ConfigurationError, ReproError, ShapeError

__all__ = [
    "is_int",
    "check_int",
    "check_float",
    "check_choice",
    "check_type",
    "check_multiple_of",
    "check_divides",
    "check_matrix",
    "check_real",
    "check_weights",
]

_REAL_TYPES = (int, float, np.integer, np.floating)
_T = TypeVar("_T")


def is_int(value: object) -> bool:
    """``value`` is a Python or NumPy integer (``bool`` excluded)."""
    return not isinstance(value, bool) and isinstance(value, (int, np.integer))


def check_int(
    name: str,
    value: object,
    low: int,
    high: "int | None" = None,
    *,
    error: type[ReproError] = ConfigurationError,
    optional: bool = False,
) -> "int | None":
    """Validate an integer ``low <= value`` (and ``<= high`` when given;
    ``bool`` is not an integer here) and return it as ``int``."""
    if optional and value is None:
        return None
    if is_int(value) and low <= value and (high is None or value <= high):
        return int(value)
    bound = f">= {low}" if high is None else f">= {low} and <= {high}"
    alt = " or None" if optional else ""
    raise error(f"{name} must be an integer {bound}{alt}, got {value!r}")


def check_float(
    name: str,
    value: object,
    *,
    gt: "float | None" = None,
    ge: "float | None" = None,
    lt: "float | None" = None,
    le: "float | None" = None,
    error: type[ReproError] = ConfigurationError,
    optional: bool = False,
) -> "float | None":
    """Validate a finite real number inside the open (``gt``/``lt``)
    or closed (``ge``/``le``) bounds given and return it unchanged.
    NaN, ±inf, ``bool`` and non-numbers are refused."""
    if optional and value is None:
        return value
    if (
        not isinstance(value, bool)
        and isinstance(value, _REAL_TYPES)
        and (is_int(value) or math.isfinite(value))
        and (gt is None or value > gt)
        and (ge is None or value >= ge)
        and (lt is None or value < lt)
        and (le is None or value <= le)
    ):
        return value
    bound = " and".join(
        f" {op} {limit:g}"
        for op, limit in ((">", gt), (">=", ge), ("<", lt), ("<=", le))
        if limit is not None
    )
    alt = " or None" if optional else ""
    raise error(f"{name} must be a finite number{bound}{alt}, got {value!r}")


def check_choice(
    name: str,
    value: _T,
    choices: "Collection[object]",
    *,
    error: type[ReproError] = ConfigurationError,
) -> _T:
    """Validate that ``value`` is one of ``choices`` and return it."""
    try:
        if not isinstance(value, bool) and value in choices:
            return value
    except (TypeError, ValueError):  # unhashable, or an array's truth value
        pass
    raise error(f"unknown {name} {value!r}; expected one of {tuple(choices)}")


def check_type(
    name: str,
    value: object,
    types: "type | tuple[type, ...]",
    *,
    error: type[ReproError] = ConfigurationError,
    optional: bool = False,
) -> object:
    """Validate that ``value`` is an instance of ``types`` and return it."""
    if (optional and value is None) or isinstance(value, types):
        return value
    names = " or ".join(t.__name__ for t in (types if isinstance(types, tuple) else (types,)))
    alt = " or None" if optional else ""
    raise error(f"{name} must be {names}{alt}, got {value!r}")


def check_multiple_of(name: str, value: int, multiple: int) -> int:
    """Validate that ``value`` is a positive multiple of ``multiple``."""
    value = check_int(name, value, 1)
    if value % multiple != 0:
        raise ConfigurationError(f"{name} must be a multiple of {multiple}, got {value}")
    return value


def check_divides(name_a: str, a: int, name_b: str, b: int) -> None:
    """Validate that ``a`` divides ``b`` exactly."""
    check_int(name_a, a, 1)
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
