"""Array tiling and padding helpers.

The blocked kernels (paper Listings 1-4) walk matrices tile by tile;
these helpers provide the tile iteration, padding to window multiples
(§II-A: "We assume k is divisible by M and n by L; otherwise, padding
is applied"), and window splitting used by the sparsity format code.
"""

from __future__ import annotations

from collections.abc import Iterator

import numpy as np

from repro.utils.intmath import ceil_div, round_up
from repro.utils.validation import check_choice, check_int, check_matrix

__all__ = [
    "pad_to_multiple",
    "iter_tiles",
    "tile_count",
    "split_into_windows",
    "as_f32",
    "as_f32_any_order",
]


def as_f32(array: np.ndarray) -> np.ndarray:
    """Return ``array`` as a C-contiguous float32 matrix (no copy when
    already in that form)."""
    return np.ascontiguousarray(array, dtype=np.float32)


def as_f32_any_order(array: np.ndarray) -> np.ndarray:
    """Return ``array`` as a C- or F-contiguous float32 matrix.

    Like :func:`as_f32`, except that an F-contiguous input keeps its
    order: an F-ordered float32 matrix comes back as is (a feature-major
    ``(m, k)`` view of a ``(k, m)`` A^T is not copied), and one of
    another dtype is converted in F order.  Anything else goes through
    :func:`as_f32`.
    """
    if array.flags.f_contiguous:
        return np.asfortranarray(array, dtype=np.float32)
    return as_f32(array)


def pad_to_multiple(
    array: np.ndarray,
    row_multiple: int = 1,
    col_multiple: int = 1,
    fill: float = 0.0,
) -> np.ndarray:
    """Zero-pad a 2-D array so each dimension is a multiple of the given
    value.  Returns the input unchanged when no padding is needed.

    >>> pad_to_multiple(np.ones((3, 5), dtype=np.float32), 4, 4).shape
    (4, 8)
    """
    check_matrix("array", array)
    check_int("row_multiple", row_multiple, 1)
    check_int("col_multiple", col_multiple, 1)
    rows, cols = array.shape
    new_rows = round_up(rows, row_multiple) if rows else row_multiple
    new_cols = round_up(cols, col_multiple) if cols else col_multiple
    if new_rows == rows and new_cols == cols:
        return array
    out = np.full((new_rows, new_cols), fill, dtype=array.dtype)
    out[:rows, :cols] = array
    return out


def tile_count(extent: int, tile: int) -> int:
    """Number of tiles of size ``tile`` covering ``extent`` (last one may
    be partial)."""
    check_int("tile", tile, 1)
    return ceil_div(extent, tile) if extent > 0 else 0


def iter_tiles(extent: int, tile: int) -> Iterator[tuple[int, int]]:
    """Yield ``(start, stop)`` half-open ranges tiling ``[0, extent)``.

    >>> list(iter_tiles(10, 4))
    [(0, 4), (4, 8), (8, 10)]
    """
    check_int("tile", tile, 1)
    start = 0
    while start < extent:
        stop = min(start + tile, extent)
        yield start, stop
        start = stop


def split_into_windows(array: np.ndarray, window: int, axis: int = 0) -> np.ndarray:
    """Reshape a matrix into fixed-size windows along ``axis``.

    For ``axis=0`` and a ``(k, n)`` input with ``k = g*window`` this
    returns a ``(g, window, n)`` view — the pruning-window grouping of
    matrix B in Fig. 1.
    """
    check_matrix("array", array)
    check_int("window", window, 1)
    check_choice("axis", axis, (0, 1))
    extent = array.shape[axis]
    if extent % window != 0:
        raise ValueError(
            f"axis {axis} extent {extent} is not divisible by window {window}; pad first"
        )
    groups = extent // window
    if axis == 0:
        return array.reshape(groups, window, array.shape[1])
    return array.reshape(array.shape[0], groups, window).transpose(1, 0, 2)
