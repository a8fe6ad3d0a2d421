"""Offline pre-processing for the high-sparsity packing strategy.

Paper §III-C1 / Fig. 4 / Listing 3 ``PreProcessing``: before launching
the packed kernel we compute, per (k-block, n-block) tile of the
compressed matrix:

1. ``col_info`` — the sorted set of A-tile columns actually touched by
   the tile's pruning windows (``queryColInfo``);
2. a *reordered* index matrix whose entries address positions inside
   the packed A tile rather than slots of the pruning window
   (``reoderingIdx``);
3. an interleaved data layout for D to coalesce global memory
   transactions (``transformLayout``).

During online computation the kernel packs ``As`` through ``col_info``,
shrinking its shared-memory footprint from ``ms*ks`` towards
``ms*ws`` and raising arithmetic intensity (the V2 optimization).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.constants import FP32_BYTES
from repro.errors import CompressionError
from repro.sparsity.compress import NMCompressedMatrix
from repro.sparsity.config import NMPattern
from repro.utils.intmath import ceil_div

__all__ = [
    "ColumnInfo",
    "preprocess_offline",
    "query_col_info",
    "expected_packed_fraction",
    "packed_fraction_bounds",
]


def expected_packed_fraction(pattern: NMPattern, qs: int) -> float:
    """Expected fraction of A-tile columns needed after packing, under
    uniformly random independent window patterns.

    Each of the ``qs`` pruning windows in a tile row keeps ``N`` of the
    ``M`` slots, so a slot survives none of them with probability
    ``(1 - N/M)^qs``; the expected packed width is therefore
    ``M * (1 - (1 - N/M)^qs)`` per window, i.e. this fraction of ks.
    """
    if qs <= 0:
        raise ValueError(f"qs must be positive, got {qs}")
    return 1.0 - (1.0 - pattern.density) ** qs


def packed_fraction_bounds(pattern: NMPattern, qs: int) -> tuple[float, float]:
    """(best, worst) packed-column fraction.

    Best case — all ``qs`` windows share one pattern — needs only
    ``N/M`` of the columns (§III-C1: "When the pattern of each pruning
    window is identical, the memory access minimize to N/M").  Worst
    case — fully disjoint patterns — needs ``min(1, qs*N/M)``.
    """
    best = pattern.density
    worst = min(1.0, qs * pattern.density)
    return best, worst


def query_col_info(
    pattern: NMPattern, d_tile: np.ndarray, base_row: int
) -> tuple[np.ndarray, np.ndarray]:
    """Compute ``col_info`` and the reordered local indices for one
    tile of D.

    Parameters
    ----------
    d_tile:
        ``(ws_b, qs_b)`` slice of the index matrix (rows ``base_row``
        onward).
    base_row:
        First compressed row of the tile (must be window-aligned,
        i.e. a multiple of N).

    Returns
    -------
    cols:
        Sorted unique tile-relative A columns (int32), the packed
        column order.
    local:
        ``(ws_b, qs_b)`` int32 — each entry rewritten as its position
        in ``cols`` (the ``reoderingIdx`` output).
    """
    if base_row % pattern.n != 0:
        raise CompressionError(
            f"tile base row {base_row} is not aligned to N={pattern.n}"
        )
    ws_b = d_tile.shape[0]
    u = base_row + np.arange(ws_b, dtype=np.int64)[:, None]
    tile_k_origin = (base_row // pattern.n) * pattern.m
    rel_rows = (u // pattern.n) * pattern.m - tile_k_origin + d_tile.astype(np.int64)
    cols = np.unique(rel_rows)
    local = np.searchsorted(cols, rel_rows).astype(np.int32)
    return cols.astype(np.int32), local


@dataclass(frozen=True)
class ColumnInfo:
    """Per-tile packing metadata for a compressed matrix.

    ``cols[kb][jb]`` holds the packed column list for k-block ``kb`` and
    n-block ``jb``; ``local_d[kb][jb]`` the reordered index tile whose
    entries address rows of the *packed* A tile.
    """

    pattern: NMPattern
    ws: int
    ns: int
    cols: tuple[tuple[np.ndarray, ...], ...]
    local_d: tuple[tuple[np.ndarray, ...], ...]

    @property
    def num_k_blocks(self) -> int:
        return len(self.cols)

    def col_info_bytes(self) -> int:
        """Extra global memory the packing metadata occupies — the
        paper bounds this at "1% to 10% GPU memory overhead"."""
        return sum(int(c.size) * FP32_BYTES for row in self.cols for c in row)


def preprocess_offline(
    compressed: NMCompressedMatrix, ws: int, ns: int
) -> ColumnInfo:
    """Run the full offline pre-processing pass of Listing 3 for a
    ``(ws, ns)`` block decomposition of the compressed matrix."""
    pattern = compressed.pattern
    if ws % pattern.n != 0:
        raise CompressionError(
            f"ws={ws} must be a multiple of N={pattern.n} so pruning windows "
            "do not straddle block boundaries"
        )
    if ns % pattern.vector_length != 0:
        raise CompressionError(
            f"ns={ns} must be a multiple of L={pattern.vector_length}"
        )
    w, n = compressed.w, compressed.n
    qs = ns // pattern.vector_length
    num_kb = ceil_div(w, ws)
    num_jb = ceil_div(n, ns)
    cols_rows: list[tuple[np.ndarray, ...]] = []
    local_rows: list[tuple[np.ndarray, ...]] = []
    for kb in range(num_kb):
        u0 = kb * ws
        u1 = min(u0 + ws, w)
        cols_row: list[np.ndarray] = []
        local_row: list[np.ndarray] = []
        for jb in range(num_jb):
            j0 = jb * qs
            j1 = min(j0 + qs, compressed.q)
            d_tile = compressed.indices[u0:u1, j0:j1]
            cols, local = query_col_info(pattern, d_tile, u0)
            cols_row.append(cols)
            local_row.append(local)
        cols_rows.append(tuple(cols_row))
        local_rows.append(tuple(local_row))
    return ColumnInfo(
        pattern=pattern,
        ws=ws,
        ns=ns,
        cols=tuple(cols_rows),
        local_d=tuple(local_rows),
    )
