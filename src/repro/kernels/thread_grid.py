"""Warp/thread-to-tile mapping (paper Listing 2 ``ThreadIndexing``).

A thread block computes a ``ms x ns`` tile of C.  Warps tile it in a
``(ms/mr) x (ns/nr)`` grid; the 32 lanes of each warp tile the warp's
``mr x nr`` region in an ``(mr/mt) x (nr/nt)`` grid of ``mt x nt``
thread tiles.  Listing 2 shows the 4x8 arrangement; this module
generalises it to any grid whose row*col product is 32 and provides the
address enumeration the bank-conflict simulator consumes.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.constants import WARP_SIZE
from repro.errors import ConfigurationError
from repro.kernels.tiling import TileParams

__all__ = ["ThreadGrid", "thread_offsets"]


@dataclass(frozen=True)
class ThreadGrid:
    """Enumeration of the block's warp and lane geometry."""

    params: TileParams

    @property
    def warp_grid(self) -> tuple[int, int]:
        """Warps per block as ``(rows, cols)``."""
        p = self.params
        return p.ms // p.mr, p.ns // p.nr

    @property
    def lane_grid(self) -> tuple[int, int]:
        """Lanes per warp as ``(rows, cols)`` — e.g. 4x8."""
        p = self.params
        return p.mr // p.mt, p.nr // p.nt

    @property
    def num_warps(self) -> int:
        rows, cols = self.warp_grid
        return rows * cols

    @property
    def num_threads(self) -> int:
        return self.num_warps * WARP_SIZE

    def thread_tile_origin(self, warp_id: int, lane_id: int) -> tuple[int, int]:
        """Return ``(ti, tj)`` — the block-relative origin of the
        ``mt x nt`` tile owned by ``(warp_id, lane_id)``.

        This is Listing 2's ``ThreadIndexing`` generalised: the 4x8
        example there corresponds to ``lane_grid == (4, 8)`` and a 2x2
        warp grid.
        """
        p = self.params
        wrows, wcols = self.warp_grid
        lrows, lcols = self.lane_grid
        if not (0 <= warp_id < self.num_warps):
            raise ConfigurationError(
                f"warp_id {warp_id} out of range [0, {self.num_warps})"
            )
        if not (0 <= lane_id < WARP_SIZE):
            raise ConfigurationError(f"lane_id {lane_id} out of range [0, 32)")
        warp_row, warp_col = divmod(warp_id, wcols)
        lane_row, lane_col = divmod(lane_id, lcols)
        ti = warp_row * p.mr + lane_row * p.mt
        tj = warp_col * p.nr + lane_col * p.nt
        return ti, tj

    def all_origins(self) -> np.ndarray:
        """``(num_threads, 2)`` array of (ti, tj) per linear thread id."""
        out = np.empty((self.num_threads, 2), dtype=np.int64)
        for tid in range(self.num_threads):
            warp_id, lane_id = divmod(tid, WARP_SIZE)
            out[tid] = self.thread_tile_origin(warp_id, lane_id)
        return out

    def warp_row_addresses(self, p_step: int) -> list[np.ndarray]:
        """Shared-memory *word* addresses each warp reads from Bs for
        one inner-kernel step ``p_step`` (row ``p`` of Bs, Listing 2
        line 11).  Returned per warp as the 32 lanes' first-word
        addresses; consumed by the bank-conflict simulator."""
        p = self.params
        per_warp: list[np.ndarray] = []
        for warp_id in range(self.num_warps):
            addrs = np.empty(WARP_SIZE, dtype=np.int64)
            for lane_id in range(WARP_SIZE):
                _, tj = self.thread_tile_origin(warp_id, lane_id)
                addrs[lane_id] = p_step * p.ns + tj
            per_warp.append(addrs)
        return per_warp


def thread_offsets(params: TileParams) -> np.ndarray:
    """Convenience wrapper: ``(num_threads, 2)`` (ti, tj) origins."""
    return ThreadGrid(params).all_origins()
