"""Unit tests for repro.kernels.thread_grid (Listing 2 indexing)."""

import numpy as np
import pytest

from repro.constants import WARP_SIZE
from repro.errors import ConfigurationError
from repro.kernels.thread_grid import ThreadGrid, thread_offsets
from repro.kernels.tiling import TABLE_I, MatrixSizeClass, TileParams


def _ownership_map(grid: ThreadGrid) -> np.ndarray:
    """``(ms, ns)`` map of which thread owns each C element; every
    element must be owned by exactly one thread."""
    p = grid.params
    owner = np.full((p.ms, p.ns), -1, dtype=np.int64)
    for tid, (ti, tj) in enumerate(grid.all_origins()):
        owner[ti : ti + p.mt, tj : tj + p.nt] = tid
    return owner


def _warp_col_addresses(grid: ThreadGrid, p_step: int) -> list[np.ndarray]:
    """Shared-memory word addresses each warp reads from As (stored
    transposed as ``As[ks][ms]``, Listing 2 signature) for inner
    step ``p_step``: lane reads ``As[p][ti..ti+mt)``."""
    p = grid.params
    per_warp: list[np.ndarray] = []
    for warp_id in range(grid.num_warps):
        addrs = np.empty(WARP_SIZE, dtype=np.int64)
        for lane_id in range(WARP_SIZE):
            ti, _ = grid.thread_tile_origin(warp_id, lane_id)
            addrs[lane_id] = p_step * p.ms + ti
        per_warp.append(addrs)
    return per_warp


@pytest.mark.parametrize("cls", list(MatrixSizeClass))
class TestOwnership:
    def test_every_element_owned_once(self, cls):
        grid = ThreadGrid(TABLE_I[cls])
        owner = _ownership_map(grid)
        assert owner.min() >= 0  # full coverage
        # each thread owns exactly mt*nt elements
        p = TABLE_I[cls]
        counts = np.bincount(owner.ravel(), minlength=grid.num_threads)
        assert np.all(counts == p.mt * p.nt)

    def test_thread_count(self, cls):
        grid = ThreadGrid(TABLE_I[cls])
        assert grid.num_threads == TABLE_I[cls].threads_per_block


class TestIndexing:
    def test_listing2_4x8_example(self):
        """The paper's 4x8 grid: lane tj strides by nt across 8
        columns, ti by mt across 4 rows."""
        p = TABLE_I[MatrixSizeClass.SMALL]  # 4x8 lane grid
        grid = ThreadGrid(p)
        assert grid.lane_grid == (4, 8)
        ti0, tj0 = grid.thread_tile_origin(0, 0)
        ti1, tj1 = grid.thread_tile_origin(0, 1)
        assert (ti0, tj0) == (0, 0)
        assert (ti1, tj1) == (0, p.nt)
        ti8, tj8 = grid.thread_tile_origin(0, 8)
        assert (ti8, tj8) == (p.mt, 0)

    def test_warp_grid(self):
        p = TABLE_I[MatrixSizeClass.LARGE]
        grid = ThreadGrid(p)
        assert grid.warp_grid == (1, 4)
        assert grid.num_warps == 4

    def test_out_of_range_warp(self):
        grid = ThreadGrid(TABLE_I[MatrixSizeClass.SMALL])
        with pytest.raises(ConfigurationError):
            grid.thread_tile_origin(99, 0)

    def test_out_of_range_lane(self):
        grid = ThreadGrid(TABLE_I[MatrixSizeClass.SMALL])
        with pytest.raises(ConfigurationError):
            grid.thread_tile_origin(0, 32)

    def test_offsets_helper(self):
        p = TABLE_I[MatrixSizeClass.SMALL]
        offs = thread_offsets(p)
        assert offs.shape == (p.threads_per_block, 2)
        assert offs.min() >= 0


class TestAddressEnumeration:
    def test_row_addresses_shape(self):
        grid = ThreadGrid(TABLE_I[MatrixSizeClass.SMALL])
        addrs = grid.warp_row_addresses(0)
        assert len(addrs) == grid.num_warps
        assert all(a.shape == (32,) for a in addrs)

    def test_row_addresses_offset_by_step(self):
        p = TABLE_I[MatrixSizeClass.SMALL]
        grid = ThreadGrid(p)
        a0 = grid.warp_row_addresses(0)[0]
        a1 = grid.warp_row_addresses(1)[0]
        assert np.array_equal(a1 - a0, np.full(32, p.ns))

    def test_col_addresses(self):
        p = TABLE_I[MatrixSizeClass.SMALL]
        grid = ThreadGrid(p)
        addrs = _warp_col_addresses(grid, 0)[0]
        assert addrs.min() >= 0
        assert addrs.max() < p.ms

    def test_custom_tile(self):
        p = TileParams(ms=64, ns=64, mr=32, nr=32, mt=8, nt=4, ks=32)
        grid = ThreadGrid(p)
        owner = _ownership_map(grid)
        assert owner.min() >= 0
