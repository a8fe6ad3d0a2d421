"""Unit tests for the occupancy calculator."""

import pytest

from repro.errors import SimulationError
from repro.gpu.catalog import A100_80G, RTX_3090
from repro.gpu.occupancy import compute_occupancy


class TestLimits:
    def test_warp_slot_limit(self):
        # tiny blocks, tiny resources -> block cap binds first (32)
        occ = compute_occupancy(A100_80G, 32, 16, 0)
        assert occ.blocks_per_sm == 32
        assert occ.limiter == "block cap"

    def test_register_limit(self):
        # 128 regs x 256 threads = 32768 regs/block; A100 has 65536
        occ = compute_occupancy(A100_80G, 256, 128, 0)
        assert occ.blocks_per_sm == 2
        assert occ.limiter == "registers"

    def test_smem_limit(self):
        occ = compute_occupancy(A100_80G, 128, 32, 96 * 1024)
        assert occ.blocks_per_sm == 2
        assert occ.limiter == "shared memory"

    def test_warps_limit(self):
        occ = compute_occupancy(A100_80G, 1024, 32, 0)
        # 32 warps/block, 64 warp slots -> 2 blocks
        assert occ.blocks_per_sm == 2
        assert occ.warps_per_sm == 64
        assert occ.occupancy == 1.0


class TestErrors:
    def test_non_warp_multiple_rejected(self):
        with pytest.raises(SimulationError):
            compute_occupancy(A100_80G, 100, 32, 0)

    def test_too_many_threads_rejected(self):
        with pytest.raises(SimulationError):
            compute_occupancy(A100_80G, 2048, 32, 0)

    def test_register_overflow_rejected(self):
        with pytest.raises(SimulationError):
            compute_occupancy(A100_80G, 1024, 255, 0)

    def test_smem_overflow_rejected(self):
        with pytest.raises(SimulationError):
            compute_occupancy(A100_80G, 128, 32, 200 * 1024)


class TestOccupancyValues:
    def test_fraction(self):
        occ = compute_occupancy(A100_80G, 128, 64, 48 * 1024)
        assert 0 < occ.occupancy <= 1.0
        assert occ.warps_per_sm == occ.blocks_per_sm * 4

    def test_3090_smaller_smem(self):
        a = compute_occupancy(A100_80G, 128, 64, 60 * 1024)
        b = compute_occupancy(RTX_3090, 128, 64, 60 * 1024)
        assert a.blocks_per_sm >= b.blocks_per_sm

    def test_registers_reduce_occupancy(self):
        """§III-B2: more registers per thread -> lower occupancy."""
        lo = compute_occupancy(A100_80G, 256, 40, 0)
        hi = compute_occupancy(A100_80G, 256, 200, 0)
        assert hi.blocks_per_sm <= lo.blocks_per_sm
