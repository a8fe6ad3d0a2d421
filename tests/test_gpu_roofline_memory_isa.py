"""Unit tests for roofline, memory hierarchy and ISA models."""

import pytest

from repro.errors import SimulationError
from repro.gpu.catalog import A100_80G, RTX_3090, RTX_4090, list_gpus
from repro.gpu.isa import issue_model_for
from repro.gpu.memory import MemoryHierarchy, fits_smem_budget, smem_footprint_bytes
from repro.gpu.roofline import BoundKind, Roofline, RooflinePoint
from repro.kernels.tiling import TABLE_I, MatrixSizeClass
from repro.sparsity.config import NMPattern


class TestRoofline:
    def test_a100_ridge(self):
        roof = Roofline.for_gpu(A100_80G)
        # 14.7 TF / 1935 GB/s ~ 7.6 FLOP/B
        assert roof.ridge_point == pytest.approx(7.6, abs=0.2)

    def test_attainable_below_ridge(self):
        roof = Roofline.for_gpu(A100_80G)
        ai = 1.0
        assert roof.attainable(ai) == pytest.approx(ai * 1935e9)

    def test_attainable_above_ridge(self):
        roof = Roofline.for_gpu(A100_80G)
        assert roof.attainable(100.0) == roof.peak_flops

    def test_bound_kinds(self):
        roof = Roofline.for_gpu(A100_80G)
        assert roof.bound_kind(1.0) is BoundKind.MEMORY
        assert roof.bound_kind(100.0) is BoundKind.COMPUTE

    def test_boost_roofline_higher(self):
        locked = Roofline.for_gpu(A100_80G, locked=True)
        boost = Roofline.for_gpu(A100_80G, locked=False)
        assert boost.peak_flops > locked.peak_flops

    def test_negative_ai_rejected(self):
        roof = Roofline.for_gpu(A100_80G)
        with pytest.raises(SimulationError):
            roof.attainable(-1.0)

    def test_point_efficiency(self):
        roof = Roofline.for_gpu(A100_80G)
        p = RooflinePoint("x", 100.0, roof.peak_flops / 2)
        assert p.efficiency_vs(roof) == pytest.approx(0.5)

    def test_efficiency_helper(self):
        roof = Roofline.for_gpu(A100_80G)
        assert roof.efficiency(100.0, roof.peak_flops) == pytest.approx(1.0)


class TestSmemFootprint:
    def test_eq4_structure(self):
        pattern = NMPattern(16, 32, vector_length=32)
        params = TABLE_I[MatrixSizeClass.LARGE].with_ks(
            pattern, A100_80G.smem_bytes_per_sm, 4096
        )
        fp = smem_footprint_bytes(pattern, params)
        ws, qs = params.ws(pattern), params.qs(pattern)
        expected = 4 * (params.ks * params.ms + ws * params.ns) + ws * qs
        assert fp == expected

    def test_packed_smaller_at_high_sparsity(self):
        pattern = NMPattern(4, 32, vector_length=32)
        params = TABLE_I[MatrixSizeClass.LARGE].with_ks(
            pattern, A100_80G.smem_bytes_per_sm, 4096
        )
        assert smem_footprint_bytes(pattern, params, packed=True) < (
            smem_footprint_bytes(pattern, params, packed=False)
        )

    def test_double_buffer_doubles(self):
        pattern = NMPattern(16, 32, vector_length=32)
        params = TABLE_I[MatrixSizeClass.SMALL].with_ks(
            pattern, A100_80G.smem_bytes_per_sm, 1024
        )
        single = smem_footprint_bytes(pattern, params)
        double = smem_footprint_bytes(pattern, params, double_buffered=True)
        assert double == 2 * single

    def test_budget_check(self):
        pattern = NMPattern(16, 32, vector_length=32)
        params = TABLE_I[MatrixSizeClass.SMALL].with_ks(
            pattern, A100_80G.smem_bytes_per_sm, 512
        )
        assert fits_smem_budget(pattern, params, A100_80G)


class TestMemoryHierarchy:
    def test_dram_efficiency(self):
        mh = MemoryHierarchy(A100_80G, dram_efficiency=0.8)
        assert mh.achievable_dram_bytes_per_s == pytest.approx(1935e9 * 0.8)


class TestIssueModel:
    def test_a100_warp_fma_rate(self):
        model = issue_model_for(A100_80G)
        assert model.warp_fma_per_cycle == 2.0  # 64 cores / 32

    def test_consumer_warp_fma_rate(self):
        assert issue_model_for(RTX_3090).warp_fma_per_cycle == 4.0
        assert issue_model_for(RTX_4090).warp_fma_per_cycle == 4.0

    def test_fma_cycles(self):
        model = issue_model_for(A100_80G)
        assert model.fma_cycles(100) == pytest.approx(50.0)

    def test_lds_cycles_with_conflicts(self):
        model = issue_model_for(A100_80G)
        base = model.lds_cycles(1280)
        assert model.lds_cycles(1280, conflict_mult=2.0) == pytest.approx(2 * base)

    def test_all_gpus_have_issue_models(self):
        for g in list_gpus():
            m = issue_model_for(g)
            assert m.issue_slots_per_cycle == 4
