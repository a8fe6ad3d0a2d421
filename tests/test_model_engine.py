"""Unit tests for the kernel performance engine."""

import pytest

from repro.errors import SimulationError
from repro.gpu.catalog import A100_80G, RTX_3090
from repro.kernels.tiling import TABLE_I, MatrixSizeClass
from repro.model.calibration import calibration_for
from repro.model.engine import KernelSimulator, simulate_nm_spmm
from repro.model.profiles import profile_for_version
from repro.model.workload import ProblemShape, SparseProblem
from repro.sparsity.config import NMPattern


class TestSimulateEntry:
    def test_basic_report(self):
        rep = simulate_nm_spmm(4096, 4096, 4096, NMPattern(8, 32, 32), "A100")
        assert rep.seconds > 0
        assert rep.tflops > 0
        assert rep.kernel == "NM-SpMM V3"
        assert rep.gpu == "A100 80G"

    def test_unknown_version_rejected(self):
        with pytest.raises(ValueError):
            simulate_nm_spmm(
                512, 512, 512, NMPattern(8, 32, 32), "A100", version="V9"
            )

    def test_efficiency_below_one(self):
        rep = simulate_nm_spmm(4096, 4096, 4096, NMPattern(8, 32, 32), "A100")
        assert 0 < rep.efficiency_vs(A100_80G) < 1.0

    def test_custom_params_honoured(self):
        params = TABLE_I[MatrixSizeClass.SMALL]
        rep = simulate_nm_spmm(
            4096, 4096, 4096, NMPattern(8, 32, 32), "A100", params=params
        )
        assert "ms32ns32" in rep.params_label

    def test_unresolved_ks_rejected_by_run(self):
        sim = KernelSimulator.for_gpu("A100")
        problem = SparseProblem(ProblemShape(512, 512, 512), NMPattern(8, 32, 32))
        profile = profile_for_version("V3", sim.calib, high_sparsity=True)
        with pytest.raises(SimulationError):
            sim.run(problem, TABLE_I[MatrixSizeClass.SMALL], profile)


class TestScalingBehaviour:
    def test_time_scales_with_problem(self):
        small = simulate_nm_spmm(512, 512, 512, NMPattern(8, 32, 32), "A100")
        large = simulate_nm_spmm(4096, 4096, 4096, NMPattern(8, 32, 32), "A100")
        assert large.seconds > small.seconds

    def test_sparsity_speeds_up(self):
        """More sparsity -> less compute -> faster (V3, big matrix)."""
        times = []
        for n, m in [(16, 32), (8, 32), (4, 32)]:
            rep = simulate_nm_spmm(
                4096, 4096, 4096, NMPattern(n, m, 32), "A100"
            )
            times.append(rep.seconds)
        assert times == sorted(times, reverse=True)

    def test_v3_never_slower_than_v1(self):
        for n in (16, 8, 4):
            pattern = NMPattern(n, 32, 32)
            v1 = simulate_nm_spmm(4096, 4096, 4096, pattern, "A100", version="V1")
            v3 = simulate_nm_spmm(4096, 4096, 4096, pattern, "A100", version="V3")
            assert v3.seconds <= v1.seconds

    def test_v2_between_v1_and_v3_high_sparsity(self):
        pattern = NMPattern(4, 32, 32)
        v1 = simulate_nm_spmm(4096, 4096, 4096, pattern, "A100", version="V1")
        v2 = simulate_nm_spmm(4096, 4096, 4096, pattern, "A100", version="V2")
        v3 = simulate_nm_spmm(4096, 4096, 4096, pattern, "A100", version="V3")
        assert v3.seconds <= v2.seconds <= v1.seconds

    def test_small_matrix_lower_efficiency(self):
        """Wave quantization + launch overhead hurt small problems."""
        small = simulate_nm_spmm(256, 512, 512, NMPattern(8, 32, 32), "A100")
        large = simulate_nm_spmm(4096, 4096, 4096, NMPattern(8, 32, 32), "A100")
        assert small.efficiency_vs(A100_80G) < large.efficiency_vs(A100_80G)

    def test_3090_less_efficient_at_high_sparsity(self):
        """§IV-B: constrained bandwidth on consumer parts."""
        pattern = NMPattern(4, 32, 32)
        a100 = simulate_nm_spmm(4096, 4096, 4096, pattern, "A100")
        r3090 = simulate_nm_spmm(4096, 4096, 4096, pattern, "3090")
        assert r3090.efficiency_vs(RTX_3090) < a100.efficiency_vs(A100_80G)


class TestReportInternals:
    def test_stage_breakdown_consistency(self):
        rep = simulate_nm_spmm(4096, 4096, 4096, NMPattern(8, 32, 32), "A100")
        st = rep.stages
        assert st.total_s == pytest.approx(rep.seconds, rel=1e-6)
        assert st.limiter in ("compute", "memory")
        assert st.memory_s == max(st.dram_s, st.l2_s)

    def test_waves_and_blocks(self):
        rep = simulate_nm_spmm(4096, 4096, 4096, NMPattern(8, 32, 32), "A100")
        assert rep.total_blocks == 64 * 32
        assert rep.waves >= 1
        assert rep.blocks_per_sm >= 1

    def test_ai_positive(self):
        rep = simulate_nm_spmm(4096, 4096, 4096, NMPattern(8, 32, 32), "A100")
        assert rep.arithmetic_intensity > 0

    def test_summary_text(self):
        rep = simulate_nm_spmm(512, 512, 512, NMPattern(8, 32, 32), "A100")
        s = rep.summary()
        assert "NM-SpMM" in s and "ms" in s

    def test_calibration_override(self):
        calib = calibration_for(A100_80G).with_overrides(launch_overhead_s=1.0)
        rep = simulate_nm_spmm(
            512, 512, 512, NMPattern(8, 32, 32), "A100", calib=calib
        )
        assert rep.seconds > 1.0
