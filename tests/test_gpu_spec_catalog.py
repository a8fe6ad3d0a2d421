"""Unit tests for repro.gpu.spec and repro.gpu.catalog (Table III)."""

import pytest

from repro.errors import ConfigurationError
from repro.gpu.catalog import A100_80G, RTX_3090, RTX_4090, get_gpu, list_gpus, resolve_gpu
from repro.gpu.spec import GPUSpec


def _compute_to_bw_ratio(spec: GPUSpec) -> float:
    """Boost-clock FLOPs per DRAM byte — the paper's observation
    that 3090/4090 have a much larger gap between SM compute power
    and memory bandwidth than A100 (§IV-B)."""
    return spec.peak_fp32_flops / spec.dram_bytes_per_s


class TestTableIII:
    """Every Table III row must be reproduced exactly."""

    def test_a100(self):
        g = A100_80G
        assert g.boost_clock_mhz == 1410
        assert g.peak_fp32_tflops == 19.5
        assert g.num_sms == 108
        assert g.registers_per_sm_kb == 256
        assert g.fp32_cores_per_sm == 64
        assert g.fp32_flops_per_clock_per_sm == 128
        assert g.smem_per_sm_kb == 192
        assert g.l2_cache_mb == 40.0
        assert g.dram_gb == 80
        assert g.dram_bw_gbps == 1935.0

    def test_3090(self):
        g = RTX_3090
        assert g.boost_clock_mhz == 1695
        assert g.peak_fp32_tflops == 35.6
        assert g.num_sms == 82
        assert g.fp32_cores_per_sm == 128
        assert g.smem_per_sm_kb == 128
        assert g.l2_cache_mb == 6.0
        assert g.dram_bw_gbps == 936.0

    def test_4090(self):
        g = RTX_4090
        assert g.boost_clock_mhz == 2520
        assert g.peak_fp32_tflops == 82.6
        assert g.num_sms == 128
        assert g.l2_cache_mb == 72.0
        assert g.dram_bw_gbps == 1008.0

    def test_locked_peak_matches_paper(self):
        """§IV-E: NCU-locked A100 peak is 14.7 TFLOPS."""
        assert A100_80G.locked_peak_flops / 1e12 == pytest.approx(14.7, abs=0.1)


class TestDerivedRates:
    def test_flops_relation(self):
        for g in list_gpus():
            assert g.fp32_flops_per_clock_per_sm == 2 * g.fp32_cores_per_sm

    def test_ridge_point_ordering(self):
        """The paper's §IV-B observation: consumer parts have a much
        larger compute:bandwidth gap than the A100."""
        assert _compute_to_bw_ratio(A100_80G) < _compute_to_bw_ratio(RTX_3090)
        assert _compute_to_bw_ratio(RTX_3090) < _compute_to_bw_ratio(RTX_4090)

    def test_smem_bytes(self):
        assert A100_80G.smem_bytes_per_sm == 192 * 1024

    def test_registers_per_sm(self):
        assert A100_80G.registers_per_sm == 65536

    def test_block_smem_limit(self):
        assert A100_80G.smem_bytes_per_block_limit == 164 * 1024
        assert RTX_3090.smem_bytes_per_block_limit == 100 * 1024


class TestRegistry:
    @pytest.mark.parametrize(
        "alias", ["A100", "a100", "a100-80g", "A100 80G"]
    )
    def test_a100_aliases(self, alias):
        assert get_gpu(alias) is A100_80G

    @pytest.mark.parametrize("alias", ["3090", "rtx3090", "RTX 3090"])
    def test_3090_aliases(self, alias):
        assert get_gpu(alias) is RTX_3090

    def test_unknown_rejected(self):
        with pytest.raises(ConfigurationError, match="unknown GPU"):
            get_gpu("H100")

    def test_list_order(self):
        assert [g.name for g in list_gpus()] == [
            "A100 80G",
            "RTX 3090",
            "RTX 4090",
        ]

    def test_resolve_passthrough(self):
        assert resolve_gpu(A100_80G) is A100_80G
        assert resolve_gpu("4090") is RTX_4090
        with pytest.raises(ConfigurationError):
            resolve_gpu(42)


class TestSpecValidation:
    def test_flops_consistency_enforced(self):
        with pytest.raises(ConfigurationError):
            GPUSpec(
                name="bogus",
                boost_clock_mhz=1000,
                peak_fp32_tflops=10.0,
                num_sms=10,
                registers_per_sm_kb=256,
                fp32_cores_per_sm=64,
                fp32_flops_per_clock_per_sm=100,  # != 2*64
                smem_per_sm_kb=128,
                l2_cache_mb=4.0,
                dram_gb=16,
                dram_bw_gbps=500.0,
            )

    def test_str(self):
        assert "A100" in str(A100_80G)
