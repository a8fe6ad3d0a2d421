"""GPU specification dataclass (paper Table III).

Each field corresponds to a Table III row; derived properties expose
the per-SM and per-cycle rates the analysis model uses (FLOPs/clock/SM,
DRAM bytes per SM-cycle, the compute:bandwidth ridge point).
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.errors import ConfigurationError
from repro.utils.validation import check_float, check_int

__all__ = ["GPUSpec"]


@dataclass(frozen=True)
class GPUSpec:
    """Hardware metrics of one GPU (Table III) plus model parameters.

    Attributes
    ----------
    name:
        Display name ("A100 80G", ...).
    boost_clock_mhz:
        Boost clock; peak TFLOPS is quoted at this clock.
    locked_clock_mhz:
        The clock Nsight Compute locks during profiling.  The paper's
        efficiency numbers are relative to the *locked* peak (14.7
        TFLOPS on A100 vs the 19.5 boost figure, §IV-E).
    peak_fp32_tflops:
        Peak FP32 throughput at boost clock (CUDA cores).
    num_sms:
        Streaming multiprocessor count.
    registers_per_sm_kb:
        Register file per SM.
    fp32_cores_per_sm:
        FP32 lanes per SM.
    fp32_flops_per_clock_per_sm:
        2x cores (FMA counts two FLOPs) — Table III lists it directly.
    smem_per_sm_kb:
        Combined L1/shared-memory capacity per SM.
    l2_cache_mb:
        L2 capacity.
    dram_gb:
        Device memory size.
    dram_bw_gbps:
        Peak DRAM bandwidth (GB/s).
    max_warps_per_sm:
        Scheduler limit (64 on every part here).
    warp_schedulers_per_sm:
        Warp schedulers (instruction issue slots) per SM.
    max_threads_per_block:
        CUDA limit, 1024.
    max_smem_per_block_kb:
        Per-block shared-memory cap (opt-in maximum).
    """

    name: str
    boost_clock_mhz: int
    peak_fp32_tflops: float
    num_sms: int
    registers_per_sm_kb: int
    fp32_cores_per_sm: int
    fp32_flops_per_clock_per_sm: int
    smem_per_sm_kb: int
    l2_cache_mb: float
    dram_gb: int
    dram_bw_gbps: float
    locked_clock_mhz: int = 0
    max_warps_per_sm: int = 64
    warp_schedulers_per_sm: int = 4
    max_threads_per_block: int = 1024
    max_smem_per_block_kb: int = 0
    extras: dict = field(default_factory=dict)

    def __post_init__(self) -> None:
        check_int("boost_clock_mhz", self.boost_clock_mhz, 1)
        check_int("num_sms", self.num_sms, 1)
        check_int("fp32_cores_per_sm", self.fp32_cores_per_sm, 1)
        check_float("peak_fp32_tflops", self.peak_fp32_tflops, gt=0)
        check_float("dram_bw_gbps", self.dram_bw_gbps, gt=0)
        if self.fp32_flops_per_clock_per_sm != 2 * self.fp32_cores_per_sm:
            raise ConfigurationError(
                "fp32_flops_per_clock_per_sm must equal 2*fp32_cores_per_sm "
                f"(FMA = 2 FLOPs): got {self.fp32_flops_per_clock_per_sm} "
                f"vs cores {self.fp32_cores_per_sm}"
            )
        check_int("locked_clock_mhz", self.locked_clock_mhz, 0)
        check_int("max_smem_per_block_kb", self.max_smem_per_block_kb, 0)

    # ------------------------------------------------------------------
    # Clocks and peaks
    # ------------------------------------------------------------------
    @property
    def effective_clock_hz(self) -> float:
        """Clock used for modelling: the NCU-locked clock when known,
        otherwise the boost clock."""
        mhz = self.locked_clock_mhz or self.boost_clock_mhz
        return mhz * 1e6

    @property
    def peak_fp32_flops(self) -> float:
        """Peak FP32 FLOP/s at boost clock."""
        return self.peak_fp32_tflops * 1e12

    @property
    def locked_peak_flops(self) -> float:
        """Peak FP32 FLOP/s at the effective (locked) clock — the
        denominator of the paper's efficiency metric."""
        return (
            self.num_sms
            * self.fp32_flops_per_clock_per_sm
            * self.effective_clock_hz
        )

    @property
    def smem_bytes_per_sm(self) -> int:
        """Shared-memory bytes per SM (the SM_Size of Eq. 4)."""
        return self.smem_per_sm_kb * 1024

    @property
    def smem_bytes_per_block_limit(self) -> int:
        """Per-block shared memory cap; defaults to the SM capacity
        when the part has no tighter opt-in limit recorded."""
        if self.max_smem_per_block_kb:
            return self.max_smem_per_block_kb * 1024
        return self.smem_bytes_per_sm

    @property
    def registers_per_sm(self) -> int:
        """32-bit registers per SM."""
        return self.registers_per_sm_kb * 1024 // 4

    @property
    def l2_bytes(self) -> int:
        return int(self.l2_cache_mb * 1024 * 1024)

    @property
    def dram_bytes_per_s(self) -> float:
        return self.dram_bw_gbps * 1e9

    # ------------------------------------------------------------------
    # Per-cycle rates (per SM)
    # ------------------------------------------------------------------
    @property
    def smem_bytes_per_cycle_per_sm(self) -> float:
        """Shared-memory bandwidth per SM: 32 banks x 4 B per cycle."""
        return 128.0

    def __str__(self) -> str:
        return (
            f"GPUSpec({self.name}: {self.peak_fp32_tflops} TFLOPS, "
            f"{self.num_sms} SMs, {self.dram_bw_gbps} GB/s)"
        )
