"""Calibration constants for the performance model.

Every constant that is *not* derived from first principles lives here,
with the observation that anchors it.  Nothing is per-figure: the same
constants serve all experiments, so a change here shifts every figure
consistently (as real hardware behaviour would).

Anchors from the paper:

* A100 efficiency at 0% sparsity ~ cuBLAS (Fig. 7);
* V3 roofline efficiencies 96/93/95/88% at 50/62.5/75/87.5% (§IV-E);
* nmSPARSE roofline efficiencies 64/63/49/73% (§IV-E);
* headline A100 speedups over cuBLAS 1.8/2.4/3.5/6.3x (§IV-D) and
  over nmSPARSE 1.5/1.8/1.5/1.2x;
* smaller sparse gains on 3090/4090 (§IV-B, §IV-D).
"""

from __future__ import annotations

from dataclasses import dataclass, replace

from repro.errors import CalibrationError
from repro.gpu.spec import GPUSpec
from repro.utils.validation import check_float

__all__ = ["Calibration", "calibration_for", "DEFAULT_CALIBRATION"]


@dataclass(frozen=True)
class Calibration:
    """Tunable model constants (see module docstring for anchors)."""

    #: Sustained fraction of peak DRAM bandwidth for streaming tile
    #: loads (STREAM-like; NVIDIA parts sustain 80-90% of peak).
    dram_efficiency: float = 0.85

    #: Fraction of L2 usable for cross-block residency of the
    #: compressed operand (the rest holds A tiles in flight, C
    #: write-back, metadata).
    l2_usable_fraction: float = 0.75

    #: L2-to-SM bandwidth as a multiple of peak DRAM bandwidth
    #: (Ampere/Ada sustain roughly 2-3x DRAM out of L2).
    l2_bw_multiple: float = 2.5

    #: Peak global-load bytes one SM can pull per core cycle (LSU/miss
    #: path); limits small launches that cannot saturate DRAM.
    per_sm_ldg_bytes_per_cycle: float = 64.0

    #: Peak L2->SM staging bytes per SM per cycle.
    per_sm_l2_bytes_per_cycle: float = 128.0

    #: Cycles of exposed latency per main-loop iteration in the
    #: synchronous (V1/V2, Listing 1) schedule: the LDG->STS->__sync
    #: barrier sequence that double buffering (V3, Listing 4) removes.
    sync_exposure_cycles: float = 1600.0

    #: Fraction of streaming bandwidth the synchronous schedule
    #: sustains: without async copies the barrier drains the memory
    #: pipeline every iteration (the latency-hiding deficit V3 fixes).
    sync_load_bw_factor: float = 0.65

    #: Extra exposure multiplier when the packed path runs under the
    #: synchronous schedule (V2): the col_info -> As load-load
    #: dependency of §III-C2 is serialized until V3's pipeline hides it.
    packed_sync_exposure_scale: float = 1.6

    #: Residual non-overlapped fraction of the shorter stage under the
    #: V3 double-buffered pipeline (sync + issue gaps).
    v3_residual_exposure: float = 0.06

    #: Extra warp instructions per inner-kernel step per warp spent on
    #: index handling (Ds reads + address arithmetic) without (V1/V2)
    #: and with (V3) register prefetching of indices.
    aux_instr_per_step_v1v2: float = 2.0
    aux_instr_per_step_v3: float = 0.75

    #: Kernel launch + epilogue overhead per launch, seconds.
    launch_overhead_s: float = 4.0e-6

    #: Pipeline fill: global-load latency paid once per block wave
    #: (cycles).
    fill_latency_cycles: float = 1200.0

    #: Issue efficiency of a well-tuned from-scratch inner kernel
    #: (Listing 2/4) and of vendor cuBLAS kernels.
    nm_issue_efficiency: float = 0.95
    cublas_issue_efficiency: float = 0.97

    #: nmSPARSE modelling: its kernels gather only the needed A vectors
    #: (their VW format) but with smaller tiles, a shallow fixed ``ks``
    #: and none of the hierarchical reuse of §III-B, so their gathered
    #: traffic is inflated by this locality factor; they also run a
    #: weaker inner kernel (4x4 thread tiles, CMAR 2) under a partially
    #: pipelined schedule.
    nmsparse_a_traffic_factor: float = 2.0
    nmsparse_issue_efficiency: float = 0.65
    nmsparse_sync_exposure_scale: float = 1.0
    nmsparse_load_bw_factor: float = 0.8
    nmsparse_fixed_ks: int = 128

    #: Sputnik modelling: unstructured CSR, 1-wide vectors — sustains a
    #: low fraction of FP32 peak (its published SpMM numbers) plus
    #: sector-inflated gather traffic.  Because its row-product kernels
    #: are gather-bandwidth bound, the sustainable FLOP rate is also
    #: capped at ``sputnik_ai_cap`` FLOPs per DRAM byte — this is what
    #: keeps it slow on the bandwidth-starved consumer parts.
    sputnik_issue_efficiency: float = 0.19
    sputnik_gather_inflation: float = 2.0
    sputnik_ai_cap_flop_per_byte: float = 2.5

    def __post_init__(self) -> None:
        for name, low, high in [
            ("dram_efficiency", 0.3, 1.0),
            ("l2_usable_fraction", 0.1, 1.0),
            ("l2_bw_multiple", 1.0, 6.0),
            ("per_sm_ldg_bytes_per_cycle", 16.0, 256.0),
            ("per_sm_l2_bytes_per_cycle", 32.0, 512.0),
            ("v3_residual_exposure", 0.0, 0.5),
            ("cublas_issue_efficiency", 0.5, 1.0),
            ("nm_issue_efficiency", 0.5, 1.0),
            ("nmsparse_issue_efficiency", 0.2, 1.0),
            ("sputnik_issue_efficiency", 0.05, 1.0),
            ("sync_load_bw_factor", 0.2, 1.0),
            ("nmsparse_load_bw_factor", 0.2, 1.0),
            ("sync_exposure_cycles", 0.0, None),
            ("fill_latency_cycles", 0.0, None),
        ]:
            check_float(name, getattr(self, name), ge=low, le=high, error=CalibrationError)

    def with_overrides(self, **kwargs: float) -> "Calibration":
        """Return a copy with selected constants replaced (used by the
        ablation benchmarks)."""
        return replace(self, **kwargs)


DEFAULT_CALIBRATION = Calibration()

#: Per-GPU overrides.  The consumer parts sustain a slightly lower
#: fraction of their paper bandwidth under mixed read/write streams.
_PER_GPU: dict[str, Calibration] = {
    "A100 80G": DEFAULT_CALIBRATION,
    "RTX 3090": DEFAULT_CALIBRATION.with_overrides(dram_efficiency=0.82),
    "RTX 4090": DEFAULT_CALIBRATION.with_overrides(dram_efficiency=0.82),
}


def calibration_for(spec: GPUSpec) -> Calibration:
    """Calibration constants for a GPU (falls back to defaults)."""
    return _PER_GPU.get(spec.name, DEFAULT_CALIBRATION)
