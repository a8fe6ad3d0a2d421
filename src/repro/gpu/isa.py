"""Instruction classes and per-GPU issue/latency model.

The pipeline simulator reasons about five instruction families — the
same ones the paper's Figs. 5/6 draw:

* ``FFMA``  — FP32 fused multiply-add (the Comp. stage);
* ``LDS``   — shared-memory load (Ls2r);
* ``LDG``   — global-memory load (Lg2s, via L2/DRAM);
* ``STS``   — shared-memory store (the staging half of Lg2s);
* ``STG``   — global store of results (Lr2g).

Rates are per SM per cycle at warp granularity: an SM that can retire
``fp32_cores/32`` warp-FMA instructions per cycle has ``issue_rate``
of that many warp instructions.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum

from repro.constants import WARP_SIZE
from repro.gpu.spec import GPUSpec

__all__ = ["InstructionClass", "IssueModel", "issue_model_for"]


class InstructionClass(str, Enum):
    FFMA = "ffma"
    LDS = "lds"
    LDG = "ldg"
    STS = "sts"
    STG = "stg"


@dataclass(frozen=True)
class IssueModel:
    """Warp-instruction throughput and latency per class on one GPU.

    ``warp_fma_per_cycle`` — warp-wide FMA instructions an SM retires
    per cycle (cores / 32).
    ``lds_bytes_per_cycle`` — shared-memory bandwidth per SM.
    ``ldg_latency`` / ``lds_latency`` — issue-to-use latencies in
    cycles, used to size software-pipeline fill costs.
    """

    warp_fma_per_cycle: float
    lds_bytes_per_cycle: float
    sts_bytes_per_cycle: float
    ldg_latency_cycles: int
    lds_latency_cycles: int
    ffma_latency_cycles: int
    issue_slots_per_cycle: int

    def fma_cycles(self, warp_fma_instructions: float) -> float:
        """Cycles to retire the given number of warp-FMA instructions."""
        return warp_fma_instructions / self.warp_fma_per_cycle

    def lds_cycles(self, bytes_read: float, conflict_mult: float = 1.0) -> float:
        """Cycles of shared-memory read bandwidth, inflated by bank
        conflicts."""
        return bytes_read * conflict_mult / self.lds_bytes_per_cycle


def issue_model_for(spec: GPUSpec) -> IssueModel:
    """Derive the issue model from a :class:`GPUSpec`.

    Latencies are the published instruction latencies for Ampere/Ada
    (FFMA ~4 cycles, LDS ~22-30, LDG ~400-600 to DRAM); they only
    shape pipeline *fill* terms, not steady-state throughput, so the
    model is insensitive to the exact values.
    """
    return IssueModel(
        warp_fma_per_cycle=spec.fp32_cores_per_sm / WARP_SIZE,
        lds_bytes_per_cycle=spec.smem_bytes_per_cycle_per_sm,
        sts_bytes_per_cycle=spec.smem_bytes_per_cycle_per_sm,
        ldg_latency_cycles=500,
        lds_latency_cycles=25,
        ffma_latency_cycles=4,
        issue_slots_per_cycle=spec.warp_schedulers_per_sm,
    )
