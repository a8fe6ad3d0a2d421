"""Timing outputs: stage breakdowns and the kernel report.

A :class:`KernelReport` is what every benchmark consumes: modelled
time, useful TFLOPS, efficiency against the locked peak (the paper's
Figs. 7/8 metric), roofline placement (Fig. 10), and the stage
decomposition behind the number.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.gpu.roofline import BoundKind, Roofline
from repro.gpu.spec import GPUSpec
from repro.model.events import TrafficBreakdown

__all__ = ["StageBreakdown", "KernelReport"]


@dataclass(frozen=True)
class StageBreakdown:
    """Seconds attributed to each modelled mechanism.

    ``compute`` and ``memory`` are the two pipelined stages (only the
    max of the two binds in a fully overlapped schedule); ``exposure``
    is the serialized residue (sync barriers for V1/V2, residual gaps
    for V3); ``fill`` the pipeline warm-up per wave; ``launch`` the
    fixed API overhead.
    """

    compute_s: float
    dram_s: float
    l2_s: float
    exposure_s: float
    fill_s: float
    launch_s: float

    @property
    def memory_s(self) -> float:
        """The binding memory-path time."""
        return max(self.dram_s, self.l2_s)

    @property
    def overlapped_s(self) -> float:
        """Steady-state pipelined time."""
        return max(self.compute_s, self.memory_s)

    @property
    def total_s(self) -> float:
        return self.overlapped_s + self.exposure_s + self.fill_s + self.launch_s

    @property
    def limiter(self) -> str:
        """Which stage binds the steady state."""
        return "compute" if self.compute_s >= self.memory_s else "memory"


@dataclass(frozen=True)
class KernelReport:
    """Full modelled outcome of one kernel launch."""

    kernel: str
    gpu: str
    problem: str
    seconds: float
    useful_flops: float
    traffic: TrafficBreakdown
    stages: StageBreakdown
    occupancy: float
    blocks_per_sm: int
    total_blocks: int
    iterations: int
    waves: int
    params_label: str
    notes: str = ""

    # ------------------------------------------------------------------
    # Headline metrics
    # ------------------------------------------------------------------
    @property
    def tflops(self) -> float:
        """Useful (non-pruned) TFLOP/s."""
        return self.useful_flops / self.seconds / 1e12

    def efficiency_vs(self, spec: GPUSpec) -> float:
        """Fraction of the locked FP32 peak sustained — the paper's
        efficiency axis (Figs. 7/8)."""
        return self.useful_flops / self.seconds / spec.locked_peak_flops

    @property
    def arithmetic_intensity(self) -> float:
        """FLOPs per staged byte (x4 gives Eq. 3's element AI)."""
        return self.traffic.arithmetic_intensity(self.useful_flops)

    def roofline_point(self, spec: GPUSpec) -> tuple[float, float]:
        """(AI FLOP/byte, achieved FLOP/s) for Fig. 10."""
        return self.arithmetic_intensity, self.useful_flops / self.seconds

    def bound_kind(self, spec: GPUSpec) -> BoundKind:
        roof = Roofline.for_gpu(spec)
        return roof.bound_kind(self.arithmetic_intensity)

    def efficiency_vs_roofline(self, spec: GPUSpec) -> float:
        """Achieved FLOPs over the roofline attainable at this AI
        (the §IV-E percentages)."""
        roof = Roofline.for_gpu(spec)
        attainable = roof.attainable(self.arithmetic_intensity)
        return self.useful_flops / self.seconds / attainable if attainable else 0.0

    def summary(self) -> str:
        return (
            f"{self.kernel} on {self.gpu} [{self.problem}]: "
            f"{self.seconds * 1e3:.3f} ms, {self.tflops:.2f} TFLOPS "
            f"(limited by {self.stages.limiter})"
        )
