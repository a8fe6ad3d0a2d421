"""Roofline model (paper §IV-E, Fig. 10).

``attainable(ai) = min(peak_flops, ai * bandwidth)`` with the ridge
point at ``peak/bandwidth``.  The paper plots measured TFLOPS against
the Eq. 3 arithmetic intensity on the A100's 14.7 TFLOPS locked roof.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum

from repro.errors import SimulationError
from repro.gpu.spec import GPUSpec
from repro.utils.validation import check_float

__all__ = ["BoundKind", "Roofline", "RooflinePoint"]


class BoundKind(str, Enum):
    """Which roof limits a kernel at its arithmetic intensity."""

    COMPUTE = "compute-bound"
    MEMORY = "memory-bound"


@dataclass(frozen=True)
class RooflinePoint:
    """One measured/modelled kernel placed on the roofline."""

    label: str
    arithmetic_intensity: float
    achieved_flops: float

    def efficiency_vs(self, roofline: "Roofline") -> float:
        """Achieved FLOPs over the attainable roof at this AI."""
        roof = roofline.attainable(self.arithmetic_intensity)
        return self.achieved_flops / roof if roof else 0.0


@dataclass(frozen=True)
class Roofline:
    """A peak-compute + peak-bandwidth roofline for one GPU."""

    peak_flops: float
    bandwidth_bytes_per_s: float

    def __post_init__(self) -> None:
        for name in ("peak_flops", "bandwidth_bytes_per_s"):
            check_float(name, getattr(self, name), gt=0, error=SimulationError)

    @classmethod
    def for_gpu(cls, spec: GPUSpec, *, locked: bool = True) -> "Roofline":
        """Build the FP32 CUDA-core roofline for a GPU, at the locked
        clock by default (matching the paper's NCU methodology)."""
        peak = spec.locked_peak_flops if locked else spec.peak_fp32_flops
        return cls(peak_flops=peak, bandwidth_bytes_per_s=spec.dram_bytes_per_s)

    @property
    def ridge_point(self) -> float:
        """AI (FLOP/byte) at which the two roofs intersect."""
        return self.peak_flops / self.bandwidth_bytes_per_s

    def attainable(self, arithmetic_intensity: float) -> float:
        """Attainable FLOP/s at the given arithmetic intensity."""
        check_float("arithmetic_intensity", arithmetic_intensity, ge=0, error=SimulationError)
        return min(self.peak_flops, arithmetic_intensity * self.bandwidth_bytes_per_s)

    def bound_kind(self, arithmetic_intensity: float) -> BoundKind:
        """Classify an AI as compute- or memory-bound (the §III-A
        transition the paper's sparsity-aware optimization keys on)."""
        if arithmetic_intensity >= self.ridge_point:
            return BoundKind.COMPUTE
        return BoundKind.MEMORY

    def efficiency(self, arithmetic_intensity: float, achieved_flops: float) -> float:
        """Achieved over attainable at this AI (<= 1 for a sound model)."""
        roof = self.attainable(arithmetic_intensity)
        return achieved_flops / roof if roof else 0.0
