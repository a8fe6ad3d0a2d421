"""Memory-hierarchy model: shared-memory budget rule and L2 behaviour.

Wraps the Eq. 4 shared-memory constraint and the L2 parameters the
traffic model needs.  The *usable* L2 fraction is below 1.0 because
real kernels share L2 with write-back traffic and metadata — the value
is a calibration constant (see :mod:`repro.model.calibration`).
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.constants import FP32_BYTES, SMEM_USABLE_FRACTION
from repro.gpu.spec import GPUSpec
from repro.kernels.tiling import TileParams
from repro.sparsity.config import NMPattern

__all__ = ["MemoryHierarchy", "smem_footprint_bytes", "fits_smem_budget"]


def smem_footprint_bytes(
    pattern: NMPattern,
    params: TileParams,
    *,
    packed: bool = False,
    double_buffered: bool = False,
    index_bytes: int = 1,
) -> int:
    """Shared-memory bytes one block stages, per Eq. 4:
    ``4*(ks*ms + ws*ns) + index_bytes*ws*qs`` (+ col_info when packed,
    x2 when double buffered).

    The packed tile is sized at the expected packed width (the union of
    the qs windows' columns), never below ``ws``.
    """
    from repro.sparsity.packing import packed_footprint_columns

    ws = params.ws(pattern)
    qs = params.qs(pattern)
    if packed:
        a_cols = max(ws, packed_footprint_columns(pattern, params.ks, qs))
    else:
        a_cols = params.ks
    base = FP32_BYTES * (a_cols * params.ms + ws * params.ns) + index_bytes * ws * qs
    if packed:
        base += FP32_BYTES * params.ks  # sh_col_info[ks] (Listing 3 line 9)
    return base * (2 if double_buffered else 1)


def fits_smem_budget(
    pattern: NMPattern,
    params: TileParams,
    spec: GPUSpec,
    *,
    packed: bool = False,
    double_buffered: bool = False,
) -> bool:
    """Eq. 4 check: the (optionally double-buffered) footprint must not
    exceed the per-block shared-memory limit; single-buffered footprints
    must also leave the Eq. 4 half-capacity headroom.

    Like Eq. 5 ("we ignore the shared memory size used by Ds"), the
    headroom check excludes the small index tile; the hard per-block
    limit includes everything.
    """
    footprint = smem_footprint_bytes(
        pattern, params, packed=packed, double_buffered=double_buffered
    )
    if double_buffered:
        return footprint <= spec.smem_bytes_per_block_limit
    no_d = smem_footprint_bytes(
        pattern, params, packed=packed, double_buffered=False, index_bytes=0
    )
    return (
        no_d <= spec.smem_bytes_per_sm * SMEM_USABLE_FRACTION
        and footprint <= spec.smem_bytes_per_block_limit
    )


@dataclass(frozen=True)
class MemoryHierarchy:
    """L2/DRAM parameters consumed by the traffic model."""

    spec: GPUSpec
    dram_efficiency: float = 0.85

    @property
    def achievable_dram_bytes_per_s(self) -> float:
        """Sustained DRAM bandwidth (STREAM-like fraction of peak)."""
        return self.spec.dram_bytes_per_s * self.dram_efficiency

    @property
    def achievable_dram_bytes_per_cycle(self) -> float:
        """Sustained DRAM bytes per core clock (whole device)."""
        return self.achievable_dram_bytes_per_s / self.spec.effective_clock_hz
