"""Execution profiles: how a kernel family schedules and loads.

One engine (:mod:`repro.model.engine`) simulates every kernel in the
paper; what differs between NM-SpMM V1/V2/V3, cuBLAS and nmSPARSE is
captured by an :class:`ExecutionProfile`:

* ``overlap``     — synchronous Listing-1 schedule vs the Listing-4
  double-buffered pipeline;
* ``a_load``      — how A tiles are staged: the full ``ms x ks`` slice,
  the packed subset (Listing 3), or per-window gathers (nmSPARSE's VW
  kernels);
* instruction-level knobs (aux index instructions, issue efficiency).
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum

from repro.errors import ConfigurationError
from repro.model.calibration import Calibration

__all__ = ["OverlapMode", "ALoadMode", "ExecutionProfile", "profile_for_version"]


class OverlapMode(str, Enum):
    """Main-loop scheduling discipline."""

    SYNC = "sync"  # Listing 1: load, __syncthreads, compute
    DOUBLE_BUFFER = "double-buffer"  # Listing 4: async load overlaps compute


class ALoadMode(str, Enum):
    """How the A operand is staged."""

    FULL = "full"  # entire ms x ks slice (non-packing)
    PACKED = "packed"  # col_info-packed subset (Listing 3)
    GATHERED = "gathered"  # per-window gathers without smem packing


@dataclass(frozen=True)
class ExecutionProfile:
    """Scheduling/loading profile of one kernel family.

    ``load_bw_factor`` scales the achievable load bandwidth: the
    synchronous Listing-1 schedule keeps too few loads in flight to
    saturate the memory system (no async copies, a barrier after every
    tile), so V1/V2 sustain a lower fraction than the pipelined V3.
    """

    name: str
    overlap: OverlapMode
    a_load: ALoadMode
    aux_instr_per_step: float
    issue_efficiency: float
    a_traffic_factor: float = 1.0
    sync_exposure_scale: float = 1.0
    load_bw_factor: float = 1.0
    uses_index_matrix: bool = True

    @property
    def is_packed(self) -> bool:
        return self.a_load is ALoadMode.PACKED

    @property
    def reads_colinfo(self) -> bool:
        """Only the packed path loads col_info (Listing 3 line 15)."""
        return self.a_load is ALoadMode.PACKED


def profile_for_version(
    version: str, calib: Calibration, *, high_sparsity: bool
) -> ExecutionProfile:
    """The NM-SpMM step-wise optimization levels of §IV-B.

    * **V1** — hierarchical blocking only (Listings 1/2): synchronous
      schedule, full A tiles, on-demand index reads.
    * **V2** — V1 + footprint minimization (Listing 3): packs A when
      the sparsity is high; identical to V1 at moderate sparsity.
    * **V3** — V2 + pipeline latency hiding (Listing 4): double
      buffering and register index prefetch.
    """
    v = version.upper()
    if v == "V1":
        return ExecutionProfile(
            name="NM-SpMM V1",
            overlap=OverlapMode.SYNC,
            a_load=ALoadMode.FULL,
            aux_instr_per_step=calib.aux_instr_per_step_v1v2,
            issue_efficiency=calib.nm_issue_efficiency,
            load_bw_factor=calib.sync_load_bw_factor,
        )
    if v == "V2":
        return ExecutionProfile(
            name="NM-SpMM V2",
            overlap=OverlapMode.SYNC,
            a_load=ALoadMode.PACKED if high_sparsity else ALoadMode.FULL,
            aux_instr_per_step=calib.aux_instr_per_step_v1v2,
            issue_efficiency=calib.nm_issue_efficiency,
            load_bw_factor=calib.sync_load_bw_factor,
        )
    if v == "V3":
        return ExecutionProfile(
            name="NM-SpMM V3",
            overlap=OverlapMode.DOUBLE_BUFFER,
            a_load=ALoadMode.PACKED if high_sparsity else ALoadMode.FULL,
            aux_instr_per_step=calib.aux_instr_per_step_v3,
            issue_efficiency=calib.nm_issue_efficiency,
        )
    raise ConfigurationError(f"unknown NM-SpMM version {version!r}; expected V1/V2/V3")
