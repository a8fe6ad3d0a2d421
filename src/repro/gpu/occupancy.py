"""SM occupancy calculation.

§III-B2: "using too many registers per thread reduces parallelism,
which is referred to as occupancy".  Occupancy bounds how much
instruction latency the scheduler can hide; the pipeline model scales
its latency-hiding capability with the achieved warp count.

The calculation mirrors NVIDIA's occupancy calculator: blocks per SM
are limited by (a) warp slots, (b) the register file, (c) shared
memory, and (d) the architectural blocks-per-SM cap.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.constants import WARP_SIZE
from repro.errors import SimulationError
from repro.gpu.spec import GPUSpec
from repro.utils.validation import check_positive_int

__all__ = ["OccupancyResult", "compute_occupancy"]

#: Hardware cap on resident blocks per SM for the modelled parts.
MAX_BLOCKS_PER_SM = 32

#: Register allocation granularity (registers are allocated per warp in
#: chunks of 256 on Ampere/Ada).
REGISTER_ALLOC_UNIT = 256


@dataclass(frozen=True)
class OccupancyResult:
    """Occupancy outcome for one kernel configuration."""

    blocks_per_sm: int
    warps_per_sm: int
    occupancy: float
    limiter: str
    registers_per_thread: int
    smem_bytes_per_block: int


def compute_occupancy(
    spec: GPUSpec,
    threads_per_block: int,
    registers_per_thread: int,
    smem_bytes_per_block: int,
) -> OccupancyResult:
    """Compute achieved occupancy for a block configuration on ``spec``.

    Raises :class:`SimulationError` when the block cannot launch at all
    (register or shared-memory demand exceeds the SM).
    """
    threads_per_block = check_positive_int("threads_per_block", threads_per_block)
    registers_per_thread = check_positive_int(
        "registers_per_thread", registers_per_thread
    )
    if threads_per_block % WARP_SIZE != 0:
        raise SimulationError(
            f"threads_per_block={threads_per_block} is not a warp multiple"
        )
    if threads_per_block > spec.max_threads_per_block:
        raise SimulationError(
            f"threads_per_block={threads_per_block} exceeds the "
            f"{spec.max_threads_per_block} limit"
        )
    if smem_bytes_per_block < 0:
        raise SimulationError("smem_bytes_per_block must be non-negative")

    warps_per_block = threads_per_block // WARP_SIZE

    # (a) warp slots
    by_warps = spec.max_warps_per_sm // warps_per_block
    # (b) register file, allocated per warp with granularity
    regs_per_warp = -(
        -registers_per_thread * WARP_SIZE // REGISTER_ALLOC_UNIT
    ) * REGISTER_ALLOC_UNIT
    regs_per_block = regs_per_warp * warps_per_block
    if regs_per_block > spec.registers_per_sm:
        raise SimulationError(
            f"block needs {regs_per_block} registers but the SM has "
            f"{spec.registers_per_sm}"
        )
    by_regs = spec.registers_per_sm // regs_per_block
    # (c) shared memory
    if smem_bytes_per_block > spec.smem_bytes_per_block_limit:
        raise SimulationError(
            f"block needs {smem_bytes_per_block} B of shared memory but "
            f"the per-block limit is {spec.smem_bytes_per_block_limit} B"
        )
    # A kernel using no shared memory is unconstrained by it; the
    # sentinel exceeds every other limit so it never wins the argmin.
    by_smem = (
        spec.smem_bytes_per_sm // smem_bytes_per_block
        if smem_bytes_per_block
        else 10**9
    )
    # (d) architectural cap
    candidates = {
        "warp slots": by_warps,
        "registers": by_regs,
        "shared memory": by_smem,
        "block cap": MAX_BLOCKS_PER_SM,
    }
    limiter = min(candidates, key=lambda key: candidates[key])
    blocks = max(0, min(candidates.values()))
    if blocks == 0:
        raise SimulationError(
            f"configuration cannot launch: limiter={limiter} allows 0 blocks"
        )
    warps = blocks * warps_per_block
    return OccupancyResult(
        blocks_per_sm=blocks,
        warps_per_sm=warps,
        occupancy=warps / spec.max_warps_per_sm,
        limiter=limiter,
        registers_per_thread=registers_per_thread,
        smem_bytes_per_block=smem_bytes_per_block,
    )
