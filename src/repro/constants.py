"""Shared constants for the NM-SpMM reproduction.

These mirror the fixed quantities the paper's analysis relies on:
FP32 operands (4 bytes), 32-thread warps, 32 shared-memory banks, and
the 70% sparsity threshold separating *moderate* (compute-bound) from
*high* (memory-bound) sparsity (paper §III-A).
"""

from __future__ import annotations

#: Bytes per FP32 element; the paper's kernels are FP32-only.
FP32_BYTES: int = 4

#: Threads per warp on every NVIDIA GPU the paper evaluates.
WARP_SIZE: int = 32

#: Number of shared-memory banks per SM (4-byte wide each).
SMEM_BANKS: int = 32

#: Bytes per shared-memory bank word.
SMEM_BANK_WIDTH: int = 4

#: Sparsity above which the paper classifies the problem as *high*
#: sparsity (memory bound) and enables the packing strategy (§III-A:
#: "we define sparsity below 70.0% as moderate and above 70.0% as high").
HIGH_SPARSITY_THRESHOLD: float = 0.70

#: The paper's four benchmark sparsity ratios (§IV-A).
PAPER_SPARSITIES: tuple[float, ...] = (0.50, 0.625, 0.75, 0.875)

#: Maximum registers addressable per thread (§III-B2).
MAX_REGISTERS_PER_THREAD: int = 255

#: The register-budget constraint from §III-B2:
#: ``mt + nt + mt*nt <= MAX_REGISTERS_PER_THREAD``.
THREAD_TILE_REGISTER_BUDGET: int = MAX_REGISTERS_PER_THREAD

#: Fraction of SM shared memory the kernel may occupy (Eq. 4 keeps half
#: for double buffering and temporaries).
SMEM_USABLE_FRACTION: float = 0.5

#: Default vector length L for vector-wise pruning; the paper's figures
#: use pruning windows of L-wide vectors with L a multiple of the warp
#: quad width.  Fig. 1 demonstrates L = 4; kernels default to 32 which
#: the paper notes "facilitates load distribution within the warp".
DEFAULT_VECTOR_LENGTH: int = 32

#: Global-memory transaction (sector) size in bytes, used by the
#: traffic model to account for uncoalesced gathers.
GMEM_SECTOR_BYTES: int = 32

#: Default dtype name used across kernels.
DEFAULT_DTYPE: str = "float32"
