"""Hierarchically blocked NM-SpMM (paper Listings 1 and 2).

This executor reproduces the *structure* of the CUDA kernel — the
device/block/warp/thread decomposition, the shared-memory staging of
``As``, ``Bs``, ``Ds`` and the ``SMBlock`` main loop — while computing
each block's arithmetic with vectorized NumPy.  It additionally records
a :class:`KernelTrace` of the memory and compute events each structural
level would issue, which grounds the performance model's instruction
counts in an executable artifact.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.constants import FP32_BYTES
from repro.errors import PlanError, ShapeError
from repro.kernels.tiling import TileParams
from repro.sparsity.compress import NMCompressedMatrix
from repro.utils.arrays import as_f32
from repro.utils.intmath import ceil_div
from repro.utils.validation import check_matrix

__all__ = ["KernelTrace", "nm_spmm_blocked"]


@dataclass
class KernelTrace:
    """Event counts accumulated by the blocked/packed executors.

    The counts are *per kernel launch* and correspond one-to-one with
    the quantities the performance model computes analytically:

    * ``ldg_*_bytes`` — global-memory loads (the Lg2s stage of Fig. 5);
    * ``sts_bytes`` — shared-memory stores of the staged tiles;
    * ``lds_bytes`` — shared-memory loads by the inner kernel (Ls2r);
    * ``fma_ops``   — multiply-accumulate operations (2 FLOPs each);
    * ``stg_bytes`` — result write-back (Lr2g).

    ``backend`` records which execution backend originated the counts
    (``"structural"`` for recordings, the backend's registered name for
    plan-derived analytic fills, ``"mixed"`` once traces from different
    origins merge).  It is provenance, not an event count, so it is
    excluded from equality: the analytic-equals-recorded assertions
    compare event accounting while the tag still distinguishes e.g.
    ``dense_scatter``'s own-event trace from a structural recording.
    """

    blocks: int = 0
    main_loop_iterations: int = 0
    ldg_a_bytes: int = 0
    ldg_b_bytes: int = 0
    ldg_d_bytes: int = 0
    ldg_colinfo_bytes: int = 0
    sts_bytes: int = 0
    lds_bytes: int = 0
    fma_ops: int = 0
    stg_bytes: int = 0
    packed_widths: list[int] = field(default_factory=list)
    backend: str = field(default="", compare=False)

    @property
    def ldg_bytes(self) -> int:
        """Total global-memory load traffic (compulsory, no cache)."""
        return (
            self.ldg_a_bytes
            + self.ldg_b_bytes
            + self.ldg_d_bytes
            + self.ldg_colinfo_bytes
        )

    @property
    def flops(self) -> int:
        """Useful floating-point operations (2 per FMA)."""
        return 2 * self.fma_ops

    def arithmetic_intensity(self) -> float:
        """FLOPs per global byte moved (loads + stores)."""
        bytes_total = self.ldg_bytes + self.stg_bytes
        return self.flops / bytes_total if bytes_total else 0.0

    def tag_backend(self, name: str) -> None:
        """Stamp the originating backend; traces accumulated from
        different origins degrade to ``"mixed"`` rather than lying."""
        if not self.backend:
            self.backend = name
        elif name and self.backend != name:
            self.backend = "mixed"

    def merge(self, other: "KernelTrace") -> None:
        """Accumulate another trace into this one."""
        if other.backend:
            self.tag_backend(other.backend)
        self.blocks += other.blocks
        self.main_loop_iterations += other.main_loop_iterations
        self.ldg_a_bytes += other.ldg_a_bytes
        self.ldg_b_bytes += other.ldg_b_bytes
        self.ldg_d_bytes += other.ldg_d_bytes
        self.ldg_colinfo_bytes += other.ldg_colinfo_bytes
        self.sts_bytes += other.sts_bytes
        self.lds_bytes += other.lds_bytes
        self.fma_ops += other.fma_ops
        self.stg_bytes += other.stg_bytes
        self.packed_widths.extend(other.packed_widths)


def _check_blocked_inputs(
    a: np.ndarray, compressed: NMCompressedMatrix, params: TileParams
) -> None:
    if params.ks <= 0:
        raise PlanError("TileParams.ks is unset; derive it with with_ks(...)")
    if params.ks % compressed.pattern.m != 0:
        raise PlanError(
            f"ks={params.ks} must be a multiple of M={compressed.pattern.m} "
            "so pruning windows do not straddle block boundaries"
        )
    if a.shape[1] < compressed.k:
        raise ShapeError(
            f"A has k={a.shape[1]} columns but the compressed matrix "
            f"expects k={compressed.k}"
        )


def _sm_block(
    a_tile: np.ndarray,
    b_tile: np.ndarray,
    d_tile: np.ndarray,
    pattern,
    base_u: int,
    tile_k_origin: int,
    c_tile: np.ndarray,
    trace: KernelTrace | None,
) -> None:
    """The ``SMBlock`` device function (Listing 2): consume one staged
    (As, Bs, Ds) triple, accumulating into the block accumulator.

    Gathers ``Ar`` per column window from the staged A tile using the
    window-relative indices, then performs the per-window GEMM that the
    thread inner kernels (outer products over ``p``) jointly compute.
    """
    ws_b = b_tile.shape[0]
    ell = pattern.vector_length
    qs_b = d_tile.shape[1]
    u = base_u + np.arange(ws_b, dtype=np.int64)[:, None]
    rel_rows = (u // pattern.n) * pattern.m - tile_k_origin + d_tile.astype(np.int64)
    for jq in range(qs_b):
        ar = a_tile[:, rel_rows[:, jq]]
        j0 = jq * ell
        j1 = min(j0 + ell, b_tile.shape[1])
        c_tile[:, j0:j1] += ar @ b_tile[:, j0:j1]
    if trace is not None:
        ms_b = a_tile.shape[0]
        ns_b = b_tile.shape[1]
        trace.fma_ops += ms_b * ns_b * ws_b
        # Ls2r: every thread re-reads its At fragment and Bt fragment
        # per p-step; in aggregate the block streams ws_b*(ms_b + ns_b)
        # words from shared memory (broadcast de-duplicated).
        trace.lds_bytes += ws_b * (ms_b + ns_b) * FP32_BYTES


def nm_spmm_blocked(
    a: np.ndarray,
    compressed: NMCompressedMatrix,
    params: TileParams,
    *,
    trace: KernelTrace | None = None,
    rescale: bool = False,
) -> np.ndarray:
    """Execute NM-SpMM with the hierarchical blocking of Listing 1.

    Parameters
    ----------
    a:
        Dense ``(m, k)`` input.
    compressed:
        The ``(B', D)`` pair.
    params:
        Blocking parameters with ``ks`` resolved.
    trace:
        Optional :class:`KernelTrace` that receives event counts.
    """
    a = as_f32(check_matrix("a", a))
    _check_blocked_inputs(a, compressed, params)
    pattern = compressed.pattern
    m_rows = a.shape[0]
    w, n = compressed.w, compressed.n
    ell = pattern.vector_length
    ks = min(params.ks, compressed.k)
    ws = (ks // pattern.m) * pattern.n
    out = np.empty((m_rows, n), dtype=np.float32)
    values = compressed.values  # row-major B': one temporary per call

    num_bi = ceil_div(m_rows, params.ms)
    num_bj = ceil_div(n, params.ns)
    if trace is not None:
        trace.blocks += num_bi * num_bj

    for bi_idx in range(num_bi):
        bi = bi_idx * params.ms
        bi_end = min(bi + params.ms, m_rows)
        for bj_idx in range(num_bj):
            bj = bj_idx * params.ns
            bj_end = min(bj + params.ns, n)
            jq0 = bj // ell
            jq1 = ceil_div(bj_end, ell)
            # Ct accumulator (Listing 1 line 9), float32 like the
            # CUDA registers.
            c_tile = np.zeros((bi_end - bi, bj_end - bj), dtype=np.float32)
            # Main loop over the compressed depth (Listing 1 line 14).
            for u0 in range(0, w, ws):
                u1 = min(u0 + ws, w)
                k0 = (u0 // pattern.n) * pattern.m
                k1 = min(k0 + ks, compressed.k)
                a_tile = a[bi:bi_end, k0:k1]
                b_tile = values[u0:u1, bj:bj_end]
                d_tile = compressed.indices[u0:u1, jq0:jq1]
                if trace is not None:
                    trace.main_loop_iterations += 1
                    trace.ldg_a_bytes += a_tile.size * FP32_BYTES
                    trace.ldg_b_bytes += b_tile.size * FP32_BYTES
                    trace.ldg_d_bytes += d_tile.size * d_tile.dtype.itemsize
                    trace.sts_bytes += (
                        a_tile.size + b_tile.size
                    ) * FP32_BYTES + d_tile.size * d_tile.dtype.itemsize
                _sm_block(
                    a_tile, b_tile, d_tile, pattern, u0, k0, c_tile, trace
                )
            out[bi:bi_end, bj:bj_end] = c_tile
            if trace is not None:
                trace.stg_bytes += c_tile.size * FP32_BYTES
    if rescale:
        out *= np.float32(pattern.m / pattern.n)
    return out
