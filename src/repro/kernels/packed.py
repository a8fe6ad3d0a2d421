"""Packed-load NM-SpMM (paper Listing 3, the high-sparsity path).

Identical output to :func:`repro.kernels.blocked.nm_spmm_blocked`, but
each block first loads ``col_info`` and stages only the A columns its
pruning windows actually touch (``LoadTileByColInfo``), shrinking the
staged A footprint from ``ms*ks`` towards ``ms*ws``.  The reordered
local index tile then addresses rows of the packed A tile directly.
"""

from __future__ import annotations

import numpy as np

from repro.constants import FP32_BYTES
from repro.errors import PlanError, ShapeError
from repro.kernels.blocked import KernelTrace
from repro.kernels.tiling import TileParams
from repro.sparsity.colinfo import ColumnInfo, preprocess_offline
from repro.sparsity.compress import NMCompressedMatrix
from repro.sparsity.packing import pack_a_tile
from repro.utils.arrays import as_f32
from repro.utils.intmath import ceil_div
from repro.utils.validation import check_matrix

__all__ = ["nm_spmm_packed"]


def nm_spmm_packed(
    a: np.ndarray,
    compressed: NMCompressedMatrix,
    params: TileParams,
    col_info: ColumnInfo | None = None,
    *,
    trace: KernelTrace | None = None,
    rescale: bool = False,
) -> np.ndarray:
    """Execute NM-SpMM with packed A loads.

    When ``col_info`` is None the offline pre-processing
    (:func:`repro.sparsity.colinfo.preprocess_offline`) runs first,
    exactly as Listing 3's ``PreProcessing`` would before launch.
    """
    a = as_f32(check_matrix("a", a))
    pattern = compressed.pattern
    if params.ks <= 0:
        raise PlanError("TileParams.ks is unset; derive it with with_ks(...)")
    if params.ks % pattern.m != 0:
        raise PlanError(
            f"ks={params.ks} must be a multiple of M={pattern.m}"
        )
    if a.shape[1] < compressed.k:
        raise ShapeError(
            f"A has k={a.shape[1]} columns but the compressed matrix "
            f"expects k={compressed.k}"
        )
    ks = min(params.ks, compressed.k)
    ws = (ks // pattern.m) * pattern.n
    if col_info is None:
        col_info = preprocess_offline(compressed, ws, params.ns)
    if col_info.ws != ws or col_info.ns != params.ns:
        raise PlanError(
            f"col_info was preprocessed for (ws={col_info.ws}, "
            f"ns={col_info.ns}) but the plan needs (ws={ws}, ns={params.ns})"
        )

    m_rows = a.shape[0]
    w, n = compressed.w, compressed.n
    ell = pattern.vector_length
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
            c_tile = np.zeros((bi_end - bi, bj_end - bj), dtype=np.float32)
            for kb, u0 in enumerate(range(0, w, ws)):
                u1 = min(u0 + ws, w)
                k0 = (u0 // pattern.n) * pattern.m
                k1 = min(k0 + ks, compressed.k)
                cols = col_info.cols[kb][bj_idx]
                local = col_info.local_d[kb][bj_idx]
                # Packed load: gather only the needed A columns
                # (LoadTileByColInfo).
                a_tile = pack_a_tile(a[bi:bi_end, k0:k1], cols)
                b_tile = values[u0:u1, bj:bj_end]
                if trace is not None:
                    trace.main_loop_iterations += 1
                    trace.ldg_colinfo_bytes += cols.size * cols.dtype.itemsize
                    trace.ldg_a_bytes += a_tile.size * FP32_BYTES
                    trace.ldg_b_bytes += b_tile.size * FP32_BYTES
                    trace.ldg_d_bytes += local.size * 1  # packed uint8-ish
                    trace.sts_bytes += (a_tile.size + b_tile.size) * FP32_BYTES
                    trace.packed_widths.append(int(cols.size))
                # SMBlock over the packed tile: local indices address
                # packed columns directly, no window arithmetic needed.
                for jq in range(local.shape[1]):
                    j0 = jq * ell
                    j1 = min(j0 + ell, b_tile.shape[1])
                    if j0 >= b_tile.shape[1]:
                        break
                    ar = a_tile[:, local[: u1 - u0, jq]]
                    c_tile[:, j0:j1] += ar @ b_tile[:, j0:j1]
                if trace is not None:
                    ws_b = u1 - u0
                    trace.fma_ops += (bi_end - bi) * (bj_end - bj) * ws_b
                    trace.lds_bytes += ws_b * (
                        (bi_end - bi) + (bj_end - bj)
                    ) * FP32_BYTES
            out[bi:bi_end, bj:bj_end] = c_tile
            if trace is not None:
                trace.stg_bytes += c_tile.size * FP32_BYTES
    if rescale:
        out *= np.float32(pattern.m / pattern.n)
    return out
