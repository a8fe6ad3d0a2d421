"""Fast gather-GEMM NM-SpMM (the batched online execution path).

Where :func:`repro.kernels.functional.nm_spmm_functional` re-derives
the gather rows from ``D`` and loops over column windows in Python,
this kernel consumes a precomputed
:class:`~repro.sparsity.gather.GatherLayout` and evaluates windows in
groups sized to a core's L2, one batched ``matmul`` per group, and one
contiguous span of windows per CPU above :data:`SPLIT_MACS`.  Each group
gathers its rows of A^T -- one contiguous m-vector per gather index --
into a ``(cq, w, m)`` block with one ``np.take``, and multiplies it
against the layout's ``(cq, w, L)`` value blocks in one of two
orientations that share the loop:

* row-major (:func:`nm_spmm_fast`): ``(cq, m, w) @ (cq, w, L)`` writes
  each window's ``(m, L)`` product into its columns of a C-contiguous
  ``(m, n)`` C, copying a row-major A to A^T once per call;
* feature-major (:func:`nm_spmm_fast_t`): ``(cq, L, w) @ (cq, w, m)``
  writes each window's ``(L, m)`` product into its contiguous rows of
  a C-contiguous ``(n, m)`` C^T, so a ``(k, m)`` A^T is gathered
  in place and nothing is transposed.

This is the §III-B2 observation applied end to end — after the offline
layout conversion the product is dense-GEMM-shaped work that BLAS runs
at full rate — which is why ``execute(backend="fast")`` is the default.
"""

from __future__ import annotations

import os
import threading
from typing import TYPE_CHECKING

import numpy as np

from repro.errors import ShapeError
from repro.sparsity.compress import NMCompressedMatrix
from repro.sparsity.gather import GatherLayout, build_gather_layout
from repro.utils.arrays import as_f32
from repro.utils.validation import check_matrix

if TYPE_CHECKING:
    from concurrent.futures import ThreadPoolExecutor

__all__ = ["nm_spmm_fast", "nm_spmm_fast_t", "GATHER_BUFFER_ELEMENTS"]

#: Bound on one group's gathered block of A, in float32 elements
#: (512 KiB).  The gather holds q * w * m floats, 1/L of the MACs, so
#: groups are sized like the paper's hierarchical blocking (§III-B,
#: Fig. 8) but to the host's per-core L2: each span's block and its
#: product stay in its own core's L2 from the gather to the matmul
#: instead of going out to DRAM.  One window is the floor; the
#: per-window GEMMs, and so the output bits, do not depend on the bound.
GATHER_BUFFER_ELEMENTS = 1 << 17

#: Multiply-adds (q * L * w * m) from which a call splits its windows.  On
#: a 2-core AMD EPYC VM (one BLAS thread), Llama-7B/8 2:8 layers split ran
#: x0.54-0.71 of one thread's time at m=256 (17-131M), x0.60-0.88 at m=64
#: (11-33M), x0.63-2.7 at m <= 16 (<= 8.2M; ~20 us hand-off); decode <= 0.5M.
SPLIT_MACS = 1 << 23

_pool: "ThreadPoolExecutor | None" = None
_pool_lock = threading.Lock()


def _cpus() -> int:
    """The number of CPUs this process may run on."""
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


def _span_pool() -> ThreadPoolExecutor:
    """The pool that runs every span but the caller's, made on first use."""
    global _pool
    with _pool_lock:
        if _pool is None:
            from concurrent import futures  # loaded only by a process that splits
            _pool = futures.ThreadPoolExecutor(max(1, _cpus() - 1), thread_name_prefix="nm-spmm")
        return _pool


def _forget_pool() -> None:
    global _pool, _pool_lock
    _pool, _pool_lock = None, threading.Lock()


if hasattr(os, "register_at_fork"):  # a forked child gets the pool but none of its threads
    os.register_at_fork(after_in_child=_forget_pool)


def nm_spmm_fast(
    a: np.ndarray,
    layout: "GatherLayout | NMCompressedMatrix",
    *,
    rescale: bool = False,
) -> np.ndarray:
    """Compute ``C = A (*) (B', D)`` from a precomputed gather layout.

    Parameters
    ----------
    a:
        Dense ``(m, k)`` input with exactly the layout's (padded) k, in
        either memory order (an F-ordered float32 ``a`` is already A^T
        in memory, so it is gathered without a copy).
    layout:
        A :class:`GatherLayout`, or an :class:`NMCompressedMatrix` to
        convert on the fly (hot paths should build the layout once via
        :func:`~repro.sparsity.gather.build_gather_layout` and reuse
        it — conversion costs more than one call saves).
    rescale:
        Apply Eq. 1's ``M/N`` mean-preserving prefactor.

    Returns the C-contiguous ``(m, n)`` product whatever ``a``'s order.
    Numerically equivalent to :func:`nm_spmm_reference` up to float32
    summation order (each output entry sums the same ``w`` products).
    """
    at = np.ascontiguousarray(check_matrix("a", a).T, dtype=np.float32)
    return _gather_gemm(at, layout, rescale, feature_major=False)


def nm_spmm_fast_t(
    at: np.ndarray,
    layout: "GatherLayout | NMCompressedMatrix",
    *,
    rescale: bool = False,
) -> np.ndarray:
    """Feature-major :func:`nm_spmm_fast`: ``C^T = B'^T A^T``.

    Takes ``at``, the ``(k, m)`` transpose of A, and returns the
    C-contiguous ``(n, m)`` C^T.  ``nm_spmm_fast_t(a.T, layout).T`` has
    the bits of ``nm_spmm_fast(a, layout)``; it skips the A^T copy and
    writes every window's product as contiguous rows.
    """
    return _gather_gemm(
        as_f32(check_matrix("at", at)), layout, rescale, feature_major=True
    )


def _gather_gemm(
    at: np.ndarray,
    layout: "GatherLayout | NMCompressedMatrix",
    rescale: bool,
    *,
    feature_major: bool,
) -> np.ndarray:
    """The window-group loop over a C-contiguous ``(k, m)`` A^T: C^T as
    ``(n, m)`` when ``feature_major``, else C as ``(m, n)``."""
    if isinstance(layout, NMCompressedMatrix):
        layout = build_gather_layout(layout)
    k, m_rows = at.shape
    if k != layout.k:
        raise ShapeError(
            f"A has k={k} columns but the gather layout expects "
            f"k={layout.k}"
        )
    pattern = layout.pattern
    ell = pattern.vector_length
    q, w = layout.q, layout.w
    # One ``take`` per window group builds the (cq, w, m) block of Ar^T
    # (a fancy index copies the same rows but pays a fixed cost per row,
    # which dominates at decode m).  One batched matmul then runs the
    # group's per-window GEMMs and writes each product straight into its
    # (q, L, m) rows of C^T, or into its (q, m, L) columns of C, where
    # BLAS takes the row stride.  Both multiply transposed views: a
    # contiguous copy of the values changes bits at small m.
    chunk_q = max(1, min(q, GATHER_BUFFER_ELEMENTS // max(1, w * m_rows)))
    if feature_major:
        out = np.empty((q * ell, m_rows), dtype=np.float32)
        out_w = out.reshape(q, ell, m_rows)
    else:
        out = np.empty((m_rows, q * ell), dtype=np.float32)
        out_w = out.reshape(m_rows, q, ell).transpose(1, 0, 2)

    def span(s0: int, s1: int) -> None:
        for j0 in range(s0, s1, chunk_q):
            j1 = min(j0 + chunk_q, s1)
            block = np.take(at, layout.rows[j0:j1].reshape(-1), axis=0).reshape(
                j1 - j0, w, m_rows
            )
            if feature_major:
                np.matmul(
                    layout.values[j0:j1].transpose(0, 2, 1), block, out=out_w[j0:j1]
                )
            else:
                np.matmul(
                    block.transpose(0, 2, 1), layout.values[j0:j1], out=out_w[j0:j1]
                )
            del block  # before the next gather: one block per span at a time

    spans = min(q, _cpus()) if q * ell * w * m_rows >= SPLIT_MACS else 1
    if spans == 1:
        span(0, q)
    else:
        bounds = [q * i // spans for i in range(spans + 1)]
        futures = [_span_pool().submit(span, s0, s1) for s0, s1 in zip(bounds[1:-1], bounds[2:])]
        try:
            span(0, bounds[1])
        finally:
            for future in futures:
                future.exception()  # waits: every span ends before anything raises
        for future in futures:
            future.result()
    if rescale:
        out *= np.float32(pattern.m / pattern.n)
    return out
