"""Fast gather-GEMM NM-SpMM (the batched online execution path).

Where :func:`repro.kernels.functional.nm_spmm_functional` re-derives
the gather rows from ``D`` and loops over column windows in Python,
this kernel consumes a precomputed
:class:`~repro.sparsity.gather.GatherLayout` and evaluates windows in
cache-sized groups, one batched ``matmul`` per group: gather ``A`` into
``(cq, m, w)`` blocks, multiply against the layout's ``(cq, w, L)``
value blocks, and write the ``(cq, m, L)`` results into ``(m, n)``.
This is the §III-B2 observation applied end to end — after the offline
layout conversion the product is dense-GEMM-shaped work that BLAS runs
at full rate — which is why ``execute(backend="fast")`` is the default.
"""

from __future__ import annotations

import numpy as np

from repro.errors import ShapeError
from repro.sparsity.compress import NMCompressedMatrix
from repro.sparsity.gather import GatherLayout, build_gather_layout
from repro.utils.arrays import as_f32
from repro.utils.validation import check_matrix

__all__ = ["nm_spmm_fast", "GATHER_BUFFER_ELEMENTS"]

#: Bound on one group's gathered block of A, in float32 elements
#: (512 KiB).  The gather holds q * w * m floats, 1/L of the MACs, so
#: groups are sized like the paper's hierarchical blocking (§III-B,
#: Fig. 8) but to the host's per-core L2: the block and its (cq, m, L)
#: product stay cached from the gather to the matmul instead of going
#: out to DRAM.  One window is the floor; the per-window GEMMs, and so
#: the output bits, do not depend on the bound.
GATHER_BUFFER_ELEMENTS = 1 << 17


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
        Dense ``(m, k)`` input with exactly the layout's (padded) k.
    layout:
        A :class:`GatherLayout`, or an :class:`NMCompressedMatrix` to
        convert on the fly (hot paths should build the layout once via
        :func:`~repro.sparsity.gather.build_gather_layout` and reuse
        it — conversion costs more than one call saves).
    rescale:
        Apply Eq. 1's ``M/N`` mean-preserving prefactor.

    Numerically equivalent to :func:`nm_spmm_reference` up to float32
    summation order (each output entry sums the same ``w`` products).
    """
    if isinstance(layout, NMCompressedMatrix):
        layout = build_gather_layout(layout)
    a = as_f32(check_matrix("a", a))
    m_rows, k = a.shape
    if k != layout.k:
        raise ShapeError(
            f"A has k={k} columns but the gather layout expects "
            f"k={layout.k}"
        )
    pattern = layout.pattern
    ell = pattern.vector_length
    q, w = layout.q, layout.w
    # Gather from A^T so each gathered row is a contiguous m-vector: one
    # ``take`` per window group builds the (cq, w, m) block of Ar^T (a
    # fancy index copies the same rows but pays a fixed cost per row,
    # which dominates at decode m).  One batched matmul then runs the
    # group's per-window GEMMs and writes each (m, L) product straight
    # into ``out`` through its (q, m, L) view; BLAS takes the row stride.
    at = np.ascontiguousarray(a.T)
    chunk_q = max(1, min(q, GATHER_BUFFER_ELEMENTS // max(1, w * m_rows)))
    out = np.empty((m_rows, q * ell), dtype=np.float32)
    out_t = out.reshape(m_rows, q, ell).transpose(1, 0, 2)
    for j0 in range(0, q, chunk_q):
        j1 = min(j0 + chunk_q, q)
        ar_t = np.take(at, layout.rows[j0:j1].reshape(-1), axis=0)
        np.matmul(
            ar_t.reshape(j1 - j0, w, m_rows).transpose(0, 2, 1),
            layout.values[j0:j1],
            out=out_t[j0:j1],
        )
    if rescale:
        out *= np.float32(pattern.m / pattern.n)
    return out
