"""Vectorized per-window NM-SpMM: a layout-free cross-check kernel.

The online path (``execute()``, serving, ``backend="fast"``) is
:func:`repro.kernels.fast.nm_spmm_fast`, which batches windows over a
precomputed gather layout.  This kernel re-derives the gather rows
from ``D`` on every call and loops over windows in Python, so it needs
no offline layout; the equivalence tests and
``benchmarks/bench_functional_kernels.py`` compare against it.

Per column window ``jq`` the retained vectors of every compressed row
select one A column each (``absolute_rows[:, jq]``); gathering those
columns turns the window's contribution into a dense
``(m, w) @ (w, L)`` GEMM — exactly the observation of §III-B2 that
"the innermost computation for the thread transforms into a general
matrix multiplication" once ``Ar`` is formed.
"""

from __future__ import annotations

import numpy as np

from repro.errors import ShapeError
from repro.sparsity.compress import NMCompressedMatrix
from repro.utils.arrays import as_f32
from repro.utils.validation import check_matrix

__all__ = ["nm_spmm_functional"]


def nm_spmm_functional(
    a: np.ndarray,
    compressed: NMCompressedMatrix,
    *,
    rescale: bool = False,
) -> np.ndarray:
    """Compute ``C = A (*) (B', D)`` with one gathered GEMM per column
    window.  Numerically equivalent to :func:`nm_spmm_reference` up to
    float32 summation order."""
    a = as_f32(check_matrix("a", a))
    pattern = compressed.pattern
    m_rows, k = a.shape
    if k != compressed.k:
        # != rather than <: oversized A would silently gather from the
        # leading columns and drop the rest, which is a caller bug.
        raise ShapeError(
            f"A has k={k} columns but the compressed matrix expects "
            f"k={compressed.k}"
        )
    n = compressed.n
    ell = pattern.vector_length
    abs_rows = compressed.absolute_rows()  # (w, q)
    # Row-major B' (one temporary per call), not the contiguous
    # window blocks: NumPy sums an L=1 matrix-vector product over a
    # contiguous operand in another order.
    values = compressed.values
    out = np.empty((m_rows, n), dtype=np.float32)
    for jq in range(compressed.q):
        ar = a[:, abs_rows[:, jq]]  # (m, w) gathered "Ar" of §III-B2
        j0 = jq * ell
        out[:, j0 : j0 + ell] = ar @ values[:, j0 : j0 + ell]
    if rescale:
        out *= np.float32(pattern.m / pattern.n)
    return out
