"""The batched gather-GEMM backend (the library's default fast path).

Wraps :func:`~repro.kernels.fast.nm_spmm_fast` over the handle's
precomputed :class:`~repro.sparsity.gather.GatherLayout`.  The output
order follows the input's: an F-contiguous ``a`` with more than one
row runs the feature-major :func:`~repro.kernels.fast.nm_spmm_fast_t`
on the ``(k, m)`` A^T it already is and returns an F-ordered C (the
transpose of the C^T it writes); any other ``a`` returns a C-ordered
C.  At m=1 an array is both, so decode keeps the row-major call.  Pure
numerics never touch a plan; a requested trace is filled analytically
from the plan (:func:`~repro.kernels.analytic.analytic_trace`), so
tracing does not force the structural executors.
"""

from __future__ import annotations

import numpy as np

from repro.backends.base import AnalyticTraceBackend, ExecutionRequest
from repro.kernels.fast import nm_spmm_fast, nm_spmm_fast_t

__all__ = ["FastBackend"]


class FastBackend(AnalyticTraceBackend):
    """Batched gather-GEMM over the handle's frozen gather layout."""

    name = "fast"

    def capabilities(self) -> dict:
        return {
            "description": "batched gather-GEMM over the precomputed "
            "GatherLayout (one BLAS call per window group)",
            "traces": "analytic",
            "needs_plan": False,
        }

    def _compute(self, request: ExecutionRequest) -> np.ndarray:
        a, layout = request.a, request.handle.gather_layout()
        if a.shape[0] > 1 and a.flags.f_contiguous:
            return nm_spmm_fast_t(a.T, layout).T
        return nm_spmm_fast(a, layout)
