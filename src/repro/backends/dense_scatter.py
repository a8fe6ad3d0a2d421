"""The scatter-to-dense + SGEMM backend (the tiny-L escape hatch).

The gather-GEMM path degenerates for tiny vector lengths: with L=4
every column window's GEMM operand is only four columns wide, so the
batched product decays into thousands of skinny GEMMs that BLAS cannot
run at rate (see the ``small-2:4`` row of ``BENCH_kernels.json``).
Below that efficiency crossover it is cheaper to pay the *full* dense
FLOPs at full BLAS rate: scatter the compressed ``(B', D)`` values
back into a dense ``(k, n)`` matrix (one vectorized
``put_along_axis``) and run a single SGEMM.

This backend does ``M/N``-times the useful work of the sparse paths —
it trades FLOPs for BLAS efficiency, which is exactly the paper's
moderate-sparsity argument (§III-A: at low sparsity the problem is
compute-bound and dense-shaped execution wins).  The scatter is paid
per call to keep the memory footprint compressed between calls; the
auto-selector only routes here when the modeled gather-GEMM cost
exceeds the dense cost.

It is also the registry's proof of pluggability: nothing in the core
knows this backend exists beyond its registration.
"""

from __future__ import annotations

import numpy as np

from repro.backends.base import AnalyticTraceBackend, ExecutionRequest
from repro.constants import FP32_BYTES
from repro.kernels.blocked import KernelTrace
from repro.sparsity.compress import decompress

__all__ = ["DenseScatterBackend"]


class DenseScatterBackend(AnalyticTraceBackend):
    """Scatter ``(B', D)`` to dense, then one full-rate SGEMM."""

    name = "dense_scatter"

    def capabilities(self) -> dict:
        return {
            "description": "scatter compressed values into a dense B, "
            "then one SGEMM at full BLAS rate (wins below the "
            "gather-GEMM's vector-length efficiency crossover)",
            "traces": "own events (scatter + SGEMM data movement)",
            "needs_plan": False,
            "trace_vocabulary": ("scatter", "sgemm"),
        }

    def supports(self, request: ExecutionRequest) -> "bool | str":
        # Unlike the plan-derived analytic fills, this backend accounts
        # its own scatter+SGEMM data movement, so a trace never needs
        # an ExecutionPlan.
        return True

    def _compute(self, request: ExecutionRequest) -> np.ndarray:
        # BLAS may sum a transposed (F-ordered) A in another order, so
        # the SGEMM always reads a row-major copy: same bits either way.
        a = np.ascontiguousarray(request.a)
        return a @ decompress(request.handle.compressed)

    def _fill_trace(self, request: ExecutionRequest):
        """Account the backend's *real* memory events — the scatter
        pass (read ``B'`` + ``D``, write the dense ``(k, n)`` matrix)
        followed by one dense SGEMM (read A and the scattered B, pay
        the full ``m*n*k`` MACs, write C) — instead of deriving a
        blocked-executor trace from a plan this backend never runs.
        No shared-memory staging happens on this path, so ``sts``/
        ``lds`` stay zero; the whole launch is one logical block with
        one pass over the operands."""
        comp = request.handle.compressed
        m, k, n = request.m, comp.k, comp.n
        scatter = KernelTrace(
            blocks=1,
            main_loop_iterations=1,
            ldg_b_bytes=comp.values_bytes(),
            ldg_d_bytes=comp.indices_bytes(),
            stg_bytes=k * n * FP32_BYTES,
        )
        sgemm = KernelTrace(
            blocks=1,
            main_loop_iterations=1,
            ldg_a_bytes=m * k * FP32_BYTES,
            ldg_b_bytes=k * n * FP32_BYTES,
            fma_ops=m * n * k,
            stg_bytes=m * n * FP32_BYTES,
        )
        request.trace.merge(scatter)
        request.trace.merge(sgemm)
        request.trace.tag_backend(self.name)
        return request.plan
