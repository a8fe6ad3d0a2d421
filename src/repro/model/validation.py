"""Model self-validation: analytic traffic vs executable trace.

The performance model's credibility rests on its event counts matching
what the kernels actually do.  This module runs the *functional*
blocked/packed executors on a downscaled instance of a problem while
recording a :class:`~repro.kernels.blocked.KernelTrace`, computes the
analytic :class:`~repro.model.events.TrafficBreakdown` for the same
plan, and reports the relative deviation per operand — a
consistency check a user can run on their own shapes
(``python -m repro validate``) and the test suite pins down.

FMA counts and the full/blocked A/B staging volumes must agree exactly;
the packed A volume is a random-pattern *expectation*, so it is only
required to agree within a tolerance.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.errors import ConfigurationError
from repro.gpu.catalog import resolve_gpu
from repro.gpu.spec import GPUSpec
from repro.kernels.blocked import KernelTrace, nm_spmm_blocked
from repro.kernels.packed import nm_spmm_packed
from repro.kernels.tiling import TileParams
from repro.model.calibration import calibration_for
from repro.model.profiles import ALoadMode, ExecutionProfile, OverlapMode
from repro.model.traffic import compute_traffic
from repro.model.workload import ProblemShape, SparseProblem
from repro.sparsity.compress import compress
from repro.sparsity.config import NMPattern
from repro.utils.tables import TextTable
from repro.workloads.synthetic import random_dense

__all__ = ["ValidationRow", "ValidationReport", "validate_model"]


@dataclass(frozen=True)
class ValidationRow:
    """One compared quantity."""

    quantity: str
    analytic: float
    measured: float

    @property
    def rel_error(self) -> float:
        if self.measured == 0:
            return 0.0 if self.analytic == 0 else float("inf")
        return abs(self.analytic - self.measured) / abs(self.measured)


@dataclass(frozen=True)
class ValidationReport:
    """All compared quantities for one (pattern, tiling) pair."""

    pattern: NMPattern
    params: TileParams
    rows: tuple[ValidationRow, ...]

    def max_rel_error(self, *, exclude_expected: bool = True) -> float:
        """Largest deviation; packed-A is an expectation and can be
        excluded (its own tolerance is checked separately)."""
        worst = 0.0
        for row in self.rows:
            if exclude_expected and row.quantity.startswith("packed"):
                continue
            worst = max(worst, row.rel_error)
        return worst

    def row(self, quantity: str) -> ValidationRow:
        for r in self.rows:
            if r.quantity == quantity:
                return r
        raise KeyError(quantity)

    def render(self) -> str:
        table = TextTable(
            ["quantity", "analytic", "executed", "rel. error"],
            title=(
                f"Model validation — {self.pattern.label()}, "
                f"{self.params.label()}"
            ),
        )
        for r in self.rows:
            table.add_row(
                [
                    r.quantity,
                    f"{r.analytic:,.0f}",
                    f"{r.measured:,.0f}",
                    f"{r.rel_error * 100:.2f}%",
                ]
            )
        return table.render()


def validate_model(
    pattern: NMPattern | None = None,
    *,
    m: int = 96,
    n: int = 64,
    k: int = 64,
    params: TileParams | None = None,
    gpu: "str | GPUSpec" = "A100",
    seed: int = 0,
) -> ValidationReport:
    """Cross-check the analytic traffic/instruction model against the
    executable kernels on a small instance."""
    pattern = pattern or NMPattern(2, 8, vector_length=4)
    if pattern.m > k or pattern.vector_length > n:
        # The instance must hold one pruning window, which also bounds
        # the operands drawn below.
        raise ConfigurationError(
            f"pattern {pattern.label()} does not fit the {k}x{n} validation "
            "weights (needs M <= k and L <= n)"
        )
    spec = resolve_gpu(gpu)
    calib = calibration_for(spec)
    if params is None:
        params = TileParams(
            ms=32, ns=32, mr=16, nr=32, mt=4, nt=4, ks=2 * pattern.m
        )
    problem = SparseProblem(ProblemShape(m, n, k), pattern)

    rng = np.random.default_rng(seed)
    a = random_dense(m, pattern.padded_k(k), rng)
    b = random_dense(pattern.padded_k(k), pattern.padded_n(n), rng)
    comp = compress(pattern, b)

    def profile(mode: ALoadMode) -> ExecutionProfile:
        return ExecutionProfile(
            name="validation",
            overlap=OverlapMode.DOUBLE_BUFFER,
            a_load=mode,
            aux_instr_per_step=0.0,
            issue_efficiency=1.0,
        )

    full_traffic, geom = compute_traffic(
        problem, params, spec, calib, profile(ALoadMode.FULL)
    )
    packed_traffic, _ = compute_traffic(
        problem, params, spec, calib, profile(ALoadMode.PACKED)
    )

    blocked_trace = KernelTrace()
    nm_spmm_blocked(a, comp, params, trace=blocked_trace)
    packed_trace = KernelTrace()
    nm_spmm_packed(a, comp, params, trace=packed_trace)

    useful_fma = problem.useful_flops / 2
    rows = (
        ValidationRow("blocks", geom.total_blocks, blocked_trace.blocks),
        ValidationRow(
            "iterations x blocks",
            geom.total_blocks * geom.iterations,
            blocked_trace.main_loop_iterations,
        ),
        ValidationRow("fma ops", useful_fma, blocked_trace.fma_ops),
        ValidationRow("A staged bytes", full_traffic.a_staged, blocked_trace.ldg_a_bytes),
        ValidationRow("B staged bytes", full_traffic.b_staged, blocked_trace.ldg_b_bytes),
        ValidationRow("D staged bytes", full_traffic.d_staged, blocked_trace.ldg_d_bytes),
        ValidationRow("C written bytes", full_traffic.c_written, blocked_trace.stg_bytes),
        ValidationRow(
            "packed A staged bytes (expected vs one draw)",
            packed_traffic.a_staged,
            packed_trace.ldg_a_bytes,
        ),
    )
    return ValidationReport(pattern=pattern, params=params, rows=rows)
