"""Execution-backend API: the request/result pair and the protocol.

The paper's central design decision is that *how* an NM-SpMM product
runs is a function of the problem's structure — packing vs non-packing
at the 70% sparsity threshold (§III-A), tile geometry from the
hardware model (§III-B).  The execution layer mirrors that: a
:class:`Backend` is one way of evaluating ``C = A (*) (B', D)``, and
every call site hands it a single :class:`ExecutionRequest` instead of
threading an ever-growing keyword list through
:meth:`~repro.core.api.NMSpMM.execute`.

A backend is any object with three members — no subclassing required::

    class MyBackend:
        name = "mine"

        def supports(self, request):
            return True            # or a reason string when it cannot

        def run(self, request):
            return ExecutionResult(output=..., backend=self.name)

Register it with :func:`~repro.backends.registry.register_backend` and
``execute(backend="mine")``, the serving runtime, the ``serve-sim``
CLI and the kernel benchmark can all use it immediately.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from typing import TYPE_CHECKING, Any, Callable, Protocol, runtime_checkable

import numpy as np

from repro.errors import PlanError

if TYPE_CHECKING:  # pragma: no cover
    from repro.core.api import SparseHandle
    from repro.core.plan import ExecutionPlan
    from repro.kernels.blocked import KernelTrace
    from repro.kernels.tiling import TileParams
    from repro.sparsity.colinfo import ColumnInfo

__all__ = [
    "ExecutionRequest",
    "ExecutionResult",
    "Backend",
    "AnalyticTraceBackend",
    "fill_analytic_trace",
]


@dataclass
class ExecutionRequest:
    """Everything one NM-SpMM execution needs, in one place.

    Attributes
    ----------
    a:
        The dense ``(m, k)`` operand, float32, already padded to the
        handle's (padded) ``k`` — the facade owns logical-shape
        padding so backends never see ragged operands.
    handle:
        The prepared weights (:class:`~repro.core.api.SparseHandle`).
    params:
        Optional explicit blocking parameters for plan construction.
    plan:
        Optional precomputed :class:`~repro.core.plan.ExecutionPlan`
        (the one way to reuse a plan across executions); otherwise
        built lazily via :meth:`resolve_plan` when a backend needs one
        (the fast paths never do unless a trace is demanded).
    trace:
        The trace policy: ``None`` means pure numerics; a
        :class:`~repro.kernels.blocked.KernelTrace` asks the backend to
        account the launch's memory/compute events into it (recorded by
        the structural executors, analytic everywhere else).
    backend:
        The backend name the caller asked for (``"auto"`` for
        selector-driven choice) — kept for provenance.
    planner:
        Callable building a plan for this request on demand; attached
        by :meth:`~repro.core.api.NMSpMM.build_request` so backends
        stay decoupled from the operator.
    tracer:
        Optional :class:`~repro.obs.tracer.Tracer`.  When set, the
        dispatch layer records a per-backend ``run()`` span and the
        auto-selector emits its decision (and memo hit/miss) as trace
        events; ``None`` (the default) keeps execution trace-free.
    """

    a: np.ndarray
    handle: "SparseHandle"
    params: "TileParams | None" = None
    plan: "ExecutionPlan | None" = None
    trace: "KernelTrace | None" = None
    backend: str = "auto"
    planner: "Callable[[ExecutionRequest], ExecutionPlan] | None" = None
    tracer: "Any | None" = None

    @property
    def m(self) -> int:
        """Batch size (rows of A)."""
        return self.a.shape[0]

    @property
    def k(self) -> int:
        """Padded reduction dimension (columns of A)."""
        return self.a.shape[1]

    @property
    def wants_trace(self) -> bool:
        return self.trace is not None

    def resolve_plan(self) -> "ExecutionPlan":
        """The request's plan, building (and memoizing) it through the
        attached planner when none was given."""
        if self.plan is None:
            if self.planner is None:
                raise PlanError(
                    "request carries no ExecutionPlan and no planner; pass "
                    "plan= or build the request via NMSpMM.build_request()"
                )
            self.plan = self.planner(self)
        return self.plan

    def col_info_for(self, plan: "ExecutionPlan") -> "ColumnInfo":
        """The offline pre-processing a packing plan's executor (or its
        analytic trace) consumes, cached on the handle."""
        ws = min(plan.ws, self.handle.compressed.w)
        return self.handle.col_info(ws, plan.params.ns)


@dataclass
class ExecutionResult:
    """What one backend run produced, with provenance.

    ``output`` is the padded ``(m, n)`` product; the facade trims it to
    the handle's logical ``n``.  ``decision`` carries the
    :class:`~repro.backends.auto.SelectionDecision` when the backend
    was chosen by the auto-selector rather than named explicitly.
    """

    output: np.ndarray
    backend: str
    plan: "ExecutionPlan | None" = None
    seconds: float = 0.0
    trace_filled: bool = False
    decision: Any = None


@runtime_checkable
class Backend(Protocol):
    """The pluggable execution-backend protocol (structural typing —
    any object with these members qualifies)."""

    name: str

    def supports(self, request: ExecutionRequest) -> "bool | str":
        """``True`` when the backend can run ``request``; otherwise a
        human-readable reason why not."""
        ...  # pragma: no cover

    def run(self, request: ExecutionRequest) -> ExecutionResult:
        """Evaluate the product and return the result with provenance."""
        ...  # pragma: no cover

    # Optional members (not part of the structural check):
    #
    # ``capabilities() -> dict`` — metadata for ``repro backends``
    # (keys: description, traces, needs_plan).
    #
    # ``estimated_cost(request) -> float | None`` — modeled cost in
    # MAC-equivalents per output element at full BLAS rate; exposing it
    # enters the backend into the AutoSelector's ``backend="auto"``
    # cost race.


def fill_analytic_trace(request: ExecutionRequest) -> "ExecutionPlan":
    """Merge the closed-form :class:`KernelTrace` of the request's plan
    into ``request.trace`` (shared by every backend that computes
    numerics off the structural path)."""
    plan = request.resolve_plan()
    col_info = request.col_info_for(plan) if plan.uses_packing else None
    request.trace.merge(
        plan.analytic_trace(
            col_info,
            index_itemsize=request.handle.compressed.indices.dtype.itemsize,
        )
    )
    return plan


class AnalyticTraceBackend:
    """Base for backends whose numerics run off the structural path:
    the shared trace guard in :meth:`supports`, and a :meth:`run` that
    times :meth:`_compute`, fills a requested trace via the
    :meth:`_fill_trace` hook, and wraps the provenance.  Subclasses
    set ``name`` and implement ``_compute(request) -> np.ndarray``;
    the default :meth:`_fill_trace` derives the trace analytically
    from the plan, and a subclass whose data movement differs from the
    blocked executor's (e.g. ``dense_scatter``) overrides it to
    account its *own* memory/compute events instead."""

    name: str

    def supports(self, request: ExecutionRequest) -> "bool | str":
        if request.wants_trace and request.plan is None and request.planner is None:
            return (
                "an analytic trace needs an ExecutionPlan but the request "
                "carries neither a plan nor a planner"
            )
        return True

    def _compute(self, request: ExecutionRequest) -> np.ndarray:
        raise NotImplementedError  # pragma: no cover

    def _fill_trace(self, request: ExecutionRequest) -> "ExecutionPlan | None":
        """Account the launch's events into ``request.trace`` and
        return the plan consulted (if any)."""
        plan = fill_analytic_trace(request)
        request.trace.tag_backend(self.name)
        return plan

    def run(self, request: ExecutionRequest) -> ExecutionResult:
        start = time.perf_counter()
        out = self._compute(request)
        seconds = time.perf_counter() - start
        plan = request.plan
        if request.wants_trace:
            plan = self._fill_trace(request)
        return ExecutionResult(
            output=out,
            backend=self.name,
            plan=plan,
            seconds=seconds,
            trace_filled=request.wants_trace,
        )
