"""Pluggable execution backends for NM-SpMM.

The execution layer's public API:

* :class:`~repro.backends.base.Backend` — the protocol (``name`` +
  ``supports(request)`` + ``run(request)``);
* :class:`~repro.backends.base.ExecutionRequest` /
  :class:`~repro.backends.base.ExecutionResult` — the operand/result
  pair every backend consumes and produces;
* :func:`~repro.backends.registry.register_backend` /
  :func:`~repro.backends.registry.get_backend` /
  :func:`~repro.backends.registry.available_backends` /
  :func:`~repro.backends.registry.backend_names` — the process-wide
  registry that replaced the frozen ``EXECUTE_BACKENDS`` constant;
* :class:`~repro.backends.auto.AutoSelector` — the cost-aware
  ``backend="auto"`` policy, with
  :meth:`~repro.backends.auto.AutoSelector.explain` for inspectable
  decisions.

Importing this package registers the builtin host backends in display
order: ``fast`` (batched gather-GEMM), ``structural`` (recorded-trace
executors) and ``dense_scatter`` (scatter-to-dense + SGEMM for the
tiny-L regime).  Tensor-parallel execution is not a backend: the
serving engine runs it through :mod:`repro.distributed`.
"""

from repro.backends.auto import (
    GATHER_FULL_EFFICIENCY_L,
    SCATTER_MACS_PER_ELEMENT,
    AutoSelector,
    SelectionDecision,
)
from repro.backends.base import (
    AnalyticTraceBackend,
    Backend,
    ExecutionRequest,
    ExecutionResult,
    fill_analytic_trace,
)
from repro.backends.dense_scatter import DenseScatterBackend
from repro.backends.fast import FastBackend
from repro.backends.registry import (
    AUTO_BACKEND,
    available_backends,
    backend_names,
    get_backend,
    register_backend,
    unregister_backend,
)
from repro.backends.structural import StructuralBackend

__all__ = [
    "Backend",
    "AnalyticTraceBackend",
    "ExecutionRequest",
    "ExecutionResult",
    "fill_analytic_trace",
    "AUTO_BACKEND",
    "register_backend",
    "unregister_backend",
    "get_backend",
    "available_backends",
    "backend_names",
    "AutoSelector",
    "SelectionDecision",
    "GATHER_FULL_EFFICIENCY_L",
    "SCATTER_MACS_PER_ELEMENT",
    "FastBackend",
    "StructuralBackend",
    "DenseScatterBackend",
]

# Builtin registrations (module initialization runs once per process).
for _backend in (FastBackend(), StructuralBackend(), DenseScatterBackend()):
    register_backend(_backend)
del _backend
