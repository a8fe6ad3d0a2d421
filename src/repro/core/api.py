"""User-facing facade: prune, compress, execute, predict.

:class:`NMSpMM` bundles the full workflow of Fig. 2: offline
preparation of the weight matrix (pruning, compression, col_info
pre-processing) and online execution via the strategy- and
version-appropriate kernel, plus performance prediction on any
catalogued GPU.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.backends import (
    AUTO_BACKEND,
    AutoSelector,
    ExecutionRequest,
    ExecutionResult,
    get_backend,
)
from repro.core.plan import ExecutionPlan, build_plan
from repro.core.versions import OptimizationVersion
from repro.errors import ConfigurationError, PlanError, ShapeError
from repro.gpu.catalog import resolve_gpu
from repro.gpu.spec import GPUSpec
from repro.kernels.blocked import KernelTrace
from repro.kernels.tiling import TileParams
from repro.sparsity.colinfo import ColumnInfo, preprocess_offline
from repro.sparsity.compress import NMCompressedMatrix, compress
from repro.sparsity.config import NMPattern
from repro.sparsity.gather import GatherLayout, build_gather_layout
from repro.utils.arrays import as_f32_any_order
from repro.utils.validation import check_int, check_matrix, check_real, check_type, check_weights

__all__ = ["SparseHandle", "NMSpMM", "nm_spmm"]


@dataclass
class SparseHandle:
    """Prepared weights: the compressed matrix plus cached offline
    pre-processing results (one :class:`ColumnInfo` per block shape and
    the fast backend's :class:`GatherLayout`).  Launch plans are not
    cached here: serving keeps them in
    :class:`repro.serve.cache.PlanCache`, and a caller reusing one
    passes it as ``plan=``.

    ``logical_k``/``logical_n`` are the dense weights' dimensions
    *before* compression padded them to pattern multiples; they default
    to the padded values when unknown (e.g. a handle built directly
    from a compressed matrix).
    """

    compressed: NMCompressedMatrix
    logical_k: "int | None" = None
    logical_n: "int | None" = None
    _colinfo_cache: dict[tuple[int, int], ColumnInfo] = field(default_factory=dict)
    _gather_layout: "GatherLayout | None" = field(default=None, repr=False)

    def __post_init__(self) -> None:
        c = self.compressed
        check_int("logical_k", self.logical_k, 1, c.k, error=ShapeError, optional=True)
        check_int("logical_n", self.logical_n, 1, c.n, error=ShapeError, optional=True)

    @property
    def pattern(self) -> NMPattern:
        return self.compressed.pattern

    @property
    def k(self) -> int:
        """Padded reduction dimension (what the kernels consume)."""
        return self.compressed.k

    @property
    def n(self) -> int:
        """Padded output dimension (what the kernels produce)."""
        return self.compressed.n

    @property
    def k_logical(self) -> int:
        """The original weights' k (activations naturally have this)."""
        return self.logical_k if self.logical_k is not None else self.k

    @property
    def n_logical(self) -> int:
        """The original weights' n (outputs are trimmed to this)."""
        return self.logical_n if self.logical_n is not None else self.n

    @property
    def index_itemsize(self) -> int:
        """Bytes per stored entry of the index matrix ``D``."""
        return self.compressed.indices.dtype.itemsize

    @property
    def weight_bytes(self) -> int:
        """Compressed bytes: ``B'`` and ``D``."""
        return self.compressed.total_bytes()

    def shard(self, devices: int, mode: str):
        """These weights partitioned over ``devices`` (see
        :func:`repro.distributed.shard.shard_handle`, which memoizes)."""
        from repro.distributed.shard import shard_handle

        return shard_handle(self, devices, mode)

    def col_info(self, ws: int, ns: int) -> ColumnInfo:
        """The offline pre-processing output for a block shape, cached
        (Listing 3's PreProcessing runs once per deployment)."""
        key = (ws, ns)
        if key not in self._colinfo_cache:
            self._colinfo_cache[key] = preprocess_offline(self.compressed, ws, ns)
        return self._colinfo_cache[key]

    def gather_layout(self) -> GatherLayout:
        """The fast backend's batched-GEMM layout for these weights,
        built on first use and cached for the handle's lifetime
        (:meth:`NMSpMM.prepare` builds it eagerly so serving never pays
        the conversion online)."""
        if self._gather_layout is None:
            self._gather_layout = build_gather_layout(self.compressed)
        return self._gather_layout

    def dense(self) -> np.ndarray:
        """The pruned dense weights (for verification)."""
        return self.compressed.to_dense()


class NMSpMM:
    """The NM-SpMM operator.

    Parameters
    ----------
    pattern:
        The N:M sparsity pattern (N retained of every M vectors of
        length L).
    gpu:
        Default GPU for planning and prediction.
    version:
        Optimization level, ``"V3"`` by default (all optimizations).
    selector:
        The ``backend="auto"`` policy; defaults to the cost-aware
        :class:`~repro.backends.auto.AutoSelector`.  Inspect a choice
        without executing via ``op.selector.explain(op.build_request(
        a, handle))``.

    Examples
    --------
    >>> import numpy as np
    >>> op = NMSpMM(NMPattern(2, 4, vector_length=4))
    >>> rng = np.random.default_rng(0)
    >>> b = rng.standard_normal((64, 32)).astype(np.float32)
    >>> a = rng.standard_normal((16, 64)).astype(np.float32)
    >>> handle = op.prepare(b)
    >>> c = op.execute(a, handle)
    >>> c.shape
    (16, 32)
    """

    def __init__(
        self,
        pattern: NMPattern,
        gpu: "str | GPUSpec" = "A100",
        version: "str | OptimizationVersion" = "V3",
        selector: "AutoSelector | None" = None,
    ):
        self.pattern = check_type("pattern", pattern, NMPattern)
        self.gpu = resolve_gpu(gpu)
        self.version = OptimizationVersion.parse(version)
        self.selector = selector if selector is not None else AutoSelector()

    # ------------------------------------------------------------------
    # Offline
    # ------------------------------------------------------------------
    def prepare(self, b: np.ndarray) -> SparseHandle:
        """Compress the weights — the paper's offline phase.

        :func:`~repro.sparsity.compress.compress` selects each pruning
        window's N highest-energy vectors once and gathers them into
        ``(B', D)`` (weights already N:M pruned come back unchanged);
        the fast backend's gather layout is built here too.  Returns a
        :class:`SparseHandle` reusable across many :meth:`execute`
        calls.
        """
        b = check_weights("b", b)
        logical_k, logical_n = b.shape
        handle = SparseHandle(
            compressed=compress(self.pattern, b),
            logical_k=logical_k,
            logical_n=logical_n,
        )
        handle.gather_layout()
        return handle

    # ------------------------------------------------------------------
    # Online
    # ------------------------------------------------------------------
    def plan_for(
        self,
        m: int,
        handle: SparseHandle,
        params: TileParams | None = None,
    ) -> ExecutionPlan:
        """A freshly built launch plan for batch size ``m`` against
        these weights' padded ``n`` and ``k`` (a layer spec has them
        too).  Nothing is cached: pass it back as ``execute(plan=)``."""
        return build_plan(
            m,
            handle.n,
            handle.k,
            self.pattern,
            self.gpu,
            version=self.version,
            params=params,
        )

    def build_request(
        self,
        a: np.ndarray,
        handle: SparseHandle,
        *,
        params: TileParams | None = None,
        trace: KernelTrace | None = None,
        plan: ExecutionPlan | None = None,
        backend: str = AUTO_BACKEND,
        tracer=None,
    ) -> ExecutionRequest:
        """Validate operands and bundle one execution's inputs into an
        :class:`~repro.backends.base.ExecutionRequest`.

        ``A`` becomes float32 in its own order when it is F-contiguous
        (an F-ordered float32 ``A``, a view of a row-major A^T, is not
        copied) and C-contiguous otherwise.  It may have either the
        handle's logical ``k`` (the original
        weights' row count — zero-padded here, matching the padding
        compression applied to the weights) or the padded ``k``.  An
        explicit ``plan`` must match the operand shapes and the
        handle's pattern; when none is given the request carries a
        planner (:meth:`plan_for`) so backends that need one (the
        structural executors, analytic traces) build it lazily —
        trace-less fast paths never pay plan construction.  A ``tracer``
        (:class:`~repro.obs.tracer.Tracer`) rides along on the request
        so dispatch and selection report spans/events.
        """
        a = as_f32_any_order(check_real("a", check_matrix("a", a)))
        if a.shape[1] == handle.k_logical and handle.k_logical != handle.k:
            pad = np.zeros(
                (a.shape[0], handle.k - a.shape[1]), dtype=np.float32
            )
            a = np.hstack([a, pad])
        elif a.shape[1] != handle.k:
            expected = (
                f"k={handle.k}"
                if handle.k == handle.k_logical
                else f"k={handle.k_logical} (or padded k={handle.k})"
            )
            raise ShapeError(
                f"A has k={a.shape[1]} but the prepared weights expect "
                f"{expected}"
            )
        if plan is not None:
            expected = (a.shape[0], handle.n, handle.k)
            got = (plan.shape.m, plan.shape.n, plan.shape.k)
            if got != expected:
                raise PlanError(
                    f"plan was built for (m, n, k)={got} but the operands "
                    f"have (m, n, k)={expected}"
                )
            if plan.pattern != handle.pattern:
                raise PlanError(
                    f"plan pattern {plan.pattern.label()} does not match "
                    f"the handle's pattern {handle.pattern.label()}"
                )
        return ExecutionRequest(
            a=a,
            handle=handle,
            params=params,
            plan=plan,
            trace=trace,
            backend=backend,
            planner=lambda req: self.plan_for(req.m, req.handle, req.params),
            tracer=tracer,
        )

    def run(self, request: ExecutionRequest) -> ExecutionResult:
        """Dispatch a request to its backend and return the full
        :class:`~repro.backends.base.ExecutionResult` (output plus
        backend provenance, plan, timing, and — under ``"auto"`` — the
        selector's decision).

        With a tracer on the request, the backend's ``run()`` is
        recorded as a ``backend.<name>.run`` span on the ``host``
        track.  Host execution time is wall-clock (the NumPy kernels
        really run), so these spans are *measured*, unlike the
        modeled-clock engine/device spans — deterministic trace tests
        run with numerics off, where no backend ever executes.  A
        tracer constructed with ``modeled_host_spans=True`` opts out:
        the span is stamped with the plan's *modeled* seconds
        (``measured=False``), so even a numerics-on chaos run exports
        a byte-identical trace per seed.
        """
        name = request.backend
        decision = None
        if name == AUTO_BACKEND:
            decision = self.selector.explain(request)
            name = decision.backend
        backend = get_backend(name)
        verdict = backend.supports(request)
        if verdict is not True:
            reason = verdict if isinstance(verdict, str) else "unsupported request"
            raise ConfigurationError(
                f"backend {name!r} cannot run this request: {reason}"
            )
        result = backend.run(request)
        tracer = request.tracer
        if tracer is not None:
            if getattr(tracer, "modeled_host_spans", False):
                span_s = request.resolve_plan().simulate().seconds
                measured = False
            else:
                span_s = result.seconds
                measured = True
            tracer.add_span(
                f"backend.{name}.run",
                tracer.now,
                tracer.now + span_s,
                track="host",
                parent=None,
                backend=name,
                m=request.m,
                k=request.k,
                n=request.handle.n,
                measured=measured,
            )
            tracer.metrics.counter(
                "backend_runs_total", "backend dispatches by name"
            ).inc(backend=name)
        result.decision = decision
        return result

    def execute(
        self,
        a: np.ndarray,
        handle: SparseHandle,
        *,
        params: TileParams | None = None,
        trace: KernelTrace | None = None,
        plan: ExecutionPlan | None = None,
        backend: str = AUTO_BACKEND,
        tracer=None,
    ) -> np.ndarray:
        """Compute ``C = A (*) (B', D)``.

        A thin facade over the backend registry: the keywords are
        bundled into an :class:`~repro.backends.base.ExecutionRequest`
        (:meth:`build_request`), dispatched (:meth:`run`) to the named
        backend — or to the one the cost-aware
        :class:`~repro.backends.auto.AutoSelector` picks under
        ``backend="auto"``, the default — and the padded output is
        trimmed to the handle's logical ``n``.

        Builtin backends (see ``python -m repro backends`` or
        :func:`repro.backends.available_backends`):

        * ``"fast"`` — the batched gather-GEMM kernel over the handle's
          precomputed :class:`~repro.sparsity.gather.GatherLayout`; a
          requested ``trace`` is filled *analytically* from the plan.
          Its output order follows the input's: an F-contiguous ``a``
          with more than one row (a view of a row-major A^T) runs the
          feature-major kernel and returns an F-ordered C, any other
          ``a`` a C-ordered one, with the same bits either way.
        * ``"dense_scatter"`` — scatter the compressed values back to a
          dense B and run one SGEMM; wins below the gather-GEMM's
          vector-length efficiency crossover (e.g. 2:4 with L=4).
        * ``"structural"`` — the per-block executors that mirror the
          CUDA kernel's structure (packed at high sparsity, blocked
          otherwise) and record the trace event by event.

        Any backend registered via
        :func:`repro.backends.register_backend` is accepted by name.
        A precomputed ``plan`` (e.g. from :meth:`plan_for` or a serving
        plan cache) skips plan construction entirely.
        """
        request = self.build_request(
            a,
            handle,
            params=params,
            trace=trace,
            plan=plan,
            backend=backend,
            tracer=tracer,
        )
        out = self.run(request).output
        # Trim the columns compression padded onto B (they are zero, so
        # dropping them loses nothing).
        if handle.n_logical != out.shape[1]:
            out = out[:, : handle.n_logical]
        return out

    # ------------------------------------------------------------------
    # Prediction
    # ------------------------------------------------------------------
    def predict(
        self,
        m: int,
        n: int | None = None,
        k: int | None = None,
        *,
        handle: SparseHandle | None = None,
        gpu: "str | GPUSpec | None" = None,
        version: "str | OptimizationVersion | None" = None,
        params: TileParams | None = None,
    ):
        """Model the launch on a (possibly different) GPU; returns a
        :class:`~repro.model.timing.KernelReport`."""
        if handle is not None:
            n, k = handle.n, handle.k
        if n is None or k is None:
            raise PlanError("predict() needs either a handle or explicit n and k")
        plan = build_plan(
            m,
            n,
            k,
            self.pattern,
            gpu if gpu is not None else self.gpu,
            version=version if version is not None else self.version,
            params=params,
        )
        return plan.simulate()


def nm_spmm(
    a: np.ndarray,
    b: np.ndarray,
    pattern: NMPattern,
    *,
    gpu: "str | GPUSpec" = "A100",
    version: "str | OptimizationVersion" = "V3",
    backend: str = "auto",
) -> np.ndarray:
    """One-shot convenience: prune ``b`` under ``pattern`` and return
    ``A (*) (B', D)``.

    This rebuilds the operator (GPU resolution, pruning, compression and
    plan construction) on **every** call — it is the slow path, meant
    for experiments and doctests.  For repeated products against the
    same weights, construct :class:`NMSpMM` once, call
    :meth:`NMSpMM.prepare` once, and reuse the handle with
    :meth:`NMSpMM.execute` (the paper's offline/online split); for
    serving workloads use :mod:`repro.serve`.

    ``gpu`` and ``version`` pass through to the :class:`NMSpMM`
    constructor so one-shot calls can still target a specific catalogued
    GPU and optimization level; ``backend`` passes through to
    :meth:`NMSpMM.execute`.
    """
    op = NMSpMM(pattern, gpu=gpu, version=version)
    handle = op.prepare(b)
    return op.execute(a, handle, backend=backend)
