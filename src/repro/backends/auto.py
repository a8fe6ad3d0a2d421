"""Cost-aware backend auto-selection.

``execute(backend="auto")`` — the default — delegates the choice to an
:class:`AutoSelector`, which turns the two branches that used to hide
inside ``execute()`` plus the ROADMAP's per-handle strategy choice
into one inspectable decision:

1. **Provenance first.**  A recorded :class:`KernelTrace` is demanded
   → the structural executors, the only backend that records events
   while running (everything else derives traces from the plan).
2. **Cost race for numerics.**  Modeled cost per output element, in
   MAC-equivalents at full BLAS rate::

       cost_fast          = w / min(1, (L / GATHER_FULL_EFFICIENCY_L)^2)
       cost_dense_scatter = k * (1 + SCATTER_MACS_PER_ELEMENT / m)

   The gather-GEMM path pays ``w = k*N/M`` MACs per output at an
   efficiency that collapses with the vector length ``L`` (each column
   window's GEMM operand is only L columns wide, so below
   ~:data:`GATHER_FULL_EFFICIENCY_L` BLAS decays into skinny products;
   the quadratic ramp is calibrated on the measured
   ``BENCH_kernels.json`` host-BLAS crossovers).  The dense-scatter
   path pays the full ``k`` MACs at full rate *plus* a per-call
   scatter of the whole ``(k, n)`` weight matrix, amortized over the
   batch — which is why tiny batches (serving decode, m=1) stay on
   the gather path even at degenerate L, while batched tiny-L
   problems (e.g. 2:4/L=4 at m=256) route to ``dense_scatter``.
   ``dense_scatter`` wins only when strictly cheaper (ties keep the
   sparse path: no scatter, no densified footprint).

:meth:`AutoSelector.explain` returns the full
:class:`SelectionDecision` — chosen backend, reason, modeled costs and
the rejected candidates with why — so selection is debuggable rather
than folklore.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.backends.base import ExecutionRequest
from repro.backends.registry import (
    available_backends,
    backend_names,
    registry_generation,
)
from repro.errors import ConfigurationError
from repro.utils.cache import LRUCache
from repro.utils.validation import check_float, check_int

__all__ = [
    "GATHER_FULL_EFFICIENCY_L",
    "SCATTER_MACS_PER_ELEMENT",
    "DECISION_MEMO_CAPACITY",
    "SelectionDecision",
    "AutoSelector",
]

#: Vector length at which the batched gather-GEMM reaches full BLAS
#: efficiency in the modeled cost race; efficiency ramps as
#: ``(L / this)^2`` below it.  Calibrated against the tracked
#: host-BLAS benchmark (``BENCH_kernels.json``): at L=4 the gather
#: path runs ~16x below its MAC count (2:4/L=4 measures ~5-18x slower
#: than dense SGEMM despite doing half the MACs), while L=32 runs at
#: or above dense rate.
GATHER_FULL_EFFICIENCY_L = 16

#: Modeled cost, in full-rate MAC-equivalents, of scattering one
#: weight element back to dense (``decompress``'s allocation +
#: ``put_along_axis`` are NumPy-overhead bound, far above a BLAS MAC).
#: The ``k * this / m`` amortization term reproduces the measured
#: batch-size crossover: on a 2:4/L=4 2048x2048 layer dense_scatter
#: loses below m~32 and wins above it.
SCATTER_MACS_PER_ELEMENT = 256

#: Bound on the selector's per-``(handle, m-bucket)`` decision memo.
DECISION_MEMO_CAPACITY = 256


@dataclass(frozen=True)
class SelectionDecision:
    """One auto-selection outcome, fully explained.

    Attributes
    ----------
    backend:
        The chosen backend's registered name.
    reason:
        Why it won, in words.
    costs:
        Modeled cost per output element (MAC-equivalents at full BLAS
        rate) for every candidate that entered the cost race — the
        builtins plus any registered backend exposing an
        ``estimated_cost(request)`` hook; empty when the decision was
        rule-based (trace demanded).
    rejected:
        ``(name, why-not)`` pairs for every *registered* candidate
        passed over (unregistered names never appear; registered
        numerics backends without a cost hook appear with that as the
        reason).
    """

    backend: str
    reason: str
    costs: "dict[str, float]"
    rejected: "tuple[tuple[str, str], ...]" = ()


class AutoSelector:
    """The default ``backend="auto"`` policy.

    Parameters
    ----------
    gather_full_efficiency_l:
        The vector length at which the gather-GEMM path is modeled at
        full BLAS efficiency; lower values make the selector keep the
        sparse path for smaller L.
    scatter_macs_per_element:
        Modeled per-element cost of the dense scatter, amortized over
        the batch; 0 makes the selector ignore the scatter (the
        pre-calibration behavior).
    memo_capacity:
        Bound on the decision memo (below); 0 disables memoization.

    Notes
    -----
    Decisions are memoized per ``(handle, m-bucket)``: serving replays
    the same handle at a handful of padded batch sizes thousands of
    times, and the full cost race (a registry walk plus per-backend
    ``supports``/``estimated_cost`` calls) is pure overhead after the
    first one.  The bucket is the power-of-two bucket of ``m`` (the
    same bucketing the serving batcher pads rows to), so a memoized
    decision is reused for every ``m`` in the bucket — costs inside
    the returned :class:`SelectionDecision` reflect the bucket's first
    request.  The memo key carries the registry's generation counter
    (:func:`~repro.backends.registry.registry_generation`), so any
    backend register/unregister invalidates every cached decision.
    """

    def __init__(
        self,
        *,
        gather_full_efficiency_l: int = GATHER_FULL_EFFICIENCY_L,
        scatter_macs_per_element: float = SCATTER_MACS_PER_ELEMENT,
        memo_capacity: int = DECISION_MEMO_CAPACITY,
    ):
        check_int("gather_full_efficiency_l", gather_full_efficiency_l, 1)
        check_float("scatter_macs_per_element", scatter_macs_per_element, ge=0)
        check_int("memo_capacity", memo_capacity, 0)
        self.gather_full_efficiency_l = gather_full_efficiency_l
        self.scatter_macs_per_element = scatter_macs_per_element
        self._memo: "LRUCache | None" = (
            LRUCache(memo_capacity) if memo_capacity else None
        )

    # ------------------------------------------------------------------
    # Decision memo
    # ------------------------------------------------------------------
    @staticmethod
    def _memo_key(request: ExecutionRequest) -> tuple:
        handle = request.handle
        # id() alone could alias a collected handle's reincarnation, so
        # the key also pins the structural facts the decision reads;
        # the registry generation invalidates on (un)registration.
        return (
            id(handle),
            handle.pattern,
            handle.k,
            handle.n,
            handle.compressed.w,
            request.m.bit_length(),  # the power-of-two m-bucket
            request.wants_trace,
            registry_generation(),
        )

    @property
    def memo_stats(self):
        """Hit/miss/eviction counters of the decision memo (``None``
        when memoization is disabled)."""
        return self._memo.stats if self._memo is not None else None

    # ------------------------------------------------------------------
    def select(self, request: ExecutionRequest) -> str:
        """The chosen backend's name (shorthand for
        ``explain(request).backend``)."""
        return self.explain(request).backend

    def modeled_costs(self, request: ExecutionRequest) -> "dict[str, float]":
        """The cost race's inputs: modeled MAC-equivalents per output
        element for each fast numerics candidate."""
        pattern = request.handle.pattern
        k = request.handle.k
        w = request.handle.compressed.w
        ell = pattern.vector_length
        ratio = ell / self.gather_full_efficiency_l
        efficiency = min(1.0, ratio * ratio)
        return {
            "fast": w / efficiency,
            "dense_scatter": k
            * (1.0 + self.scatter_macs_per_element / max(1, request.m)),
        }

    def explain(self, request: ExecutionRequest) -> SelectionDecision:
        """Decide, and say why — every branch yields a reason.

        Memoized per ``(handle, m-bucket)`` (see the class notes);
        :meth:`explain_uncached` runs the race unconditionally.  When
        the request carries a tracer, the decision (and whether the
        memo answered it) is emitted as a ``backend.select`` event.
        """
        if self._memo is None:
            decision = self.explain_uncached(request)
            self._emit_decision(request, decision, memo="off")
            return decision
        hits_before = self._memo.stats.hits
        decision = self._memo.get_or_build(
            self._memo_key(request),
            lambda: self.explain_uncached(request),
        )
        memo = "hit" if self._memo.stats.hits > hits_before else "miss"
        self._emit_decision(request, decision, memo=memo)
        return decision

    def _emit_decision(
        self,
        request: ExecutionRequest,
        decision: SelectionDecision,
        *,
        memo: str,
    ) -> None:
        """Record one selection on the request's tracer (no-op without
        one): an instant event on the ``host`` track plus a decision
        counter labeled by chosen backend and memo outcome."""
        tracer = request.tracer
        if tracer is None:
            return
        tracer.event(
            "backend.select",
            track="host",
            backend=decision.backend,
            m=request.m,
            memo=memo,
            generation=registry_generation(),
            reason=decision.reason,
        )
        tracer.metrics.counter(
            "backend_select_total", "auto-selector decisions"
        ).inc(backend=decision.backend, memo=memo)

    def explain_uncached(
        self, request: ExecutionRequest
    ) -> SelectionDecision:
        """The actual decision procedure, bypassing the memo."""
        registered = backend_names(include_auto=False)
        if request.wants_trace:
            if "structural" not in registered:
                raise ConfigurationError(
                    "a recorded trace was demanded but no 'structural' "
                    f"backend is registered (have: {sorted(registered)})"
                )
            return SelectionDecision(
                backend="structural",
                reason=(
                    "a recorded KernelTrace was demanded; only the "
                    "structural executors record events while running"
                ),
                costs={},
                rejected=tuple(
                    (name, "only 'structural' records event-level traces")
                    for name in registered
                    if name != "structural"
                ),
            )

        # The cost race: builtins get the calibrated model; any other
        # registered backend may enter by exposing an
        # ``estimated_cost(request) -> float | None`` hook (same unit:
        # MAC-equivalents per output element at full BLAS rate).
        builtin_costs = self.modeled_costs(request)
        costs: "dict[str, float]" = {}
        rejected: "list[tuple[str, str]]" = []
        for backend in available_backends():
            name = backend.name
            if name == "structural":
                rejected.append(
                    (name, "tracing instrument, not a fast numerics path")
                )
                continue
            verdict = backend.supports(request)
            if verdict is not True:
                # A candidate that cannot run this request must never
                # win the race — route around it, with the reason.
                reason = (
                    verdict if isinstance(verdict, str)
                    else "supports() declined the request"
                )
                rejected.append((name, reason))
                continue
            # The instance's own estimate wins over the builtin model:
            # a replacement registered under a builtin name (e.g.
            # register_backend(MyFast(), replace=True)) is priced by
            # its hook, not by a model describing the kernel it isn't.
            estimator = getattr(backend, "estimated_cost", None)
            estimate = estimator(request) if callable(estimator) else None
            if estimate is not None:
                costs[name] = float(estimate)
            elif name in builtin_costs:
                costs[name] = builtin_costs[name]
            else:
                rejected.append((
                    name,
                    "not in the cost race: expose estimated_cost(request) "
                    "to enter auto-selection",
                ))

        if costs:
            # Ties keep the sparse gather path (no scatter, no
            # densified footprint), then registration order.
            order = {name: i for i, name in enumerate(registered)}
            winner = min(
                costs,
                key=lambda n: (costs[n], n != "fast", order[n]),
            )
            for name, cost in costs.items():
                if name != winner:
                    rejected.append((
                        name,
                        f"modeled cost {cost:.0f} MACs/output loses to "
                        f"{winner}'s {costs[winner]:.0f}",
                    ))
            ell = request.handle.pattern.vector_length
            if winner == "dense_scatter":
                fast_cost = costs.get("fast")
                versus = (
                    f" (vs {fast_cost:.0f} for the gather-GEMM, "
                    f"degenerate at L={ell})"
                    if fast_cost is not None
                    else ""
                )
                reason = (
                    f"the batch m={request.m} amortizes the scatter: "
                    "scatter-to-dense + one SGEMM is cheapest at "
                    f"{costs[winner]:.0f} MACs/output{versus}"
                )
            elif winner == "fast":
                reason = (
                    f"gather-GEMM is the cheapest modeled path "
                    f"({costs[winner]:.0f} MACs/output at L={ell}, "
                    f"batch m={request.m})"
                )
            else:
                reason = (
                    f"{winner} estimated the cheapest cost "
                    f"({costs[winner]:.0f} MACs/output)"
                )
            return SelectionDecision(
                backend=winner,
                reason=reason,
                costs=costs,
                rejected=tuple(rejected),
            )
        if "structural" in registered:
            return SelectionDecision(
                backend="structural",
                reason=(
                    "no runnable fast numerics backend; falling back "
                    "to the structural executors"
                ),
                costs=costs,
                rejected=tuple(
                    (name, why)
                    for name, why in rejected
                    if name != "structural"
                ),
            )
        raise ConfigurationError(
            "auto-selection found no registered backend to run the "
            f"request (registered: {sorted(registered)})"
        )

    def describe(self) -> str:
        """One-line summary of the policy (for ``repro backends``)."""
        return (
            "structural when a recorded trace is demanded; else the "
            "cheaper of gather-GEMM (w / min(1, (L/"
            f"{self.gather_full_efficiency_l})^2) MACs/output) and "
            "scatter-to-dense SGEMM (k * (1 + "
            f"{self.scatter_macs_per_element:g}/m)), ties to the "
            "sparse path; registered backends exposing estimated_cost "
            "join the race; decisions memoized per (handle, m-bucket)"
        )
