"""Plan caching for the serving runtime.

Plan construction (Table I lookup, Eq. 5 ``ks``, strategy selection)
and the perf-model simulation of the resulting launch are pure
functions of the launch geometry, so the server shares one bounded LRU
across all registered models keyed by ``(model, padded_m, gpu,
version)`` — the GPU spec and optimization version shape the plan just
as much as the row count, so two models serving on different simulated
GPUs (or at different optimization levels) never collide.  The
batcher's row bucketing collapses the batch-size distribution onto a
few buckets, so the cache converges to near-100% hits after warm-up.
``ColumnInfo`` (Listing 3's offline pre-processing) is likewise reused
— it lives on the :class:`~repro.core.api.SparseHandle` each model's
layer spec prepares, and is built at most once per block shape.  Only a traced run reads a launch's
analytic trace (:attr:`PlanEntry.trace`), so only a traced run reads
``ColumnInfo`` at all.

A walk of a model's stack (its layers, or a plain entry's one
launch) is priced once per run (see ``InferenceServer._price``): in an
untraced run with no fault plan, later walks of the same model at the
same padded row count (memoized on the model's run-local lane, which a
re-shard clears) replay their lookups through
:meth:`PlanCache.refresh`, so the stats still count one hit per launch
and device, and the LRU recency is what the lookups would have left.
Replaying the same walk again with no lookup in between only counts
its hits (:class:`LRUCache`), so a repeated decode step is O(1) here.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property
from typing import Sequence

from repro.core.api import NMSpMM
from repro.core.plan import ExecutionPlan
from repro.utils.cache import CacheStats, LRUCache

__all__ = ["CacheStats", "LRUCache", "PlanEntry", "PlanCache"]


@dataclass(frozen=True)
class PlanEntry:
    """What the serving engine needs per launch geometry: the execution
    plan, its perf-model report (modeled seconds drive the simulated
    clock), and the weights it was planned for, from which
    :attr:`trace` derives the launch's closed-form FLOP and byte counts
    when a traced run first asks for them."""

    plan: ExecutionPlan
    report: object  # KernelReport; kept untyped to avoid a model import
    #: The launch's layer spec, which builds its weights on demand
    #: (only a packing plan's trace reads them, via col_info).
    handle: object = field(default=None, repr=False, compare=False)

    @property
    def modeled_seconds(self) -> float:
        return self.report.seconds  # type: ignore[attr-defined]

    @cached_property
    def trace(self):
        """The launch's closed-form :class:`~repro.kernels.blocked.
        KernelTrace`, built on first read."""
        plan, handle = self.plan, self.handle
        packing = plan.uses_packing
        col_info = handle.col_info(plan.ws, plan.params.ns) if packing else None
        return plan.analytic_trace(col_info, index_itemsize=handle.index_itemsize)

    @property
    def launch_cost(self) -> "tuple[int, int, int]":
        """``(flops, ldg_bytes, stg_bytes)`` of one launch — the
        roofline-attribution counts the tracer stamps on its
        ``gpu.launch`` span."""
        t = self.trace
        return (t.flops, t.ldg_bytes, t.stg_bytes)


@dataclass
class PlanCache:
    """The shared ``(model, m, gpu, version) -> PlanEntry`` LRU of the
    server."""

    capacity: int = 64
    _lru: LRUCache = field(init=False)

    def __post_init__(self) -> None:
        self._lru = LRUCache(self.capacity)

    @staticmethod
    def key(model: str, op: NMSpMM, m: int) -> tuple:
        """The cache key of an ``m``-row launch of ``model``."""
        return (model, m, op.gpu.name, op.version.value)

    def lookup(
        self, model: str, op: NMSpMM, handle, m: int
    ) -> PlanEntry:
        """The plan + modeled report for an ``m``-row launch of
        ``model``, building both on first use.  ``handle`` is the
        launch's layer spec (or anything with its padded ``n``/``k``).

        Hit/miss accounting lives in :attr:`stats`; a tracing server
        reads the stats delta around this call to emit
        ``plan_cache.hit``/``plan_cache.miss`` events (see
        ``InferenceServer._cached_plan``), so the cache itself stays
        observability-free."""
        key = self.key(model, op, m)

        def build() -> PlanEntry:
            # This LRU is the single owner of serving plans (handles
            # cache none), so evicting an entry really frees it.
            plan = op.plan_for(m, handle)
            return PlanEntry(plan=plan, report=plan.simulate(), handle=handle)

        return self._lru.get_or_build(key, build)

    def refresh(self, keys: "Sequence[tuple]") -> None:
        """Replay hits on cached ``keys`` (see :meth:`LRUCache.refresh`)."""
        self._lru.refresh(keys)

    @property
    def generation(self) -> int:
        """Moves on every eviction and clear (see :class:`LRUCache`)."""
        return self._lru.generation

    @property
    def stats(self) -> CacheStats:
        return self._lru.stats

    def __len__(self) -> int:
        return len(self._lru)

    def clear(self) -> None:
        self._lru.clear()
