"""The serving engine: model registry + discrete-event simulation.

:class:`InferenceServer` owns the registered models (each an
:class:`~repro.core.api.NMSpMM` operator plus a
:class:`~repro.serve.model_exec.executor.LayerSpec` of its weights'
shape, which prepares them on first read), per-device plan caches, and
a simulated GPU — or, with ``devices > 1``, a simulated multi-GPU
:class:`~repro.distributed.topology.DeviceGroup` that every model's
layer spec is sharded tensor-parallel across at registration (its
weights on their first numerics launch).
``simulate`` replays a seeded request trace through the batching layer
with a discrete-event loop:

* requests are admitted to their model's queue at arrival time — to
  the *decode* queue (rolling continuous batch) when continuous
  batching is enabled and the request is decode-shaped, else to the
  *prefill* queue (cut-and-wait dynamic batcher);
* whenever the GPU is free, the most urgent launchable work runs: a
  prefill queue that fills a batch budget, blows its max-wait deadline,
  or sits nonempty after the arrival stream has drained — or a
  continuous step whenever decode work is resident or waiting.
  Urgency follows the :class:`~repro.serve.scheduling.SchedulingPolicy`
  (arrival order, strict priority, or priority + earliest deadline);
* a launch's service time is the perf model's prediction for the
  padded batch shape (plus a fixed host overhead), so the latency
  curves reflect the paper's modeled GPU timing while the numerics run
  through the real NumPy kernels.  A multi-step (decode-sequence)
  request charges one modeled launch per step: the dynamic path holds
  the whole batch until its longest member finishes, while the
  continuous path re-forms the rolling batch between steps;
* every continuous step — a single projection's or a whole model's —
  takes one path (``InferenceServer._step``): refill, form the batch,
  price it, draw the launch fault, then either the failed-step
  accounting or advance, records and spans.  Every launch is priced
  as a walk of the model's stack (``InferenceServer._price``; a plain
  entry is a one-layer stack); only a model entry's KV phase and its
  prefill walks differ.  In an untraced, fault-free run without
  numerics, a step in which nobody finishes, is preempted or is
  evicted repeats inside ``_step`` until the run's next event, leaving
  the records an engine turn per step would have left.

With a :class:`~repro.faults.FaultPlan` attached, the run is subjected
to seeded chaos — transient launch failures, device fail-stop and
slow-down, link degradation — and with a
:class:`~repro.serve.resilience.ResiliencePolicy` the engine survives
it: failed launches retry with exponential backoff on the simulated
clock, requests past their timeout are cancelled wherever they live,
a per-device circuit breaker benches a device that fails repeatedly
(half-open: it rejoins after a cooldown, or fail-stops for good when
the cooldown is disabled), dead devices trigger re-sharding of the
affected models onto the survivors, and admission control sheds
low-priority load under
backlog.  Every submitted request terminates exactly once — completed,
shed, timed-out, or failed — and the run's
:meth:`~repro.serve.metrics.ServingMetrics.reconcile` proves it.

Everything advances on the simulated clock — two runs of the same trace
produce identical reports.
"""

from __future__ import annotations

import heapq
import math
from dataclasses import dataclass, field

import numpy as np

from repro.backends.registry import backend_names
from repro.core.api import NMSpMM
from repro.distributed.shard import SHARD_MODES, ShardedHandle, shard_handle
from repro.distributed.sharded import DistributedStep, sharded_execute
from repro.distributed.topology import MAX_DEVICES, CommEvent, DeviceGroup, Link, get_link
from repro.errors import ServeError
from repro.faults import FaultInjector, FaultPlan, parse_fault_spec
from repro.gpu.spec import GPUSpec
from repro.obs.tracer import Tracer
from repro.serve.batcher import BatchingPolicy, ContinuousBatcher, DynamicBatcher
from repro.serve.cache import PlanCache
from repro.serve.metrics import (
    BatchRecord,
    DropRecord,
    ReshardRecord,
    ServingMetrics,
    StepRecord,
    fill_registry,
)
from repro.serve.model_exec.executor import LayerSpec, ModelSpec
from repro.serve.model_exec.memory import (
    KV_ADMISSION_MODES,
    DeviceMemoryModel,
)
from repro.serve.queue import RequestQueue
from repro.serve.request import InferenceRequest, RequestRecord
from repro.serve.resilience import ResiliencePolicy
from repro.serve.scheduling import SchedulingPolicy, request_order_key
from repro.sparsity.config import NMPattern
from repro.utils.validation import check_choice, check_float, check_int, check_type, check_weights

__all__ = ["ModelEntry", "ServingReport", "InferenceServer"]

#: Fixed host-side cost charged per batch launch (scheduling, argument
#: marshalling) on top of the modeled GPU time.
DEFAULT_HOST_OVERHEAD_S = 10e-6


def _add_per_device(
    total: "tuple[float, ...]", seconds: "tuple[float, ...]"
) -> "tuple[float, ...]":
    """Per-device seconds summed device by device (``()`` — a
    single-device launch — adds nothing)."""
    if not total:
        return tuple(seconds)
    if not seconds:
        return total
    return tuple(a + b for a, b in zip(total, seconds, strict=True))


@dataclass(frozen=True)
class ModelEntry:
    """One registered weight matrix and its operator.

    ``devices`` holds the physical device ids the entry occupies, in
    shard-slot order.  On two or more devices the entry additionally
    carries the tensor-parallel partition of its weights and the device
    group they execute on; single-device entries leave both ``None``.
    """

    name: str
    op: NMSpMM
    #: The weights' layer spec: priced from its shape, and prepared
    #: (:meth:`LayerSpec.weights`) only when numerics or a packing
    #: plan's trace read it.
    handle: LayerSpec
    devices: "tuple[int, ...]" = (0,)
    sharded: "ShardedHandle | None" = None
    group: "DeviceGroup | None" = None
    #: Model-mode: the model this entry serves (a :class:`ModelSpec`,
    #: priced from its layer shapes), plus one per-layer sub-entry per
    #: layer (each with its own spec, shards, and plan-cache key, on the
    #: same ``devices``).  Plain matmul entries leave both unset.
    executor: "ModelSpec | None" = None
    layers: "tuple[ModelEntry, ...]" = ()

    @property
    def distributed(self) -> bool:
        """Whether launches shard over a device group."""
        return len(self.devices) > 1

    @property
    def k(self) -> int:
        """Activation width requests must have (the weights' logical
        k; compression padding is internal to execute)."""
        if self.executor is not None:
            return self.executor.hidden
        return self.handle.k_logical

    @property
    def n(self) -> int:
        """Output width requests receive (the weights' logical n)."""
        if self.executor is not None:
            return self.executor.vocab
        return self.handle.n_logical

    def describe(self) -> str:
        if self.executor is not None:
            text = (
                f"{self.name}: {self.executor.model.name} "
                f"({len(self.layers)} layers, "
                f"{self.executor.pattern.label()}) "
                f"gpu={self.op.gpu.name} {self.op.version.value}"
            )
        else:
            text = (
                f"{self.name}: {self.op.pattern.label()} "
                f"k={self.k} n={self.n} gpu={self.op.gpu.name} "
                f"{self.op.version.value}"
            )
        if self.distributed:
            placed = self.layers[0] if self.layers else self
            text += (
                f" [{placed.sharded.mode}-parallel x"
                f"{placed.sharded.devices} over {placed.group.link.name}]"
            )
        return text


@dataclass
class _Lane:
    """One registered model's share of a ``simulate()`` run."""

    #: The entry launches execute with: the registered one, or its
    #: re-sharded replacement after a fail-stop.
    entry: ModelEntry
    prefill: RequestQueue
    #: The rolling decode batch and its queue (continuous batching only).
    decode: "RequestQueue | None" = None
    cb: "ContinuousBatcher | None" = None
    #: No continuous step before this time (decode backoff).
    holdoff_s: float = 0.0
    #: Consecutive failed continuous steps.
    cb_streak: int = 0
    #: padded_rows -> _WalkMemo: each walk of ``entry``'s stack (a
    #: plain entry's is one launch) priced once per untraced,
    #: fault-free run (a re-shard replaces ``entry`` and clears this).
    walks: dict = field(default_factory=dict)


@dataclass
class _RunState:
    """Run-local state of one ``simulate()`` call.

    Everything that changes during a run lives here: one lane per model
    (queues, batcher, and the entry a fail-stop may re-shard), the
    injector (rebuilt, its seeded stream rewound, per run), and
    breaker/retry/timeout bookkeeping that starts empty — so the
    registry stays immutable and back-to-back runs of the same trace
    stay byte-identical.
    """

    metrics: ServingMetrics
    injector: "FaultInjector | None" = None
    resilience: "ResiliencePolicy | None" = None
    rng: "np.random.Generator | None" = None  # backoff jitter stream
    #: model -> _Lane, in registration order.
    lanes: dict = field(default_factory=dict)
    #: fail-stopped physical devices (plan-scheduled, or breaker-opened
    #: permanently under ``breaker_cooldown_s=None``).
    dead: set = field(default_factory=set)
    #: physical device -> circuit-close (revival) time of a half-open
    #: breaker; models touching the device hold launches until then.
    breaker_down: dict = field(default_factory=dict)
    #: physical device -> consecutive attributed launch failures.
    breaker_streak: dict = field(default_factory=dict)
    #: request_id -> failed launch attempts so far.
    attempts: dict = field(default_factory=dict)
    #: (ready_s, request_id, request) backoff heap of pending retries.
    retry_heap: list = field(default_factory=list)
    #: request_id -> absolute cancellation deadline of every request
    #: not yet completed or dropped (``_complete``/``_drop`` delete it).
    deadlines: dict = field(default_factory=dict)
    #: (deadline, request_id) min-heap over ``deadlines``, built once
    #: per run; entries of finished requests are popped lazily.
    deadline_heap: list = field(default_factory=list)
    #: Arrival time of the next request not yet admitted (or ``inf``).
    next_arrival_s: float = math.inf
    resharded: bool = False
    #: Simulated HBM pool of the run (set when any registered model
    #: is a model entry).
    memory: "DeviceMemoryModel | None" = None
    #: The run's aggregate HBM budget at full device count — the base
    #: a fail-stop's survivor budget is scaled from.
    hbm_base_budget: int = 0


@dataclass
class _WalkMemo:
    """One walk of a lane's stack, priced once and replayed.

    Valid while every plan cache the walk looked up in is still at the
    generation it was priced at: no key has left those caches since
    (and a plan cache only inserts on a miss), so each of the walk's
    lookups would hit and return the same plan entry.  A replay
    refreshes those keys in walk order, so the cache stats and LRU
    recency are exactly what the per-launch lookups would have left.
    Only runs with neither a tracer nor a fault injector keep memos
    (see ``InferenceServer._price``), so a ``walk`` is always priced
    on healthy devices with no events to emit.  A step that
    ``InferenceServer._step`` repeats in place replays its walk.  Memos
    live on the walked entry's lane (:attr:`_Lane.walks`), which a
    re-shard clears along with installing the new entry.
    """

    #: ``(plan cache, generation, keys in walk order)`` per cache.
    caches: tuple
    #: The priced ``(total_s, layer_spans, per_device_s, comm_s)``.
    walk: tuple

    def current(self) -> bool:
        for cache, generation, _ in self.caches:
            if cache.generation != generation:
                return False
        return True

    def refresh(self) -> None:
        for cache, _, keys in self.caches:
            cache.refresh(keys)


@dataclass
class ServingReport:
    """Everything one simulated run produced."""

    metrics: ServingMetrics
    policy: BatchingPolicy
    plan_cache_stats: dict
    model_names: list[str]
    numerics: bool
    backend: str = "auto"
    scheduling: str = SchedulingPolicy.FIFO.value
    continuous: bool = False
    devices: int = 1
    shard: "str | None" = None
    link: "str | None" = None
    faults: "str | None" = None
    resilience: "str | None" = None
    #: The run's reconciled HBM pool (only on executor-backed runs) —
    #: its ``peak_bytes``/``peak_t_s`` back the never-over-budget check.
    memory_model: "DeviceMemoryModel | None" = None

    @property
    def request_records(self) -> list[RequestRecord]:
        return self.metrics.request_records

    def summary(self, extra: "dict | None" = None) -> dict:
        out = self.metrics.summary(
            {
                "models": self.model_names,
                "numerics": self.numerics,
                "backend": self.backend,
                "plan_cache": self.plan_cache_stats,
                "policy": {
                    "scheduling": self.scheduling,
                    "continuous_batching": self.continuous,
                    "max_batch_requests": self.policy.max_batch_requests,
                    "max_batch_rows": self.policy.max_batch_rows,
                    "max_wait_ms": self.policy.max_wait_s * 1e3,
                    "pad_rows_quantum": self.policy.pad_rows_quantum,
                    "pow2_rows": self.policy.pow2_rows,
                    "decode_rows_threshold": self.policy.decode_rows_threshold,
                },
            }
        )
        if self.devices > 1:
            out["topology"] = {
                "devices": self.devices,
                "shard": self.shard,
                "link": self.link,
            }
        if self.faults is not None or self.resilience is not None:
            out["chaos"] = {
                "faults": self.faults,
                "resilience": self.resilience,
            }
        if extra:
            out.update(extra)
        return out

    def render(self, title: str = "serve-sim") -> str:
        text = self.metrics.render(title=title)
        cache = self.plan_cache_stats
        text += (
            f"\nplan cache: {cache['hits']} hits / {cache['misses']} misses "
            f"({cache['hit_rate'] * 100:.1f}% hit rate, "
            f"{cache['evictions']} evictions)"
        )
        text += f"\nscheduling: {self.scheduling}"
        if self.continuous:
            text += (
                " + continuous batching (decode rows <= "
                f"{self.policy.decode_rows_threshold})"
            )
        if self.devices > 1:
            text += (
                f"\ntopology: {self.devices} devices, "
                f"{self.shard}-parallel over {self.link}"
            )
        if self.faults is not None:
            text += f"\nfaults: {self.faults}"
        if self.resilience is not None:
            text += f"\nresilience: {self.resilience}"
        text += f"\nmodels: {', '.join(self.model_names)}"
        return text


class InferenceServer:
    """Single-process serving runtime over NM-SpMM operators.

    Parameters
    ----------
    policy:
        Default batching policy (overridable per ``simulate`` call).
    plan_cache_capacity:
        Entries in the shared plan LRU (keyed by model, padded row
        count, GPU, and optimization version — see
        :class:`~repro.serve.cache.PlanCache`).
    execute_numerics:
        When True each batch also runs through the NumPy kernels and
        every request record carries its output slice; when False only
        the modeled timing is produced (pure scheduling study), and
        without a ``tracer`` no registered weight is prepared.
    host_overhead_s:
        Fixed per-launch host cost added to the modeled GPU time.
    backend:
        Kernel backend every batch executes with — any name the
        backend registry (:mod:`repro.backends`) knows, validated here
        so misconfiguration fails at construction rather than on the
        first batch.  The default ``"auto"`` lets the cost-aware
        selector choose per model handle (gather-GEMM for healthy
        vector lengths, scatter-to-dense below the efficiency
        crossover); the server only needs numerics and modeled timing,
        never recorded traces, so auto never lands on the structural
        executors.
    scheduling:
        Queue-order and queue-selection policy: ``"fifo"`` (arrival
        order), ``"priority"`` (strict tiers), or ``"slo-edf"``
        (strict tiers + earliest deadline first within a tier).
    continuous_batching:
        Route decode-shaped requests (rows <= the policy's
        ``decode_rows_threshold``) to a rolling in-flight batch that
        refills every engine step instead of waiting for a fresh cut.
    devices:
        Simulated device count.  ``1`` (the default) is the
        single-GPU server; ``> 1`` shards every registered model's
        weights tensor-parallel across a
        :class:`~repro.distributed.topology.DeviceGroup` built from the
        model's own GPU spec — each device gets its own plan cache, a
        launch's modeled time is the slowest device plus the mode's
        ring collective, and numerics (when enabled) run the real
        per-device gather-GEMM kernels.  Distributed numerics always
        take the sharded path; ``backend`` applies to single-device
        entries only.
    shard:
        Tensor-parallel mode for ``devices > 1``: ``"column"`` (shard
        n, all-gather outputs) or ``"row"`` (shard k, all-reduce
        partials).
    link:
        Interconnect of the simulated group — a name from
        :data:`~repro.distributed.topology.LINKS` or an explicit
        :class:`~repro.distributed.topology.Link`.
    tracer:
        Optional :class:`~repro.obs.tracer.Tracer`.  When set, every
        simulated run records spans on the simulated clock — request
        admission and queue waits, batch/step launches with nested
        per-device compute and ring-collective children, plan-cache
        hits/misses, continuous-batching join/evict/preempt.  At the
        end of each run the serving counters, histograms and gauges in
        ``tracer.metrics`` are filled from the run's records
        (:func:`~repro.serve.metrics.fill_registry`).  ``None`` (the
        default) keeps serving observation-free.
    faults:
        Optional :class:`~repro.faults.FaultPlan` (or a ``--faults``
        spec string) applied to every simulated run: transient launch
        failures, device fail-stop/slow-down, link degradation.  The
        plan's seed drives one run-local random stream, so the same
        plan and trace produce the identical fault schedule.
    resilience:
        Optional :class:`~repro.serve.resilience.ResiliencePolicy`
        (``True`` for the defaults): retries with backoff, timeouts,
        circuit breaking, re-sharding onto survivors, load shedding.
        ``None`` (the default) serves without a safety net — any
        injected launch failure permanently fails its requests.
    hbm_bytes:
        Model-mode only: aggregate simulated HBM of the device group.
        ``None`` (the default) takes the executor GPU's catalog
        ``dram_gb`` times ``devices``; scaled-down scenarios pass a
        small explicit budget so memory pressure is actually exercised.
    kv_admission:
        ``"kv-aware"`` (default): continuous-batch admission refuses
        sequences whose KV cache would overflow the budget, and memory
        pressure evicts residents (cheapest modeled re-prefill first)
        before growth; resident bytes never exceed the budget.
        ``"none"``: the no-memory-model baseline — everything is
        admitted and each overflowing step pays host-link thrash time
        (spilled KV bytes over ``host_link_bytes_per_s``).
    host_link_bytes_per_s:
        Modeled host<->device bandwidth the ``"none"`` baseline's KV
        spill/reload thrash is priced against (default ~PCIe gen4).
    """

    def __init__(
        self,
        *,
        policy: "BatchingPolicy | None" = None,
        plan_cache_capacity: int = 64,
        execute_numerics: bool = True,
        host_overhead_s: float = DEFAULT_HOST_OVERHEAD_S,
        backend: str = "auto",
        scheduling: "str | SchedulingPolicy" = SchedulingPolicy.FIFO,
        continuous_batching: bool = False,
        devices: int = 1,
        shard: str = "column",
        link: "str | Link" = "nvlink",
        tracer: "Tracer | None" = None,
        faults: "FaultPlan | str | None" = None,
        resilience: "ResiliencePolicy | bool | None" = None,
        hbm_bytes: "int | None" = None,
        kv_admission: str = "kv-aware",
        host_link_bytes_per_s: float = 16e9,
    ):
        check_float("host_overhead_s", host_overhead_s, ge=0, error=ServeError)
        check_int("hbm_bytes", hbm_bytes, 1, error=ServeError, optional=True)
        check_choice("kv admission mode", kv_admission, KV_ADMISSION_MODES, error=ServeError)
        check_float("host_link_bytes_per_s", host_link_bytes_per_s, gt=0, error=ServeError)
        check_choice("backend", backend, backend_names(), error=ServeError)
        check_int("devices", devices, 1, MAX_DEVICES, error=ServeError)
        check_choice("shard mode", shard, SHARD_MODES, error=ServeError)
        check_type("policy", policy, BatchingPolicy, error=ServeError, optional=True)
        check_type("tracer", tracer, Tracer, error=ServeError, optional=True)
        check_type("faults", faults, (FaultPlan, str), error=ServeError, optional=True)
        check_type(
            "resilience", resilience, (ResiliencePolicy, bool), error=ServeError, optional=True
        )
        self.policy = policy or BatchingPolicy()
        #: One plan cache per simulated device (a shard's launch
        #: geometry differs per device when windows divide unevenly, so
        #: sharing one LRU would let devices evict each other's plans).
        self.plan_caches: tuple[PlanCache, ...] = tuple(
            PlanCache(capacity=plan_cache_capacity) for _ in range(devices)
        )
        self.plan_cache = self.plan_caches[0]
        self.execute_numerics = execute_numerics
        self.host_overhead_s = host_overhead_s
        self.backend = backend
        self.scheduling = SchedulingPolicy.parse(scheduling)
        self.continuous_batching = continuous_batching
        self.devices = devices
        self.shard = shard
        self.link = get_link(link)
        self.tracer = tracer
        if isinstance(faults, str):
            faults = parse_fault_spec(faults)
        if faults is not None:
            # launch:device= is reduced modulo the group width instead.
            for fault in (*faults.device_failures, *faults.slowdowns):
                if fault.device >= devices:
                    raise ServeError(
                        f"fault plan names device {fault.device}, but the "
                        f"server has {devices} device(s)"
                    )
        self.faults = faults
        if resilience is True:
            resilience = ResiliencePolicy()
        elif resilience is False:
            resilience = None
        self.resilience = resilience
        #: Aggregate simulated HBM of the device group in bytes for
        #: model-mode runs; ``None`` reads the executor GPU's catalog
        #: ``dram_gb`` (times ``devices``).
        self.hbm_bytes = hbm_bytes
        #: ``"kv-aware"`` — admission/growth respects the HBM budget
        #: and memory pressure evicts; ``"none"`` — the baseline with
        #: no memory model, where overflow costs host-link thrash.
        self.kv_admission = kv_admission
        #: Modeled host<->device link rate the ``"none"`` baseline's
        #: KV spill/reload thrash is priced against.
        self.host_link_bytes_per_s = host_link_bytes_per_s
        self._models: dict[str, ModelEntry] = {}
        self._inbox: list[InferenceRequest] = []

    # ------------------------------------------------------------------
    # Registry
    # ------------------------------------------------------------------
    def register_model(
        self,
        name: str,
        weights: np.ndarray,
        pattern: NMPattern,
        *,
        gpu: "str | GPUSpec" = "A100",
        version: str = "V3",
    ) -> ModelEntry:
        """Register ``weights`` under ``name``, priced from their shape.
        A float32 copy taken here is prepared on the entry's first read
        (numerics, or a traced packing plan's ``D``) and then dropped."""
        weights = check_weights("weights", weights)
        op = NMSpMM(pattern, gpu=gpu, version=version)
        copy = weights.astype(np.float32)
        spec = LayerSpec.plain(name, op, *copy.shape, lambda: copy)
        return self.register_handle(name, op, spec)

    def _check_new_name(self, name: str) -> None:
        if not name:
            raise ServeError("model name must be nonempty")
        if name in self._models:
            raise ServeError(f"model {name!r} is already registered")

    def register_handle(self, name: str, op: NMSpMM, handle: LayerSpec) -> ModelEntry:
        """Register a plain :class:`LayerSpec` (see :meth:`LayerSpec.plain`)
        under ``name``, sharded like its weights on a distributed server."""
        self._check_new_name(name)
        entry = self._placed(name, op, handle, tuple(range(self.devices)))
        self._models[name] = entry
        return entry

    def register_executor(
        self, name: str, executor: ModelSpec
    ) -> ModelEntry:
        """Register a whole model under ``name``: a :class:`ModelSpec`,
        priced from its layer shapes (a built ``ModelExecutor`` is one
        too).  Every layer becomes a per-layer sub-entry (own spec, own
        shards on a distributed server, own plan-cache key), and
        requests against ``name`` must be model-mode
        (``prompt_len``/``max_new_tokens``): the engine walks prefill
        and per-token decode through the sub-entries, one modeled
        gather-GEMM launch per layer per step."""
        self._check_new_name(name)
        if self.execute_numerics:
            raise ServeError(
                "model-mode serving is modeled-time only; build the "
                "server with execute_numerics=False (use the executor's "
                "own logits()/hidden_states() for numerics)"
            )
        if not self.continuous_batching:
            raise ServeError(
                "model-mode serving decodes through the rolling batch; "
                "build the server with continuous_batching=True"
            )
        entry = self._placed(
            name, executor.op, executor.layers[0], tuple(range(self.devices)),
            executor,
        )
        self._models[name] = entry
        return entry

    def _placed(
        self,
        name: str,
        op: NMSpMM,
        handle: LayerSpec,
        devices: "tuple[int, ...]",
        executor: "ModelSpec | None" = None,
    ) -> ModelEntry:
        """An entry for ``handle`` placed on the physical ``devices``
        (shard-slot order): sharded tensor-parallel over a device group
        when there are at least two, else a single-device entry (no
        partition, no group).  With an ``executor`` the entry is a
        model entry whose every layer spec is placed the same way."""
        if executor is not None:
            layers = tuple(
                self._placed(f"{name}/{spec.name}", op, spec, devices)
                for spec in executor.layers
            )
            return ModelEntry(
                name=name, op=op, handle=handle, devices=devices,
                executor=executor, layers=layers,
            )
        if len(devices) < 2:
            return ModelEntry(name=name, op=op, handle=handle, devices=devices)
        return ModelEntry(
            name=name, op=op, handle=handle, devices=devices,
            sharded=handle.shard(len(devices), self.shard),
            group=DeviceGroup(
                gpu=op.gpu, devices=len(devices), link=self.link
            ),
        )

    @property
    def model_names(self) -> list[str]:
        return sorted(self._models)

    def model(self, name: str) -> ModelEntry:
        try:
            return self._models[name]
        except KeyError:
            raise ServeError(
                f"unknown model {name!r}; registered: {self.model_names}"
            ) from None

    # ------------------------------------------------------------------
    # Request intake
    # ------------------------------------------------------------------
    def submit(self, request: InferenceRequest) -> None:
        """Queue a request for the next :meth:`run_submitted` call."""
        self._validate_request(request, self._weights_and_budget())
        self._inbox.append(request)

    def run_submitted(
        self, *, policy: "BatchingPolicy | None" = None
    ) -> ServingReport:
        """Simulate everything submitted so far and clear the inbox."""
        requests, self._inbox = self._inbox, []
        return self.simulate(requests, policy=policy)

    def _weights_and_budget(self) -> "tuple[int, int] | None":
        """The executor-backed models' compressed weight bytes and the
        run's aggregate HBM budget (the override, else the GPU's catalog
        ``dram_gb`` times the device count), or ``None`` without one."""
        entries = [e for e in self._models.values() if e.executor is not None]
        if not entries:
            return None
        budget = self.hbm_bytes
        if budget is None:
            budget = int(entries[0].op.gpu.dram_gb) * (1 << 30) * self.devices
        return sum(e.executor.weight_bytes for e in entries), int(budget)

    def _validate_request(
        self, request: InferenceRequest, hbm: "tuple[int, int] | None"
    ) -> None:
        entry = self.model(request.model)
        if request.k != entry.k:
            raise ServeError(
                f"request {request.request_id} has k={request.k} but model "
                f"{request.model!r} expects k={entry.k}"
            )
        if entry.executor is not None:
            if request.prompt_len is None:
                raise ServeError(
                    f"request {request.request_id} targets model-mode "
                    f"{request.model!r} but carries no "
                    "prompt_len/max_new_tokens"
                )
            if self.kv_admission == "kv-aware":
                weights, budget = hbm
                need = entry.executor.kv_bytes(
                    request.prompt_len + request.max_new_tokens
                )
                if weights + need > budget:
                    raise ServeError(
                        f"request {request.request_id} can never fit: "
                        f"weights {weights} B + lifetime KV {need} B "
                        f"exceed the HBM budget {budget} B"
                    )
            return
        if request.prompt_len is not None:
            raise ServeError(
                f"request {request.request_id} carries prompt_len but "
                f"model {request.model!r} is a plain matmul entry"
            )
        if self.execute_numerics and request.a is None:
            raise ServeError(
                f"request {request.request_id} is metadata-only but the "
                "server executes numerics; generate the trace with "
                "synthesize_activations=True or disable numerics"
            )

    # ------------------------------------------------------------------
    # Scheduling
    # ------------------------------------------------------------------
    def _queue_key(self, queue: RequestQueue) -> tuple:
        """Ascending urgency of a prefill flush: the order key of the
        exact request the queue would serve next, so queue selection
        and pop order never disagree (a queue must not win on one
        tier's priority and then serve a different tier's request)."""
        return request_order_key(queue.peek(), self.scheduling)

    def _decode_key(
        self, queue: RequestQueue, batcher: ContinuousBatcher
    ) -> tuple:
        """Urgency of a continuous step: the most urgent request with a
        stake in the next step — waiting, resident, or preempted.  A
        resident high-priority sequence must not lose the GPU to lower
        tiers just because a low-priority decode request is queued."""
        keys = [entry.key for entry in (*batcher.resident, *batcher.preempted)]
        if queue:
            keys.append(self._queue_key(queue))
        return min(keys)

    def _is_decode(self, request: InferenceRequest, policy: BatchingPolicy) -> bool:
        return (
            self.continuous_batching
            and request.rows <= policy.decode_rows_threshold
        )

    # ------------------------------------------------------------------
    # Launch accounting: plan lookups, modeled launch prices and spans
    # shared by the dynamic batch (``_launch``) and the one continuous
    # step (``_step``)
    # ------------------------------------------------------------------
    def _cached_plan(self, cache: PlanCache, device: int, entry: ModelEntry,
                     handle: LayerSpec, padded_rows: int):
        """One plan-cache lookup, surfaced (when tracing) as a
        ``plan_cache.hit``/``plan_cache.miss`` event — the outcome read
        off the cache's own stats delta, so the event stream and
        ``plan_cache_stats`` can never disagree."""
        tr = self.tracer
        if tr is None:
            return cache.lookup(entry.name, entry.op, handle, padded_rows)
        hits_before = cache.stats.hits
        plan_entry = cache.lookup(entry.name, entry.op, handle, padded_rows)
        if tr.sample():  # skip attr building on dropped traces
            outcome = "hit" if cache.stats.hits > hits_before else "miss"
            tr.event(
                f"plan_cache.{outcome}",
                track="engine",
                model=entry.name,
                padded_rows=padded_rows,
                device=device,
                keep=True,
            )
        return plan_entry

    def _modeled_launch(
        self,
        entry: ModelEntry,
        padded_rows: int,
        state: "_RunState | None" = None,
        t_s: float = 0.0,
    ) -> (
        "tuple[float, tuple[float, ...], CommEvent | None, object,"
        " tuple[int, int, int]]"
    ):
        """Model one ``padded_rows``-row launch of ``entry``:
        ``(modeled_gpu_s, per_device_gpu_s, comm_event, plan, cost)``
        where ``cost`` is the launch's ``(flops, ldg_bytes,
        stg_bytes)`` from the cached plans' analytic traces (summed
        over device shards) — the counts roofline attribution places
        against the GPU's peaks.  Only a traced run reads them (a
        model's weights are built for its first packing trace); an
        untraced launch's ``cost`` is ``None``.

        Single-device entries read the shared plan cache (plan
        returned for the numerics path, no comm event).  Distributed
        entries look up one plan per device shard in that device's own
        cache; a :class:`~repro.distributed.sharded.DistributedStep`
        composes them with the mode's ring collective, whose full
        ``CommEvent`` is returned so the trace can attribute wire bytes.

        With a fault injector active, each device's seconds is scaled
        by its straggler clock factor at ``t_s`` and the collective is
        priced on the (possibly degraded) link, so one slow device
        gates the whole tensor-parallel launch.
        """
        injector = None if state is None else state.injector
        traced = self.tracer is not None
        phys = entry.devices
        if not entry.distributed:
            device = phys[0]
            plan_entry = self._cached_plan(
                self.plan_caches[device], device, entry, entry.handle,
                padded_rows,
            )
            seconds = plan_entry.modeled_seconds
            if injector is not None:
                seconds *= injector.device_factor(device, t_s)
            cost = plan_entry.launch_cost if traced else None
            return seconds, (), None, plan_entry.plan, cost
        per_device = []
        costs = []
        for shard in entry.sharded.shards:
            device = phys[shard.device]
            plan_entry = self._cached_plan(
                self.plan_caches[device], device, entry,
                shard.handle, padded_rows,
            )
            seconds = plan_entry.modeled_seconds
            if injector is not None:
                seconds *= injector.device_factor(device, t_s)
            per_device.append(seconds)
            if traced:
                costs.append(plan_entry.launch_cost)
        group = entry.group
        if injector is not None:
            group = injector.degraded_group(group, t_s)
        comm = entry.sharded.collective(group, padded_rows)
        step = DistributedStep(tuple(per_device), comm)
        cost = tuple(map(sum, zip(*costs, strict=True))) if traced else None
        return step.seconds, step.per_device_seconds, comm, None, cost

    def _price(
        self,
        lane: _Lane,
        padded_rows: int,
        state: _RunState,
        t_s: float,
    ) -> "tuple[float, tuple, tuple[float, ...], float]":
        """One walk of ``lane.entry``'s stack at ``padded_rows`` (a
        model entry's layers, or a plain entry as a one-layer stack):
        ``(total_s, launches, per_device_s, comm_s)``, with one
        ``(entry, offset_s, seconds, per_device_s, comm_event, plan,
        cost)`` per launch (:meth:`_modeled_launch`) in walk order.
        Launches run back-to-back, so the walk's time is their sum.

        In a run with neither a tracer nor a fault injector, a walk is
        priced once per lane and ``padded_rows`` and memoized
        (:class:`_WalkMemo`, on :attr:`_Lane.walks`); later walks
        return the memoized walk and replay its plan lookups as hits
        (:meth:`PlanCache.refresh`), so the stats and LRU recency are
        what the lookups would have left.  A traced or faulted run
        prices every launch afresh, so its events and fault factors
        are read as they always have been."""
        entry = lane.entry
        stack = entry.layers or (entry,)
        memoize = self.tracer is None and state.injector is None
        if memoize:
            memo = lane.walks.get(padded_rows)
            if memo is not None and memo.current():
                memo.refresh()
                return memo.walk
            # The generations from *before* the walk: a walk during
            # which a key left a cache (a replay's lookup could miss)
            # is never current.
            generations = [cache.generation for cache in self.plan_caches]
        total = comm_s = 0.0
        per_device: "tuple[float, ...]" = ()
        launches = []
        for sub in stack:
            seconds, pd, comm, plan, cost = self._modeled_launch(
                sub, padded_rows, state, t_s
            )
            launches.append((sub, total, seconds, pd, comm, plan, cost))
            total += seconds
            if comm is not None:
                comm_s += comm.seconds
            per_device = _add_per_device(per_device, pd)
        walk = (total, tuple(launches), per_device, comm_s)
        if memoize:
            keys = tuple(
                PlanCache.key(sub.name, sub.op, padded_rows) for sub in stack
            )
            lane.walks[padded_rows] = _WalkMemo(
                caches=tuple(
                    (self.plan_caches[device], generations[device], keys)
                    for device in entry.devices
                ),
                walk=walk,
            )
        return walk

    def _trace_launch(
        self,
        tr: Tracer,
        parent: "object | None",
        start_s: float,
        steps: int,
        modeled_s: float,
        per_device: "tuple[float, ...]",
        comm: "CommEvent | None",
        model: str,
        device_ids: "tuple[int, ...]",
        rows: int,
        gpu: str,
        cost: "tuple[int, int, int]",
        failed: bool = False,
    ) -> None:
        """Record one launch's GPU-side spans: ``gpu.launch`` covering
        the full modeled busy time (so summed launch durations equal
        ``ServingMetrics.gpu_busy_s`` exactly), one nested
        ``device.compute`` child per device shard, and — when the
        launch communicates — a ``comm.<collective>`` child occupying
        the launch's tail (compute gates the ring, so the collective
        finishes the launch), carrying the modeled wire bytes.

        ``rows``/``gpu``/``cost`` enrich the ``gpu.launch`` span with
        the padded row count, the GPU-catalog name, and the launch's
        ``(flops, ldg_bytes, stg_bytes)`` — scaled by ``steps`` —
        which ``trace attribute`` places on the roofline offline;
        ``device_ids`` names each shard's physical device."""
        launch_end = start_s + steps * modeled_s
        if parent is not None and not parent.sampled:
            # The span tree of an unsampled trace is never built.
            tr.advance(launch_end)
            return
        launch = tr.add_span(
            "gpu.launch", start_s, launch_end,
            track="gpu", parent=parent, model=model, steps=steps,
            rows=rows, gpu=gpu, flops=steps * cost[0],
            ldg_bytes=steps * cost[1], stg_bytes=steps * cost[2],
            **({"failed": True} if failed else {}),
        )
        if launch.sampled:  # children of an unsampled trace never record
            for slot, seconds in enumerate(per_device):
                device = device_ids[slot]
                tr.add_span(
                    "device.compute", start_s, start_s + steps * seconds,
                    track=f"device{device}", parent=launch,
                    device=device, model=model,
                )
            if comm is not None and comm.seconds > 0:
                tr.add_span(
                    f"comm.{comm.collective}",
                    launch_end - steps * comm.seconds, launch_end,
                    track="comm", parent=launch, model=model,
                    **comm.trace_attrs(),
                )

    def _trace_queue_wait(
        self, tr: Tracer, request: InferenceRequest, started_s: float,
        queue: str, finished_s: float,
    ) -> None:
        """One sampled request's time-in-queue as a span on the
        ``queue`` track (admission to service start), then a
        ``request.complete`` event at ``finished_s``: together they
        bound the request's end-to-end interval, which the
        critical-path analyzer decomposes into queue / compute / comm
        / paging / retry-backoff buckets offline."""
        tr.add_span(
            "queue.wait", request.arrival_s, started_s,
            track="queue", parent=None, keep=True,
            request_id=request.request_id, model=request.model,
            priority=request.priority, queue=queue,
        )
        tr.event(
            "request.complete", t_s=finished_s, track="queue",
            keep=True, request_id=request.request_id,
            model=request.model, priority=request.priority,
            queue=queue, started_s=started_s,
            arrival_s=request.arrival_s,
        )

    def _execute_batch(self, entry: ModelEntry, batch, plan) -> list:
        """Run one batch's numerics and split per-request outputs."""
        weights = entry.handle.weights()
        if entry.distributed:
            sharded = shard_handle(weights, len(entry.devices), entry.sharded.mode)
            c = sharded_execute(batch.a, sharded)
            return batch.split(c[:, : entry.handle.n_logical])
        c = entry.op.execute(
            batch.a, weights, plan=plan, backend=self.backend,
            tracer=self.tracer,
        )
        return batch.split(c)

    def _plan_cache_snapshot(self) -> list:
        return [cache.stats.snapshot() for cache in self.plan_caches]

    def _plan_cache_stats_since(self, snapshots: list) -> dict:
        """Aggregate per-device plan-cache deltas into one stats dict
        (devices see identical lookup streams, so the sum keeps the
        single-device schema)."""
        total = None
        for cache, before in zip(self.plan_caches, snapshots, strict=True):
            delta = cache.stats.since(before)
            if total is None:
                total = delta
            else:
                total.hits += delta.hits
                total.misses += delta.misses
                total.evictions += delta.evictions
        return total.as_dict()

    # ------------------------------------------------------------------
    # Chaos & resilience
    # ------------------------------------------------------------------
    def _new_run_state(
        self,
        metrics: ServingMetrics,
        policy: "BatchingPolicy | None" = None,
    ) -> _RunState:
        """A run's fresh state: one lane per registered model (in
        registration order) with empty queues and, under continuous
        batching, an empty rolling batch cut by ``policy``."""
        plan = self.faults
        injector = None
        if plan is not None and not plan.empty:
            injector = FaultInjector(plan, tracer=self.tracer)
        # Backoff jitter draws come from their own child stream so the
        # injector's fault schedule never shifts when retries happen.
        seed = plan.seed if plan is not None else 0
        rng = np.random.default_rng([seed, 0xB0])
        policy = policy or self.policy
        lanes = {}
        for name, entry in self._models.items():
            lane = _Lane(entry, RequestQueue(name, self.scheduling))
            if self.continuous_batching:
                recompute_cost = None
                if entry.executor is not None:
                    # Preemption cost = the victim's modeled re-prefill
                    # (prompt + progress walked through every layer).
                    def recompute_cost(
                        inflight, _ex=entry.executor, _policy=policy
                    ):
                        return _ex.modeled_prefill_s(
                            inflight.request.prompt_len
                            + inflight.completed_steps,
                            _policy,
                        )

                lane.decode = RequestQueue(name, self.scheduling)
                lane.cb = ContinuousBatcher(
                    policy, self.scheduling, recompute_cost=recompute_cost
                )
            lanes[name] = lane
        return _RunState(
            metrics=metrics,
            injector=injector,
            resilience=self.resilience,
            rng=rng,
            lanes=lanes,
        )

    def _launch_fault(
        self, entry: ModelEntry, t_s: float, state: _RunState
    ) -> "int | None":
        """The physical device a launch of ``entry`` at ``t_s`` fails
        on — a dead device it still touches (pre-reshard, or resilience
        off), or a transient injected failure — or ``None``."""
        if state.injector is None:
            return None
        for device in entry.devices:
            if device in state.dead:
                return device
            if state.breaker_down.get(device, 0.0) > t_s:
                return device
        slot = state.injector.launch_fails(entry.name, t_s, len(entry.devices))
        if slot is None:
            return None
        return entry.devices[slot]

    def _note_launch_ok(self, entry: ModelEntry, state: _RunState) -> None:
        if state.injector is None:
            return
        for device in entry.devices:
            state.breaker_streak[device] = 0

    def _note_launch_failed(
        self, fail_device: int, t_s: float, state: _RunState
    ) -> float:
        """Advance the circuit breaker after a failure attributed to
        ``fail_device``.  With a cooldown the opened circuit is
        half-open (the device sits out ``breaker_cooldown_s`` and then
        rejoins); without one the device fail-stops and (when enabled)
        re-shards.  Returns the time the GPU is blocked until by any
        recovery, else 0."""
        res = state.resilience
        if (
            res is None
            or res.breaker_threshold is None
            or fail_device in state.dead
            or state.breaker_down.get(fail_device, 0.0) > t_s
        ):
            return 0.0
        streak = state.breaker_streak.get(fail_device, 0) + 1
        state.breaker_streak[fail_device] = streak
        if streak < res.breaker_threshold:
            return 0.0
        state.breaker_streak[fail_device] = 0
        state.metrics.circuit_opens += 1
        tr = self.tracer
        if tr is not None:
            tr.event(
                "device.circuit_open", t_s=t_s, track="faults",
                device=fail_device, streak=streak,
                permanent=res.breaker_cooldown_s is None,
            )
        if res.breaker_cooldown_s is not None:
            state.breaker_down[fail_device] = t_s + res.breaker_cooldown_s
            return 0.0
        state.dead.add(fail_device)
        return self._handle_device_death(fail_device, t_s, state)

    def _revive_devices(self, t_s: float, state: _RunState) -> None:
        """Close every half-open circuit whose cooldown expired."""
        for device in sorted(state.breaker_down):
            until = state.breaker_down[device]
            if until <= t_s:
                del state.breaker_down[device]
                if self.tracer is not None:
                    self.tracer.event(
                        "device.circuit_close", t_s=until, track="faults",
                        device=device,
                    )

    def _down_until(
        self, entry: ModelEntry, t_s: float, state: _RunState
    ) -> float:
        """When every half-open device ``entry`` touches has revived
        (``t_s`` when it is launchable now)."""
        until = t_s
        for device in entry.devices:
            until = max(until, state.breaker_down.get(device, 0.0))
        return until

    def _process_device_failures(
        self, t_s: float, state: _RunState
    ) -> float:
        """Apply plan-scheduled fail-stops due at or before ``t_s``.
        Returns the time the GPU is blocked until by re-shard recovery,
        else 0."""
        if state.injector is None:
            return 0.0
        blocked = 0.0
        for failure in state.injector.plan.device_failures:
            if failure.at_s <= t_s and failure.device not in state.dead:
                state.dead.add(failure.device)
                state.injector.note_failstop(failure.device, failure.at_s)
                blocked = max(
                    blocked,
                    self._handle_device_death(
                        failure.device, failure.at_s, state
                    ),
                )
        return blocked

    def _handle_device_death(
        self, device: int, t_s: float, state: _RunState
    ) -> float:
        """Gracefully degrade after ``device`` fail-stops: re-shard
        every model it carried onto the surviving devices and keep
        serving.  The recovery pause (redistributing each model's
        compressed weights over the group link) blocks the GPU; the
        returned time is when it frees up (0 when nothing re-shards —
        resilience off, re-sharding disabled, or no survivors, in
        which case launches touching the device keep failing)."""
        res = state.resilience
        survivors = tuple(
            d for d in range(self.devices) if d not in state.dead
        )
        if (
            res is None or not res.reshard or not survivors
            or self.devices == 1
        ):
            return 0.0
        n = len(survivors)
        tr = self.tracer
        blocked = t_s
        for name in sorted(state.lanes):
            lane = state.lanes[name]
            entry = lane.entry
            if not entry.distributed or device not in entry.devices:
                continue
            payload = (entry.executor or entry.handle).weight_bytes
            # A model entry re-partitions each layer's own spec.
            lane.entry = self._placed(
                name, entry.op, entry.handle, survivors, entry.executor
            )
            lane.walks.clear()
            recovery_s = (
                payload / n / self.link.bytes_per_s + self.link.latency_s
            )
            if tr is not None:
                tr.add_span(
                    "reshard", blocked, blocked + recovery_s,
                    track="engine", parent=None, model=name,
                    failed_device=device, survivors=n,
                )
                tr.event(
                    "reshard", t_s=blocked, track="engine", model=name,
                    failed_device=device, survivors=n,
                )
            evicted = 0
            if entry.executor is not None:
                evicted = self._evict_model_residents(
                    lane, blocked + recovery_s, state
                )
            state.metrics.add_reshard(
                ReshardRecord(
                    model=name, failed_device=device, survivors=n,
                    at_s=blocked, recovery_s=recovery_s, kv_evicted=evicted,
                )
            )
            blocked += recovery_s
        if state.memory is not None and self.devices > 1:
            # The survivors' aggregate HBM is smaller; evicted KV was
            # released above, and sequences that can no longer fit at
            # all are dropped by the step path's stall relief.
            state.memory.set_budget(
                state.hbm_base_budget * n // self.devices, blocked
            )
        # The plan caches key by (model, rows, gpu, version) — not by
        # handle — so plans built for the old shard geometry are stale.
        for cache in self.plan_caches:
            cache.clear()
        state.resharded = True
        return blocked

    def _evict_model_residents(
        self, lane: _Lane, t_s: float, state: _RunState
    ) -> int:
        """Preempt every resident sequence of model-mode ``lane`` and
        release its KV bytes (device death: the re-shard invalidates
        resident caches; victims keep their progress and re-prefill on
        the survivors when they rejoin)."""
        cb = lane.cb
        if not cb.resident:
            return 0
        name = lane.entry.name
        victims = list(cb.resident)
        cb.preempt_entries(victims)
        if state.memory is not None:
            for inflight in victims:
                state.memory.release_kv(inflight.request.request_id, t_s)
            state.memory.kv_evictions += len(victims)
        tr = self.tracer
        if tr is not None:
            tr.event(
                "kv.evict", t_s=t_s, track="engine", model=name,
                count=len(victims), reason="reshard",
            )
        return len(victims)

    def _drop(
        self,
        request: InferenceRequest,
        outcome: str,
        at_s: float,
        state: _RunState,
        kv_evicted: int = 0,
        **attrs,
    ) -> None:
        """Terminate ``request`` without completion: record the drop
        (reconciliation counts it, and the record keeps the event's
        ``reason``/``where``), forget its deadline and emit the
        matching event."""
        state.deadlines.pop(request.request_id, None)
        state.metrics.add_drop(
            DropRecord(
                request=request,
                outcome=outcome,
                at_s=at_s,
                retries=state.attempts.get(request.request_id, 0),
                reason=attrs.get("reason"),
                where=attrs.get("where"),
                kv_evicted=kv_evicted,
            )
        )
        tr = self.tracer
        if tr is None:
            return
        event_name = {
            "shed": "admission.shed",
            "timed-out": "request.timeout",
            "failed": "request.failed",
        }[outcome]
        tr.event(
            event_name, t_s=at_s, track="queue",
            request_id=request.request_id, model=request.model,
            priority=request.priority, **attrs,
        )

    def _spend_attempt(
        self, request: InferenceRequest, t_s: float, state: _RunState
    ) -> bool:
        """Charge ``request`` one failed launch attempt and return
        whether it may try again.  With its retry budget exhausted (or
        resilience off) it is failed terminally here."""
        attempts = state.attempts.get(request.request_id, 0) + 1
        state.attempts[request.request_id] = attempts
        res = state.resilience
        if res is not None and attempts <= res.max_retries:
            return True
        state.attempts[request.request_id] = attempts - 1
        self._drop(request, "failed", t_s, state, attempts=attempts)
        return False

    def _retry_or_fail(
        self, request: InferenceRequest, t_s: float, state: _RunState
    ) -> None:
        """After a failed launch: schedule a backoff retry for
        ``request``, or fail it terminally."""
        if self._spend_attempt(request, t_s, state):
            attempts = state.attempts[request.request_id]
            u = float(state.rng.random())
            ready_s = t_s + state.resilience.backoff_s(attempts, u)
            heapq.heappush(
                state.retry_heap, (ready_s, request.request_id, request)
            )

    def _admit_retries(
        self, t_s: float, run_policy: BatchingPolicy, state: _RunState
    ) -> None:
        """Re-queue every retry whose backoff expired by ``t_s``."""
        tr = self.tracer
        while state.retry_heap and state.retry_heap[0][0] <= t_s:
            _, request_id, request = heapq.heappop(state.retry_heap)
            lane = state.lanes[request.model]
            if self._is_decode(request, run_policy):
                lane.decode.requeue(request)
            else:
                lane.prefill.requeue(request)
            if tr is not None:
                tr.event(
                    "retry.attempt", t_s=t_s, track="queue",
                    request_id=request_id, model=request.model,
                    attempt=state.attempts.get(request_id, 0),
                )

    @staticmethod
    def _earliest_deadline(
        state: _RunState, after_s: float = float("-inf")
    ) -> float:
        """The earliest deadline strictly after ``after_s`` of a request
        not yet completed or dropped, or ``inf``.  Finished requests'
        heap entries are popped on the way.  A live top at or before
        ``after_s`` (a request admitted after this turn's cancel pass,
        which the next turn cancels) falls back to a heap scan."""
        heap = state.deadline_heap
        while heap and heap[0][1] not in state.deadlines:
            heapq.heappop(heap)
        if not heap:
            return math.inf
        if heap[0][0] > after_s:
            return heap[0][0]
        return min(
            (d for d, rid in heap if d > after_s and rid in state.deadlines),
            default=math.inf,
        )

    def _next_event_s(self, state: _RunState, after_s: float) -> float:
        """The next arrival, retry, or breaker close or live deadline
        after ``after_s`` (or ``inf``): the idle wake-up, and the horizon
        a repeating step stops before."""
        return min(
            state.next_arrival_s,
            state.retry_heap[0][0] if state.retry_heap else math.inf,
            self._earliest_deadline(state, after_s),
            *(u for u in state.breaker_down.values() if u > after_s),
        )

    def _horizon_s(self, lane: _Lane, state: _RunState) -> float:
        """Until when ``lane``'s step may repeat in place: the run's next
        event, deadlines already due included; ``-inf`` in a faulted,
        traced or numerics run, or while other work is queued."""
        if (
            state.injector is not None or self.tracer is not None
            or self.execute_numerics or lane.prefill
            or any(
                other.prefill or other.decode or other.cb.has_work
                for other in state.lanes.values() if other is not lane
            )
        ):
            return -math.inf
        return self._next_event_s(state, -math.inf)

    def _cancel_timed_out(self, t_s: float, state: _RunState) -> None:
        """Cancel every request whose deadline passed by ``t_s``,
        wherever it lives: queued, backing off in the retry heap, or
        resident in (or preempted out of) the rolling decode batch.
        Queue and continuous-batch row accounting unwinds through the
        dedicated removal paths.  Nothing is scanned unless the
        earliest live deadline has passed."""
        if self._earliest_deadline(state) > t_s:
            return

        def expired(request: InferenceRequest) -> bool:
            deadline = state.deadlines.get(request.request_id)
            return deadline is not None and deadline <= t_s

        lanes = state.lanes.values()
        for queues, where in (
            ([lane.prefill for lane in lanes], "prefill"),
            ([lane.decode for lane in lanes if lane.cb is not None], "decode"),
        ):
            for queue in queues:
                for request in queue.remove_where(expired):
                    self._drop(
                        request, "timed-out",
                        state.deadlines[request.request_id],
                        state, where=where,
                    )
        # Split before dropping: a drop forgets the deadline, after
        # which ``expired`` no longer recognises the entry.
        gone = [item for item in state.retry_heap if expired(item[2])]
        if gone:
            state.retry_heap = [
                item for item in state.retry_heap if not expired(item[2])
            ]
            heapq.heapify(state.retry_heap)
            for item in gone:
                self._drop(
                    item[2], "timed-out",
                    state.deadlines[item[2].request_id],
                    state, where="retry",
                )
        tr = self.tracer
        for name, lane in state.lanes.items():
            if lane.cb is None:
                continue
            cancelled = lane.cb.cancel_where(expired)
            state.metrics.cancelled_evictions += len(cancelled)
            for inflight in cancelled:
                if state.memory is not None:
                    state.memory.release_kv(
                        inflight.request.request_id, t_s
                    )
                self._drop(
                    inflight.request, "timed-out",
                    state.deadlines[inflight.request.request_id],
                    state, where="inflight",
                )
            if cancelled and tr is not None:
                tr.event(
                    "cb.evict", t_s=t_s, track="engine", model=name,
                    count=len(cancelled), reason="timeout",
                )

    # ------------------------------------------------------------------
    # Simulation
    # ------------------------------------------------------------------
    def simulate(
        self,
        requests: "list[InferenceRequest] | tuple[InferenceRequest, ...]",
        *,
        policy: "BatchingPolicy | None" = None,
    ) -> ServingReport:
        """Replay a request trace through the batching layer against the
        server's simulated device group (one GPU, or ``devices`` GPUs
        joined by the configured link) and return the full report."""
        if not requests:
            raise ServeError("simulate needs at least one request")
        hbm = self._weights_and_budget()
        for request in requests:
            self._validate_request(request, hbm)
        pending = sorted(
            requests, key=lambda r: (r.arrival_s, r.request_id)
        )
        stats_before = self._plan_cache_snapshot()
        batcher = DynamicBatcher(policy or self.policy)
        run_policy = batcher.policy
        metrics = ServingMetrics(submitted=len(pending))
        state = self._new_run_state(metrics, run_policy)
        lanes = state.lanes
        if hbm is not None:
            state.hbm_base_budget = budget = hbm[1]
            state.memory = DeviceMemoryModel(
                budget, admission=self.kv_admission
            )
            for name, e in sorted(self._models.items()):
                if e.executor is not None:
                    state.memory.add_weights(name, e.executor.weight_bytes)
        if state.resilience is not None:
            for request in pending:
                deadline = state.resilience.deadline_s(request)
                if deadline is not None:
                    state.deadlines[request.request_id] = deadline
            # A sorted list is already a valid heap.
            state.deadline_heap = sorted(
                (deadline, rid) for rid, deadline in state.deadlines.items()
            )
        tracer = self.tracer
        i, n = 0, len(pending)
        clock_s = 0.0
        gpu_free_s = 0.0

        while True:
            # The GPU can next launch at t; admit everything arrived by
            # then (requests landing during a busy period join the next
            # batch, which is how batches grow under load).
            t = max(clock_s, gpu_free_s)
            # Chaos bookkeeping first: plan-scheduled fail-stops (whose
            # re-shard recovery blocks the GPU), then cancellations,
            # then expired retry backoffs rejoining their queues.
            blocked = self._process_device_failures(t, state)
            if blocked > gpu_free_s:
                gpu_free_s = blocked
                t = max(clock_s, gpu_free_s)
            self._revive_devices(t, state)
            self._cancel_timed_out(t, state)
            self._admit_retries(t, run_policy, state)
            while i < n and pending[i].arrival_s <= t:
                request = pending[i]
                i += 1
                decode = self._is_decode(request, run_policy)
                lane = lanes[request.model]
                target = lane.decode if decode else lane.prefill
                if state.resilience is not None and state.resilience.shed(
                    request, target.total_rows
                ):
                    self._drop(
                        request, "shed", request.arrival_s, state,
                        queued_rows=target.total_rows,
                    )
                    continue
                target.push(request)
                if tracer is not None and tracer.sample():
                    tracer.event(
                        "request.admit",
                        t_s=request.arrival_s,
                        track="queue",
                        keep=True,
                        request_id=request.request_id,
                        model=request.model,
                        queue="decode" if decode else "prefill",
                        priority=request.priority,
                        rows=request.rows,
                    )
            state.next_arrival_s = pending[i].arrival_s if i < n else math.inf
            drain = i >= n
            # (sort key, kind, lane): the most urgent launchable work
            # wins; model name and kind break exact ties.
            candidates: list[tuple[tuple, str, _Lane]] = []
            for name, lane in lanes.items():
                # A model touching a half-open (breaker-cooldown)
                # device holds its launches until the circuit closes.
                launchable = (
                    not state.breaker_down
                    or self._down_until(lane.entry, t, state) <= t
                )
                queue = lane.prefill
                if launchable and batcher.should_flush(
                    queue, t, drain=drain
                ):
                    candidates.append(
                        (self._queue_key(queue) + (name, 0), "prefill", lane)
                    )
                dq, cb = lane.decode, lane.cb
                if (
                    cb is not None
                    and launchable
                    and (dq or cb.has_work)
                    and t >= lane.holdoff_s
                ):
                    candidates.append(
                        (self._decode_key(dq, cb) + (name, 1), "decode", lane)
                    )
            if candidates:
                _, kind, lane = min(candidates, key=lambda c: c[0])
                if kind == "prefill":
                    gpu_free_s = self._launch(lane, batcher, t, state)
                else:
                    gpu_free_s = self._step(lane, batcher, t, state)
                clock_s = t
                continue
            # Nothing to launch: advance to the run's next event, a
            # prefill deadline or a decode holdoff expiry.  All candidate
            # times are strictly after t, so the loop always progresses.
            events = [self._next_event_s(state, t)]
            for lane in lanes.values():
                deadline = batcher.deadline_s(lane.prefill)
                # A due-but-held queue (its model waiting out a
                # half-open breaker) wakes at the circuit-close event
                # instead; a deadline <= t here would stall the clock.
                if deadline is not None and deadline > t:
                    events.append(deadline)
                if lane.holdoff_s > t and (lane.decode or lane.cb.has_work):
                    events.append(lane.holdoff_s)
            clock_s = max(t, min(events))
            if clock_s == math.inf:
                break

        if state.injector is not None:
            metrics.launch_faults = state.injector.launch_faults_injected
        if state.resharded:
            # Drop the plans built for the survivors' shard geometry:
            # the next run starts from the registered entries again.
            for cache in self.plan_caches:
                cache.clear()
        if state.memory is not None:
            # Drain invariant: every KV byte released, ledgers clean.
            state.memory.reconcile()
            metrics.memory = state.memory.summary()
        plan_cache_stats = self._plan_cache_stats_since(stats_before)
        if tracer is not None:
            fill_registry(
                tracer.metrics, metrics, plan_cache_stats,
                lambda request: self._is_decode(request, run_policy),
            )
        metrics.request_records.sort(key=lambda r: r.request.request_id)
        metrics.reconcile()
        chaos = self.faults is not None and not self.faults.empty
        return ServingReport(
            metrics=metrics,
            policy=run_policy,
            plan_cache_stats=plan_cache_stats,
            model_names=self.model_names,
            numerics=self.execute_numerics,
            backend=self.backend,
            scheduling=self.scheduling.value,
            continuous=self.continuous_batching,
            devices=self.devices,
            shard=self.shard if self.devices > 1 else None,
            link=self.link.name if self.devices > 1 else None,
            faults=self.faults.describe() if chaos else None,
            resilience=(
                None if self.resilience is None else self.resilience.describe()
            ),
            memory_model=state.memory,
        )

    def _launch(
        self,
        lane: _Lane,
        batcher: DynamicBatcher,
        start_s: float,
        state: _RunState,
    ) -> float:
        """Form a dynamic batch from ``lane``'s prefill queue, execute it
        at ``start_s``, record per-request and per-batch results, and
        return when the GPU frees up.

        The batch geometry is fixed at the cut: a multi-step request
        charges one modeled launch per step, and the whole batch holds
        the GPU until its longest member finishes (finished requests'
        rows ride along as waste — the cost continuous batching
        removes).

        Under an injected launch fault the attempt still occupies the
        GPU for one modeled step (the fault kills the batch at its
        first step), no request completes, and every member retries
        with backoff or fails terminally."""
        metrics = state.metrics
        entry = lane.entry
        tr = self.tracer
        if tr is not None:
            tr.advance(start_s)
        # Stack directly at the weights' padded k so execute() consumes
        # the block without another copy.
        batch = batcher.form_batch(
            lane.prefill, stack=self.execute_numerics, pad_to_k=entry.handle.k
        )
        modeled_s, (launch,), per_device, comm_s = self._price(
            lane, batch.padded_rows, state, start_s
        )
        *_, comm, plan, cost = launch
        step_s = modeled_s + self.host_overhead_s
        device_ids = entry.devices

        fail_device = self._launch_fault(entry, start_s, state)
        failed = fail_device is not None
        outputs: "list[np.ndarray] | None" = None
        if failed:
            steps = 1
        else:
            self._note_launch_ok(entry, state)
            steps = max(request.steps for request in batch.requests)
            if self.execute_numerics:
                outputs = self._execute_batch(entry, batch, plan)
        finished_s = start_s + steps * step_s

        if tr is not None:
            # A failed batch draws its sampling decision in add_span.
            keep = None if failed else tr.sample()
            batch_span = tr.add_span(
                "serve.batch", start_s, finished_s,
                track="engine", parent=None, keep=keep, kind="prefill",
                steps=steps, **({"failed": True} if failed else {}),
                **batch.trace_attrs(),
            )
            if keep:
                for request in batch.requests:
                    self._trace_queue_wait(
                        tr, request, start_s, "prefill",
                        start_s + request.steps * step_s,
                    )
            self._trace_launch(
                tr, batch_span, start_s, steps, modeled_s, per_device,
                comm, batch.model, device_ids, batch.padded_rows,
                entry.op.gpu.name, cost, failed=failed,
            )

        metrics.add_batch(
            BatchRecord(
                batch_id=batch.batch_id,
                model=batch.model,
                n_requests=batch.n_requests,
                rows=batch.rows,
                padded_rows=batch.padded_rows,
                started_s=start_s,
                finished_s=finished_s,
                modeled_gpu_s=steps * modeled_s,
                per_device_gpu_s=tuple(
                    steps * seconds for seconds in per_device
                ),
                comm_s=steps * comm_s,
                failed=failed,
            )
        )
        if failed:
            for request in batch.requests:
                self._retry_or_fail(request, finished_s, state)
            blocked = self._note_launch_failed(fail_device, finished_s, state)
            return max(finished_s, blocked)
        for idx, request in enumerate(batch.requests):
            self._complete(
                request, batch.batch_id, start_s,
                start_s + request.steps * step_s, outputs, idx, state,
            )
        return finished_s

    def _complete(
        self,
        request: InferenceRequest,
        batch_id: int,
        started_s: float,
        finished_s: float,
        outputs: "list[np.ndarray] | None",
        idx: int,
        state: _RunState,
    ) -> None:
        """Record ``request``'s completion (its output is slice ``idx``
        of the launch's ``outputs`` when numerics ran) and forget its
        deadline."""
        state.deadlines.pop(request.request_id, None)
        state.metrics.add_request(
            RequestRecord(
                request=request,
                batch_id=batch_id,
                started_s=started_s,
                finished_s=finished_s,
                output=None if outputs is None else outputs[idx],
                retries=state.attempts.get(request.request_id, 0),
            )
        )

    def _step(
        self,
        lane: _Lane,
        batcher: DynamicBatcher,
        start_s: float,
        state: _RunState,
    ) -> float:
        """Run one continuous-batching engine step for ``lane`` at
        ``start_s`` and return when the GPU frees up.  Plain and model
        entries run the same sequence on the simulated clock:

        1. refill the rolling batch (a model entry through its KV
           phase, :meth:`_refill_kv`);
        2. form the step's batch;
        3. price it (:meth:`_price_step`): a decode walk of the lane's
           stack, after a model entry's prefill walks;
        4. draw the launch fault;
        5. on a fault no sequence advances (the GPU time is still
           spent): every resident burns an attempt, the retry-exhausted
           ones are evicted and failed, the rest stay resident (their
           prefills re-run) and the model backs off (``holdoff_s``).
           Otherwise finished sequences leave and free their KV and
           survivors' KV grows a token.  Spans, request records and
           the step record follow either way;
        6. while nobody finished, was preempted or was evicted (their KV
           frees after the refill), KV growth fits (no pressure eviction,
           no ``none`` thrash) and the run's next event
           (:meth:`_horizon_s`) is later, the next step is this one
           again, its refill refusing what this one's refused: run it
           here (batch id, memoized decode walk, advance, KV, records).
        """
        metrics = state.metrics
        entry, cb = lane.entry, lane.cb
        name = entry.name
        ex = entry.executor
        mem = state.memory
        tr = self.tracer
        if tr is not None:
            tr.advance(start_s)
        kv_evicted = 0
        if ex is None:
            joined, preempted = cb.refill(lane.decode, start_s)
        else:
            refilled = self._refill_kv(lane, start_s, state)
            if refilled is None:
                return start_s
            joined, preempted, kv_evicted = refilled
        batch = cb.form_step(
            batcher.allocate_batch_id(),
            stack=self.execute_numerics,
            pad_to_k=entry.handle.k,
        )
        (
            modeled_gpu_s, per_device, comm_s, walks, prefill_s, thrash_s,
        ) = self._price_step(lane, batch, start_s, state)
        # A plain step is its decode walk's one launch.
        *_, comm, plan, cost = walks[-1][-1][0]
        finished_s = start_s + modeled_gpu_s + self.host_overhead_s
        device_ids = entry.devices

        fail_device = self._launch_fault(entry, start_s, state)
        failed = fail_device is not None
        outputs: "list[np.ndarray] | None" = None
        res = state.resilience
        if failed:
            finished: list = []
            dropped: set[int] = set()
            for inflight in cb.resident:
                request = inflight.request
                if not self._spend_attempt(request, finished_s, state):
                    dropped.add(request.request_id)
            if dropped:
                cb.cancel_where(lambda r: r.request_id in dropped)
            if res is not None:
                lane.cb_streak += 1
                u = float(state.rng.random())
                lane.holdoff_s = finished_s + res.backoff_s(
                    min(lane.cb_streak, 6), u
                )
            # Nothing advanced: this step's prefills run again.
            for inflight, *_ in walks[:-1]:
                inflight.needs_prefill = True
            evicted = len(dropped)
        else:
            self._note_launch_ok(entry, state)
            lane.cb_streak = 0
            if self.execute_numerics:
                outputs = self._execute_batch(entry, batch, plan)
        retry = failed and res is not None and cb.has_work
        batch_id, horizon, survivors = batch.batch_id, None, None
        while True:
            if not failed:
                finished = cb.advance()
                if ex is not None:
                    for _, inflight in finished:
                        mem.release_kv(inflight.request.request_id, finished_s)
                    bpt = ex.kv_bytes_per_token
                    # A repeat (nobody finished) grows the same survivors.
                    if finished or survivors is None:
                        survivors = [i.request.request_id for i in cb.resident]
                    mem.grow_kv(survivors, bpt, finished_s)
                evicted = len(finished)
            if tr is not None:
                # A failed step draws its sampling decision in add_span.
                keep = None if failed else tr.sample()
                attrs = batch.trace_attrs()
                if failed:
                    attrs["failed"] = True
                elif ex is not None:
                    attrs["kv_evicted"] = kv_evicted
                step_span = tr.add_span(
                    "serve.step", start_s, finished_s, track="engine",
                    parent=None, keep=keep,
                    # A failed step is one decode-kind launch in either mode.
                    kind="model" if "kv_evicted" in attrs else "decode",
                    joined=joined, evicted=evicted, preempted=preempted,
                    **attrs,
                )
                if keep:
                    if ex is not None:
                        self._trace_walks(
                            tr, step_span, entry, walks, thrash_s, start_s, mem
                        )
                    if joined:
                        tr.event(
                            "cb.join", t_s=start_s, track="engine",
                            keep=True, model=name, count=joined,
                        )
                    if preempted:
                        tr.event(
                            "cb.preempt", t_s=start_s, track="engine",
                            keep=True, model=name, count=preempted,
                        )
                if evicted and keep is not False:
                    tr.event(
                        "cb.evict", t_s=finished_s, track="engine", keep=keep,
                        model=name, count=evicted,
                        **({"reason": "failed"} if failed else {}),
                    )
                if retry:
                    tr.event(
                        "retry.attempt", t_s=finished_s, track="engine",
                        model=name, count=len(cb.resident),
                        attempt=lane.cb_streak,
                    )
                if keep:
                    for _, inflight in finished:
                        self._trace_queue_wait(
                            tr, inflight.request, inflight.joined_s, "decode",
                            finished_s,
                        )
                # A model step's layers already have their own gpu.launch
                # spans; a failed model step is one launch span with its
                # walks' layer costs summed and no collective.
                if ex is None or failed:
                    if ex is not None:
                        costs = [
                            launch[-1] for *_, launches in walks
                            for launch in launches
                        ]
                        cost = tuple(sum(c[i] for c in costs) for i in range(3))
                        comm = None
                    self._trace_launch(
                        tr, step_span, start_s, 1, modeled_gpu_s, per_device,
                        comm, name, device_ids, batch.padded_rows,
                        entry.op.gpu.name, cost, failed=failed,
                    )

            end_s = finished_s
            if failed:
                end_s = max(
                    finished_s,
                    self._note_launch_failed(fail_device, finished_s, state),
                )
                if ex is not None:
                    # Sequences a re-shard evicted inside the call above
                    # freed their KV there already.
                    for rid in sorted(dropped):
                        mem.release_kv(rid, finished_s)
            for idx, inflight in finished:
                self._complete(
                    inflight.request, batch_id, inflight.joined_s,
                    finished_s, outputs, idx, state,
                )
            metrics.add_step(
                StepRecord(
                    step_id=batch_id,
                    model=name,
                    n_resident=batch.n_requests,
                    rows=batch.rows,
                    padded_rows=batch.padded_rows,
                    joined=joined,
                    evicted=evicted,
                    preempted=preempted,
                    started_s=start_s,
                    finished_s=finished_s,
                    modeled_gpu_s=modeled_gpu_s,
                    per_device_gpu_s=per_device,
                    comm_s=comm_s,
                    failed=failed,
                    retry=retry,
                    prefill_s=prefill_s,
                    thrash_s=thrash_s,
                    kv_evicted=kv_evicted,
                    kv_bytes=None if ex is None else mem.kv_bytes,
                )
            )
            # Step 6 (a failed step has an injector: no horizon).
            if finished or preempted or kv_evicted:
                return end_s
            if horizon is None:
                horizon = self._horizon_s(lane, state)
            if finished_s >= horizon or (
                ex is not None and not mem.fits(batch.n_requests * bpt)
            ):
                return end_s
            start_s = finished_s
            batch_id = batcher.allocate_batch_id()
            # Its price is the decode walk alone (0.0 + decode_s + 0.0).
            modeled_gpu_s, _, per_device, comm_s = self._price(
                lane, batch.padded_rows, state, start_s
            )
            joined = preempted = kv_evicted = 0
            prefill_s = thrash_s = 0.0
            finished_s = start_s + modeled_gpu_s + self.host_overhead_s

    def _price_step(
        self, lane: _Lane, batch, start_s: float, state: _RunState
    ) -> "tuple[float, tuple[float, ...], float, list, float, float]":
        """Price one continuous step: ``(modeled_gpu_s, per_device_s,
        comm_s, walks, prefill_s, thrash_s)``.

        The whole batch walks the lane's stack once to decode
        (:meth:`_price`).  On a model entry, every resident that needs
        (re)prefill first walks it at its token count, in batch order.
        ``walks`` holds ``(inflight, tokens, rows, seconds, launches)``
        per prefill, then ``(None, batch.rows, batch.padded_rows,
        seconds, launches)`` for the decode walk.  Under the ``none``
        baseline, a model's KV growth past the budget spills to host
        memory and reloads over the host link every step it stays
        oversubscribed (``thrash_s``)."""
        cb = lane.cb
        ex = lane.entry.executor
        walks = []
        prefill_s = comm_s = 0.0
        per_device: "tuple[float, ...]" = ()
        # A plain lane's residents carry no KV to (re)build.
        prefilling = () if ex is None else cb.resident
        for inflight in prefilling:
            if not inflight.needs_prefill:
                continue
            tokens = inflight.request.prompt_len + inflight.completed_steps
            rows = cb.policy.bucket_rows(tokens)
            seconds, launches, pd, comm = self._price(
                lane, rows, state, start_s
            )
            walks.append((inflight, tokens, rows, seconds, launches))
            prefill_s += seconds
            comm_s += comm
            per_device = _add_per_device(per_device, pd)
            inflight.needs_prefill = False
        decode_s, launches, pd, comm = self._price(
            lane, batch.padded_rows, state, start_s
        )
        walks.append((None, batch.rows, batch.padded_rows, decode_s, launches))
        comm_s += comm
        per_device = _add_per_device(per_device, pd)
        thrash_s = 0.0
        mem = state.memory
        if ex is not None and not mem.enforce:
            overflow = (
                mem.resident_bytes
                + batch.n_requests * ex.kv_bytes_per_token
                - mem.budget_bytes
            )
            if overflow > 0:
                thrash_s = overflow / self.host_link_bytes_per_s
                mem.overflow_steps += 1
        return (
            prefill_s + decode_s + thrash_s, per_device, comm_s, walks,
            prefill_s, thrash_s,
        )

    # ------------------------------------------------------------------
    # Model-mode serving (ModelSpec entries)
    # ------------------------------------------------------------------
    def _refill_kv(
        self, lane: _Lane, start_s: float, state: _RunState
    ) -> "tuple[int, int, int] | None":
        """A model lane's refill, with its KV phase:

        1. refill the rolling batch behind the KV admission gate
           (``kv-aware`` only) and release the KV of anything the
           refill preempted;
        2. reserve KV for residents that need (re)prefill;
        3. memory-pressure eviction: while the coming growth (one
           token per resident, ``bpt`` bytes each) would overflow the
           budget, preempt the head of the batcher's
           :meth:`~ContinuousBatcher.eviction_order` (lowest priority,
           then cheapest modeled re-prefill) — resident bytes never
           exceed the budget.

        Returns ``(joined, preempted, kv_evicted)``, or ``None`` when
        nothing is left resident to step (a model that still has work
        then waits out a short holdoff)."""
        queue, cb = lane.decode, lane.cb
        name = lane.entry.name
        bpt = lane.entry.executor.kv_bytes_per_token
        mem = state.memory
        tr = self.tracer
        gate = None
        if mem.enforce:
            pending = 0

            def gate(request: InferenceRequest, completed: int) -> bool:
                nonlocal pending
                # Admit on the bytes reserved now plus one step of
                # growth headroom; lifetime feasibility was proven at
                # submit against the full budget.
                need = (request.prompt_len + completed + 1) * bpt
                if not mem.fits(pending + need):
                    return False
                pending += need
                return True

        joined, preempted = cb.refill(queue, start_s, gate=gate)
        # Refill preemption displaces victims out of the batch; their
        # KV frees immediately (they re-prefill on rejoin).
        for waiting in cb.preempted:
            mem.release_kv(waiting.request.request_id, start_s)

        if not cb.resident and (queue or cb.preempted) and mem.enforce:
            # Every waiter is memory-blocked with nothing resident to
            # drain.  Anything that cannot fit even alone (possible
            # only after a fail-stop shrank the budget) is dropped —
            # queued as ``shed``, mid-flight as ``failed`` — so the
            # event loop cannot stall on it; the rest waits out other
            # models' KV via a short holdoff.
            def hopeless(request: InferenceRequest) -> bool:
                lifetime = (request.prompt_len + request.max_new_tokens) * bpt
                return mem.weight_bytes + lifetime > mem.budget_bytes

            for request in queue.remove_where(hopeless):
                self._drop(
                    request, "shed", start_s, state, reason="kv-overflow"
                )
            doomed = [e for e in cb.preempted if hopeless(e.request)]
            if doomed:
                ids = {e.request.request_id for e in doomed}
                cb.cancel_where(lambda r: r.request_id in ids)
                state.metrics.cancelled_evictions += len(doomed)
                for inflight in doomed:
                    self._drop(
                        inflight.request, "failed", start_s, state,
                        reason="kv-overflow",
                    )
            joined2, preempted2 = cb.refill(queue, start_s, gate=gate)
            joined += joined2
            preempted += preempted2
            for waiting in cb.preempted:
                mem.release_kv(waiting.request.request_id, start_s)

        resident = cb.resident
        for inflight in resident:
            request = inflight.request
            if inflight.needs_prefill and request.request_id not in mem.kv:
                mem.reserve_kv(
                    request.request_id,
                    (request.prompt_len + inflight.completed_steps) * bpt,
                    start_s,
                )
        kv_evicted = 0
        if resident and mem.enforce:
            growth = len(resident) * bpt
            while mem.resident_bytes + growth > mem.budget_bytes:
                if len(cb.resident) > 1:
                    victim = cb.eviction_order()[0]
                    cb.preempt_entries([victim])
                    mem.release_kv(victim.request.request_id, start_s)
                    mem.kv_evictions += 1
                    kv_evicted += 1
                    if tr is not None:
                        tr.event(
                            "kv.evict", t_s=start_s, track="engine",
                            model=name,
                            request_id=victim.request.request_id,
                            reason="memory-pressure",
                        )
                else:
                    # A lone resident that can no longer grow — only
                    # possible after a budget shrink (admission proved
                    # lifetime fit at the base budget).
                    lone = cb.resident[0]
                    cb.cancel_where(
                        lambda r: r.request_id == lone.request.request_id
                    )
                    state.metrics.cancelled_evictions += 1
                    mem.release_kv(lone.request.request_id, start_s)
                    self._drop(
                        lone.request, "failed", start_s, state,
                        kv_evicted=kv_evicted, reason="kv-overflow",
                    )
                growth -= bpt
        if not cb.resident:
            if queue or cb.has_work:
                lane.holdoff_s = start_s + max(self.host_overhead_s, 1e-6)
            return None
        return joined, preempted, kv_evicted

    def _trace_walks(
        self,
        tr: Tracer,
        step_span,
        entry: ModelEntry,
        walks: list,
        thrash_s: float,
        start_s: float,
        mem: DeviceMemoryModel,
    ) -> None:
        """A model step's GPU-side spans under its ``serve.step``: the
        ``model.prefill`` and ``model.decode_step`` walks back to back,
        each with one ``gpu.launch`` child per layer, then any
        ``kv.thrash``."""
        name = entry.name
        gpu_name = entry.op.gpu.name
        offset = start_s
        for inflight, count, rows, seconds, launches in walks:
            if inflight is None:
                span = tr.add_span(
                    "model.decode_step", offset, offset + seconds,
                    track="gpu", parent=step_span, model=name, rows=count,
                )
            else:
                span = tr.add_span(
                    "model.prefill", offset, offset + seconds,
                    track="gpu", parent=step_span, model=name,
                    request_id=inflight.request.request_id, tokens=count,
                )
            for sub, layer_off, layer_s, *_, cost in launches:
                tr.add_span(
                    "gpu.launch",
                    offset + layer_off,
                    offset + layer_off + layer_s,
                    track="gpu", parent=span, model=name,
                    layer=sub.name, rows=rows,
                    gpu=gpu_name, flops=cost[0],
                    ldg_bytes=cost[1], stg_bytes=cost[2],
                )
            offset += seconds
        if thrash_s > 0:
            tr.add_span(
                "kv.thrash", offset, offset + thrash_s,
                track="gpu", parent=step_span, model=name,
                overflow_bytes=mem.overflow_bytes,
            )
