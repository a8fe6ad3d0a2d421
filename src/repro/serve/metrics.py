"""Serving metrics: latency percentiles, throughput, batch shape.

Aggregates the per-request, per-batch, and per-step records the engine
emits into the numbers serving papers report — p50/p95/p99 latency
(overall and per priority tier), SLO attainment, achieved QPS,
batch-size histogram, continuous-batching join/evict/preempt counts,
modeled GPU busy time and utilization — plus a JSON-able summary dict
so benchmark trajectories can accrue across PRs.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass, field
from typing import Callable, Sequence

from repro.errors import ServeError
from repro.obs.metrics import MetricsRegistry
from repro.serve.request import RequestRecord
from repro.utils.stats import percentile as _percentile
from repro.utils.tables import TextTable

__all__ = [
    "percentile",
    "LatencySummary",
    "BatchRecord",
    "StepRecord",
    "DropRecord",
    "ReshardRecord",
    "DROP_OUTCOMES",
    "ServingMetrics",
    "fill_registry",
]

#: Terminal outcomes of a request that did *not* complete.  Together
#: with ``completed`` these partition every submitted request — the
#: zero-silent-loss invariant :meth:`ServingMetrics.reconcile` checks.
DROP_OUTCOMES = ("shed", "timed-out", "failed")


def percentile(values: Sequence[float], q: float) -> float:
    """The ``q``-th percentile with linear interpolation (shared with
    the trace summarizer via :mod:`repro.utils.stats`, so a serving
    p99 and a per-span p99 agree byte-for-byte on the same sample).

    >>> percentile([1.0, 2.0, 3.0, 4.0], 50)
    2.5
    """
    try:
        return _percentile(values, q)
    except ValueError as exc:
        raise ServeError(str(exc)) from None


@dataclass(frozen=True)
class LatencySummary:
    """The latency digest of one sample, in milliseconds."""

    p50_ms: float
    p95_ms: float
    p99_ms: float
    mean_ms: float
    max_ms: float

    @classmethod
    def from_seconds(cls, seconds: Sequence[float]) -> "LatencySummary":
        ms = [s * 1e3 for s in seconds]
        return cls(
            p50_ms=percentile(ms, 50),
            p95_ms=percentile(ms, 95),
            p99_ms=percentile(ms, 99),
            mean_ms=sum(ms) / len(ms),
            max_ms=max(ms),
        )

    def as_dict(self) -> dict:
        return {
            "p50_ms": round(self.p50_ms, 6),
            "p95_ms": round(self.p95_ms, 6),
            "p99_ms": round(self.p99_ms, 6),
            "mean_ms": round(self.mean_ms, 6),
            "max_ms": round(self.max_ms, 6),
        }


@dataclass(frozen=True)
class BatchRecord:
    """One launched batch, as the metrics layer sees it.

    On a distributed (``devices > 1``) server, ``modeled_gpu_s`` is the
    full tensor-parallel launch (slowest device + collective),
    ``per_device_gpu_s`` holds each device's own compute seconds, and
    ``comm_s`` the modeled collective time; single-device launches
    leave the latter two at their defaults.
    """

    batch_id: int
    model: str
    n_requests: int
    rows: int
    padded_rows: int
    started_s: float
    finished_s: float
    modeled_gpu_s: float
    per_device_gpu_s: tuple[float, ...] = ()
    comm_s: float = 0.0
    #: The launch suffered an injected fault: the GPU time was spent
    #: but no request finished (its requests retried or failed).
    failed: bool = False


@dataclass(frozen=True)
class StepRecord:
    """One engine step of the continuous (rolling) batcher (same
    distributed fields as :class:`BatchRecord`)."""

    step_id: int
    model: str
    n_resident: int
    rows: int
    padded_rows: int
    joined: int
    evicted: int
    preempted: int
    started_s: float
    finished_s: float
    modeled_gpu_s: float
    per_device_gpu_s: tuple[float, ...] = ()
    comm_s: float = 0.0
    #: The step's launch suffered an injected fault: no sequence
    #: advanced (the GPU time was still spent).
    failed: bool = False
    #: The step failed and left sequences behind, which the model
    #: retries after a backoff (resilience on).
    retry: bool = False
    #: Model-mode extras: modeled (re)prefill seconds charged inside
    #: this step, host-link thrash seconds (the ``none`` admission
    #: baseline's overflow cost), memory-pressure evictions, and the
    #: resident KV bytes after the step (``None`` for a plain entry).
    prefill_s: float = 0.0
    thrash_s: float = 0.0
    kv_evicted: int = 0
    kv_bytes: "int | None" = None


@dataclass(frozen=True)
class DropRecord:
    """Terminal record of a request that did not complete.

    ``outcome`` is one of :data:`DROP_OUTCOMES`:

    * ``shed`` — rejected at admission by load shedding;
    * ``timed-out`` — cancelled after its timeout deadline passed
      (whether queued, backing off, or resident in the rolling batch);
    * ``failed`` — gave up after exhausting its launch-failure retries
      (or, with resilience off, on the first fault).
    """

    request: "object"  # InferenceRequest (kept untyped to avoid a cycle)
    outcome: str
    at_s: float
    retries: int = 0
    #: ``"kv-overflow"``: it can never fit the (shrunk) HBM budget.  A
    #: ``shed`` without a reason was shed at admission (never queued).
    reason: "str | None" = None
    #: Where a timeout cancelled it: ``"prefill"``, ``"decode"``,
    #: ``"retry"`` (backing off) or ``"inflight"``.
    where: "str | None" = None
    #: Residents the refill that dropped this lone one evicted first
    #: (that refill ran no step to record them).
    kv_evicted: int = 0

    def __post_init__(self) -> None:
        if self.outcome not in DROP_OUTCOMES:
            raise ServeError(
                f"drop outcome must be one of {DROP_OUTCOMES}, got "
                f"{self.outcome!r}"
            )
        if self.retries < 0:
            raise ServeError(f"retries must be >= 0, got {self.retries}")


@dataclass(frozen=True)
class ReshardRecord:
    """One health-driven re-partition of a model onto the surviving
    devices after a fail-stop."""

    model: str
    failed_device: int
    survivors: int
    at_s: float
    recovery_s: float
    #: Model-mode residents the re-shard evicted.
    kv_evicted: int = 0


@dataclass
class ServingMetrics:
    """Accumulator for one simulated serving run."""

    request_records: list[RequestRecord] = field(default_factory=list)
    batch_records: list[BatchRecord] = field(default_factory=list)
    step_records: list[StepRecord] = field(default_factory=list)
    drop_records: list[DropRecord] = field(default_factory=list)
    reshard_records: list[ReshardRecord] = field(default_factory=list)
    #: Requests handed to ``simulate()`` (0 on runs predating the
    #: resilience layer / built outside the engine).  When set, the
    #: zero-silent-loss reconciliation is available.
    submitted: int = 0
    #: Injected transient launch failures observed by the engine.
    launch_faults: int = 0
    #: Per-device circuit-breaker openings.
    circuit_opens: int = 0
    #: In-flight continuous-batch sequences evicted by timeout
    #: cancellation (outside any step record; counted into
    #: :attr:`continuous_evictions` so the rolling batch's row
    #: accounting reconciles).
    cancelled_evictions: int = 0
    #: Model-mode runs: the device-memory model's end-of-run summary
    #: (budget, peaks, evictions) — ``None`` on matmul-only runs.
    memory: "dict | None" = None
    _launch_shapes_cache: "tuple[tuple[int, int], list] | None" = field(
        init=False, default=None, repr=False, compare=False
    )

    def add_request(self, record: RequestRecord) -> None:
        self.request_records.append(record)

    def add_batch(self, record: BatchRecord) -> None:
        self.batch_records.append(record)

    def add_step(self, record: StepRecord) -> None:
        self.step_records.append(record)

    def add_drop(self, record: DropRecord) -> None:
        self.drop_records.append(record)

    def add_reshard(self, record: ReshardRecord) -> None:
        self.reshard_records.append(record)

    # ------------------------------------------------------------------
    # Aggregates
    # ------------------------------------------------------------------
    @property
    def completed(self) -> int:
        return len(self.request_records)

    @property
    def makespan_s(self) -> float:
        """First arrival to last completion on the simulated clock."""
        if not self.request_records:
            return 0.0
        first = min(r.request.arrival_s for r in self.request_records)
        last = max(r.finished_s for r in self.request_records)
        return last - first

    @property
    def achieved_qps(self) -> float:
        span = self.makespan_s
        return self.completed / span if span > 0 else 0.0

    def latency(self) -> LatencySummary:
        self._require_records()
        return LatencySummary.from_seconds(
            [r.latency_s for r in self.request_records]
        )

    def queue_wait(self) -> LatencySummary:
        self._require_records()
        return LatencySummary.from_seconds(
            [r.queue_wait_s for r in self.request_records]
        )

    def latency_by_priority(self) -> dict[int, LatencySummary]:
        """Per-priority-tier latency digests (SLO-aware scheduling is
        judged per tier, not on the overall distribution)."""
        self._require_records()
        by_tier: dict[int, list[float]] = {}
        for record in self.request_records:
            by_tier.setdefault(record.request.priority, []).append(
                record.latency_s
            )
        return {
            tier: LatencySummary.from_seconds(values)
            for tier, values in sorted(by_tier.items())
        }

    # ------------------------------------------------------------------
    # SLO attainment
    # ------------------------------------------------------------------
    @property
    def slo_requests(self) -> int:
        """Completed requests that carried an SLO."""
        return sum(1 for r in self.request_records if r.slo_met is not None)

    @property
    def slo_attained(self) -> int:
        return sum(1 for r in self.request_records if r.slo_met)

    @property
    def slo_attainment(self) -> "float | None":
        """Fraction of SLO-carrying requests that met their deadline,
        or ``None`` when the trace carried no SLOs."""
        total = self.slo_requests
        if not total:
            return None
        return self.slo_attained / total

    def slo_attainment_by_priority(self) -> dict[int, float]:
        """Per-tier attainment over the tiers that carry SLOs (a tier
        with no SLO-carrying requests is omitted)."""
        totals: dict[int, int] = {}
        attained: dict[int, int] = {}
        for record in self.request_records:
            met = record.slo_met
            if met is None:
                continue
            tier = record.request.priority
            totals[tier] = totals.get(tier, 0) + 1
            attained[tier] = attained.get(tier, 0) + int(met)
        return {
            tier: attained[tier] / totals[tier] for tier in sorted(totals)
        }

    # ------------------------------------------------------------------
    # Resilience: outcomes, goodput, reconciliation
    # ------------------------------------------------------------------
    def drops_by_outcome(self) -> dict[str, int]:
        """``outcome -> count`` over the drop records (all outcomes of
        :data:`DROP_OUTCOMES` present, zero-filled)."""
        counts = {outcome: 0 for outcome in DROP_OUTCOMES}
        for drop in self.drop_records:
            counts[drop.outcome] += 1
        return counts

    def outcome_counts(self) -> dict[str, int]:
        """Every terminal outcome: ``completed`` plus the drop kinds."""
        counts = {"completed": self.completed}
        counts.update(self.drops_by_outcome())
        return counts

    def reconcile(self) -> dict[str, int]:
        """Assert zero silent request loss and return the outcome counts.

        Every submitted request must terminate exactly once — as
        completed, shed, timed-out, or failed.  Raises
        :class:`~repro.errors.ServeError` when the counts do not add up
        to :attr:`submitted` (only meaningful when the engine recorded
        the submitted count).
        """
        counts = self.outcome_counts()
        total = sum(counts.values())
        if self.submitted and total != self.submitted:
            raise ServeError(
                f"request accounting does not reconcile: {total} terminal "
                f"outcomes ({counts}) for {self.submitted} submitted "
                "requests"
            )
        seen = [r.request.request_id for r in self.request_records] + [
            d.request.request_id for d in self.drop_records
        ]
        if len(seen) != len(set(seen)):
            raise ServeError(
                "request accounting does not reconcile: a request "
                "terminated more than once"
            )
        return counts

    @property
    def total_retries(self) -> int:
        """Launch-failure retries across completed and dropped requests."""
        return sum(r.retries for r in self.request_records) + sum(
            d.retries for d in self.drop_records
        )

    @property
    def failed_launches(self) -> int:
        """Launches (batches + steps) that suffered an injected fault."""
        return sum(1 for b in self.batch_records if b.failed) + sum(
            1 for s in self.step_records if s.failed
        )

    @property
    def slo_submitted(self) -> int:
        """SLO-carrying requests among everything that terminated —
        completed *and* dropped.  The goodput denominator: a shed or
        timed-out request with an SLO is a missed SLO, not a
        statistical no-show."""
        return self.slo_requests + sum(
            1 for d in self.drop_records if d.request.slo_ms is not None
        )

    @property
    def slo_goodput(self) -> "float | None":
        """Fraction of *submitted* SLO-carrying requests that completed
        inside their deadline.  Unlike :attr:`slo_attainment` (which is
        conditioned on completion), goodput charges drops against the
        SLO — the honest resilience metric: a server that sheds or
        loses every late request would otherwise score 100%."""
        total = self.slo_submitted
        if not total:
            return None
        return self.slo_attained / total

    @property
    def recovery_s(self) -> float:
        """Total modeled re-shard recovery pause (weight redistribution
        over the group link)."""
        return sum(r.recovery_s for r in self.reshard_records)

    # ------------------------------------------------------------------
    # Continuous batching
    # ------------------------------------------------------------------
    @property
    def continuous_steps(self) -> int:
        return len(self.step_records)

    @property
    def continuous_joins(self) -> int:
        return sum(s.joined for s in self.step_records)

    @property
    def continuous_evictions(self) -> int:
        """Sequences that left the rolling batch: step-completion and
        failure evictions plus timeout cancellations."""
        return (
            sum(s.evicted for s in self.step_records)
            + self.cancelled_evictions
        )

    @property
    def continuous_preemptions(self) -> int:
        return sum(s.preempted for s in self.step_records)

    # ------------------------------------------------------------------
    # Model-mode (KV/memory) aggregates
    # ------------------------------------------------------------------
    @property
    def kv_evictions(self) -> int:
        """Memory-pressure evictions recorded inside steps (device
        -death evictions live in :attr:`memory`'s summary instead)."""
        return sum(s.kv_evicted for s in self.step_records)

    @property
    def model_prefill_s(self) -> float:
        """Modeled GPU seconds spent (re)prefilling sequences."""
        return sum(s.prefill_s for s in self.step_records)

    @property
    def model_thrash_s(self) -> float:
        """Host-link thrash seconds the ``none`` admission baseline
        paid for KV overflow."""
        return sum(s.thrash_s for s in self.step_records)

    def _launch_shapes(self) -> list[tuple[int, int, int]]:
        """``(requests, rows, padded_rows)`` of every GPU launch —
        dynamic batches and continuous steps alike (both occupy the GPU
        and hit the plan cache).  Memoized on the (append-only) record
        counts: summary() reads five aggregates off it per call."""
        key = (len(self.batch_records), len(self.step_records))
        if (
            self._launch_shapes_cache is not None
            and self._launch_shapes_cache[0] == key
        ):
            return self._launch_shapes_cache[1]
        shapes = [
            (b.n_requests, b.rows, b.padded_rows) for b in self.batch_records
        ] + [
            (s.n_resident, s.rows, s.padded_rows) for s in self.step_records
        ]
        self._launch_shapes_cache = (key, shapes)
        return shapes

    @property
    def mean_batch_requests(self) -> float:
        self._require_batches()
        shapes = self._launch_shapes()
        return sum(n for n, _, _ in shapes) / len(shapes)

    @property
    def mean_batch_rows(self) -> float:
        self._require_batches()
        shapes = self._launch_shapes()
        return sum(rows for _, rows, _ in shapes) / len(shapes)

    def batch_requests_histogram(self) -> dict[int, int]:
        """``requests-per-launch -> launch count``."""
        return dict(
            sorted(Counter(n for n, _, _ in self._launch_shapes()).items())
        )

    def padded_rows_histogram(self) -> dict[int, int]:
        """``padded launch rows (plan-cache bucket) -> launch count``."""
        return dict(
            sorted(
                Counter(p for _, _, p in self._launch_shapes()).items()
            )
        )

    @property
    def gpu_busy_s(self) -> float:
        """Total modeled GPU time across batches and continuous steps
        (on a distributed server this is critical-path time: slowest
        device + collective per launch)."""
        return sum(b.modeled_gpu_s for b in self.batch_records) + sum(
            s.modeled_gpu_s for s in self.step_records
        )

    @property
    def gpu_utilization(self) -> float:
        span = self.makespan_s
        return self.gpu_busy_s / span if span > 0 else 0.0

    # ------------------------------------------------------------------
    # Distributed execution
    # ------------------------------------------------------------------
    def _launch_records(self) -> list:
        return list(self.batch_records) + list(self.step_records)

    @property
    def is_distributed(self) -> bool:
        """Whether any launch carried per-device accounting."""
        return any(r.per_device_gpu_s for r in self._launch_records())

    @property
    def comm_s(self) -> float:
        """Total modeled collective (communication) time."""
        return sum(r.comm_s for r in self._launch_records())

    @property
    def comm_fraction(self) -> float:
        """Share of the modeled GPU critical path spent communicating."""
        busy = self.gpu_busy_s
        return self.comm_s / busy if busy > 0 else 0.0

    def device_busy_s(self) -> dict[int, float]:
        """Per-device modeled compute seconds (device index -> busy)."""
        busy: dict[int, float] = {}
        for record in self._launch_records():
            for device, seconds in enumerate(record.per_device_gpu_s):
                busy[device] = busy.get(device, 0.0) + seconds
        return dict(sorted(busy.items()))

    def device_utilization(self) -> dict[int, float]:
        """Per-device busy time over the run's makespan."""
        span = self.makespan_s
        if span <= 0:
            return {device: 0.0 for device in self.device_busy_s()}
        return {
            device: busy / span
            for device, busy in self.device_busy_s().items()
        }

    @property
    def padding_overhead(self) -> float:
        """Fraction of launched rows that were zero padding."""
        self._require_batches()
        shapes = self._launch_shapes()
        launched = sum(p for _, _, p in shapes)
        useful = sum(rows for _, rows, _ in shapes)
        return 1.0 - useful / launched

    def per_model_completed(self) -> dict[str, int]:
        return dict(
            sorted(Counter(r.request.model for r in self.request_records).items())
        )

    # ------------------------------------------------------------------
    # Reporting
    # ------------------------------------------------------------------
    def summary(self, extra: "dict | None" = None) -> dict:
        """A JSON-able digest of the run (the serving-bench schema)."""
        self._require_records()
        out = {
            "completed_requests": self.completed,
            "batches": len(self.batch_records),
            # Dynamic batches + continuous steps: the launch count the
            # per-launch histograms and means below are computed over.
            "launches": len(self.batch_records) + len(self.step_records),
            "makespan_s": round(self.makespan_s, 9),
            "achieved_qps": round(self.achieved_qps, 3),
            "latency": self.latency().as_dict(),
            "queue_wait": self.queue_wait().as_dict(),
            "mean_batch_requests": round(self.mean_batch_requests, 3),
            "mean_batch_rows": round(self.mean_batch_rows, 3),
            "batch_requests_histogram": {
                str(k): v for k, v in self.batch_requests_histogram().items()
            },
            "padded_rows_histogram": {
                str(k): v for k, v in self.padded_rows_histogram().items()
            },
            "padding_overhead": round(self.padding_overhead, 4),
            "modeled_gpu_busy_s": round(self.gpu_busy_s, 9),
            "modeled_gpu_utilization": round(self.gpu_utilization, 4),
            "per_model_completed": self.per_model_completed(),
            "latency_by_priority": {
                str(tier): summary.as_dict()
                for tier, summary in self.latency_by_priority().items()
            },
            "slo": {
                "requests": self.slo_requests,
                "attained": self.slo_attained,
                "attainment_rate": (
                    None
                    if self.slo_attainment is None
                    else round(self.slo_attainment, 4)
                ),
                "attainment_by_priority": {
                    str(tier): round(rate, 4)
                    for tier, rate in self.slo_attainment_by_priority().items()
                },
            },
            "continuous": {
                "steps": self.continuous_steps,
                "joins": self.continuous_joins,
                "evictions": self.continuous_evictions,
                "preemptions": self.continuous_preemptions,
            },
        }
        if self.memory is not None:
            out["memory"] = dict(self.memory)
            out["model"] = {
                "prefill_s": round(self.model_prefill_s, 9),
                "thrash_s": round(self.model_thrash_s, 9),
                "kv_evictions": self.kv_evictions,
            }
        if self.submitted:
            drops = self.drops_by_outcome()
            out["resilience"] = {
                "submitted": self.submitted,
                "outcomes": self.outcome_counts(),
                "shed": drops["shed"],
                "timed_out": drops["timed-out"],
                "failed": drops["failed"],
                "retries": self.total_retries,
                "launch_faults": self.launch_faults,
                "failed_launches": self.failed_launches,
                "circuit_opens": self.circuit_opens,
                "reshards": len(self.reshard_records),
                "recovery_s": round(self.recovery_s, 9),
                "slo_goodput": (
                    None
                    if self.slo_goodput is None
                    else round(self.slo_goodput, 4)
                ),
            }
        if self.is_distributed:
            out["distributed"] = {
                "devices": len(self.device_busy_s()),
                "comm_s": round(self.comm_s, 9),
                "comm_fraction": round(self.comm_fraction, 4),
                "per_device_busy_s": {
                    str(device): round(busy, 9)
                    for device, busy in self.device_busy_s().items()
                },
                "per_device_utilization": {
                    str(device): round(util, 4)
                    for device, util in self.device_utilization().items()
                },
            }
        if extra:
            out.update(extra)
        return out

    def render(self, title: str = "serving run") -> str:
        """The human-readable digest ``serve-sim`` prints."""
        self._require_records()
        lat = self.latency()
        wait = self.queue_wait()
        table = TextTable(["metric", "value"], title=title)
        table.add_row(["requests completed", str(self.completed)])
        table.add_row(["batches launched", str(len(self.batch_records))])
        table.add_row(["makespan", f"{self.makespan_s * 1e3:.3f} ms"])
        table.add_row(["achieved QPS", f"{self.achieved_qps:.1f}"])
        table.add_row(["latency p50", f"{lat.p50_ms:.3f} ms"])
        table.add_row(["latency p95", f"{lat.p95_ms:.3f} ms"])
        table.add_row(["latency p99", f"{lat.p99_ms:.3f} ms"])
        table.add_row(["queue wait p99", f"{wait.p99_ms:.3f} ms"])
        table.add_row(["mean batch size (requests)", f"{self.mean_batch_requests:.2f}"])
        table.add_row(["mean batch rows", f"{self.mean_batch_rows:.1f}"])
        table.add_row(["padding overhead", f"{self.padding_overhead * 100:.1f}%"])
        table.add_row(["modeled GPU busy", f"{self.gpu_busy_s * 1e3:.3f} ms"])
        table.add_row(["modeled GPU utilization", f"{self.gpu_utilization * 100:.1f}%"])
        by_tier = self.latency_by_priority()
        if len(by_tier) > 1:
            for tier, summary in by_tier.items():
                table.add_row(
                    [f"priority {tier} p99", f"{summary.p99_ms:.3f} ms"]
                )
        if self.slo_attainment is not None:
            table.add_row(
                [
                    "SLO attainment",
                    f"{self.slo_attainment * 100:.1f}% "
                    f"({self.slo_attained}/{self.slo_requests})",
                ]
            )
        if self.submitted:
            drops = self.drops_by_outcome()
            table.add_row(
                [
                    "request outcomes",
                    f"{self.completed} completed, {drops['shed']} shed, "
                    f"{drops['timed-out']} timed-out, "
                    f"{drops['failed']} failed "
                    f"(of {self.submitted} submitted)",
                ]
            )
            if self.launch_faults or self.total_retries:
                table.add_row(
                    [
                        "faults / retries",
                        f"{self.launch_faults} launch faults, "
                        f"{self.total_retries} retries, "
                        f"{self.circuit_opens} circuit opens",
                    ]
                )
            if self.reshard_records:
                table.add_row(
                    [
                        "reshards",
                        f"{len(self.reshard_records)} "
                        f"(recovery {self.recovery_s * 1e3:.3f} ms)",
                    ]
                )
            if self.slo_goodput is not None:
                table.add_row(
                    [
                        "SLO goodput",
                        f"{self.slo_goodput * 100:.1f}% "
                        f"({self.slo_attained}/{self.slo_submitted} "
                        "submitted)",
                    ]
                )
        if self.step_records:
            table.add_row(
                [
                    "continuous steps",
                    f"{self.continuous_steps} "
                    f"({self.continuous_joins} joins, "
                    f"{self.continuous_evictions} evictions, "
                    f"{self.continuous_preemptions} preemptions)",
                ]
            )
        if self.memory is not None:
            mem = self.memory
            table.add_row(
                [
                    "HBM budget",
                    f"{mem['budget_bytes'] / 2**20:.2f} MiB "
                    f"({mem['admission']} admission)",
                ]
            )
            table.add_row(
                [
                    "HBM peak resident",
                    f"{mem['peak_resident_bytes'] / 2**20:.2f} MiB "
                    f"({mem['peak_utilization'] * 100:.1f}% of budget, "
                    f"KV peak {mem['kv_peak_bytes'] / 2**20:.2f} MiB)",
                ]
            )
            table.add_row(
                [
                    "KV pressure",
                    f"{mem['kv_evictions']} evictions, "
                    f"{mem['overflow_steps']} overflow steps, "
                    f"prefill {self.model_prefill_s * 1e3:.3f} ms, "
                    f"thrash {self.model_thrash_s * 1e3:.3f} ms",
                ]
            )
        if self.is_distributed:
            table.add_row(
                ["modeled comm time", f"{self.comm_s * 1e3:.3f} ms"]
            )
            table.add_row(
                ["comm fraction", f"{self.comm_fraction * 100:.1f}%"]
            )
            for device, util in self.device_utilization().items():
                table.add_row(
                    [f"device {device} utilization", f"{util * 100:.1f}%"]
                )
        return table.render()

    # ------------------------------------------------------------------
    def _require_records(self) -> None:
        if not self.request_records:
            raise ServeError("no completed requests recorded")

    def _require_batches(self) -> None:
        if not self.batch_records and not self.step_records:
            raise ServeError("no batches recorded")


#: Help text of the ``serve_<name>_total`` counters, by name.
_COUNTERS = {
    "launches": "batch/step launches",
    "plan_cache": "plan-cache lookups by outcome",
    "requests_admitted": "admitted requests",
    "retries": "launch-failure retries",
    "drops": "dropped requests by outcome",
    "reshards": "health-driven re-shards",
    "circuit_opens": "circuit-breaker openings",
    "kv_evictions": "memory-pressure evictions",
}


def fill_registry(
    registry: MetricsRegistry,
    metrics: ServingMetrics,
    plan_cache: dict,
    is_decode: "Callable[[object], bool]",
) -> None:
    """Add one run's serving metrics to ``registry``, derived from its
    records, its plan-cache stats delta ``plan_cache``, and
    ``is_decode`` (was a request queued for the rolling batch?).

    Histograms observe launches by id and queue waits in completion
    order, so call this before the request records are sorted.
    Counters and histograms add to earlier runs; gauges hold this run's
    last value.  A zero total gets no sample, and a family with no
    samples is not created.
    """
    def queue(request: object) -> str:
        return "decode" if is_decode(request) else "prefill"

    # (counter name, label pairs) -> this run's total
    counts: Counter = Counter()
    launches = sorted(
        [(b.batch_id, b.model, b.modeled_gpu_s) for b in metrics.batch_records]
        + [(s.step_id, s.model, s.modeled_gpu_s) for s in metrics.step_records]
    )
    if launches:
        launch_s = registry.histogram(
            "serve_launch_seconds", "modeled GPU seconds per launch"
        )
        for _, model, seconds in launches:
            counts["launches", (("model", model),)] += 1
            launch_s.observe(seconds, model=model)
    if metrics.request_records:
        wait_s = registry.histogram(
            "serve_queue_wait_seconds", "queue wait per request"
        )
        for record in metrics.request_records:
            wait_s.observe(record.queue_wait_s, queue=queue(record.request))
    counts["plan_cache", (("outcome", "hit"),)] += plan_cache["hits"]
    counts["plan_cache", (("outcome", "miss"),)] += plan_cache["misses"]
    # Every request ends in one record, and all but the sheds at
    # admission were queued once.  A prefill request re-joins its queue
    # after each failed attempt, unless it timed out backing off.
    queued = [(r.request, r.retries, None) for r in metrics.request_records]
    queued += [
        (d.request, d.retries, d.where)
        for d in metrics.drop_records
        if d.outcome != "shed" or d.reason is not None
    ]
    for request, retries, where in queued:
        counts["requests_admitted", (("queue", queue(request)),)] += 1
        if not is_decode(request):
            model = ("model", request.model)
            counts["retries", (model,)] += retries - (where == "retry")
    pressure = ("reason", "memory-pressure")
    for step in metrics.step_records:
        model = ("model", step.model)
        counts["retries", (model,)] += step.retry
        counts["kv_evictions", (model, pressure)] += step.kv_evicted
    for drop in metrics.drop_records:
        model = ("model", drop.request.model)
        counts["drops", (("outcome", drop.outcome),)] += 1
        counts["kv_evictions", (model, pressure)] += drop.kv_evicted
    for reshard in metrics.reshard_records:
        model = ("model", reshard.model)
        counts["reshards", (model,)] += 1
        counts["kv_evictions", (model, ("reason", "reshard"))] += (
            reshard.kv_evicted
        )
    counts["circuit_opens", ()] += metrics.circuit_opens
    for (name, labels), total in counts.items():
        if total:
            registry.counter(f"serve_{name}_total", _COUNTERS[name]).inc(
                total, **dict(labels)
            )
    if metrics.memory is not None:
        kv_bytes = registry.gauge("serve_kv_bytes", "resident KV-cache bytes")
        for step in metrics.step_records:
            if step.kv_bytes is not None:
                kv_bytes.set(float(step.kv_bytes), model=step.model)
        kv_bytes.set(0.0)
