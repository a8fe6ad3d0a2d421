"""Batch formation: dynamic (cut-and-wait) and continuous (rolling).

:class:`DynamicBatcher` follows the standard max-size / max-wait
contract of serving systems: a queue is flushed as soon as it fills
either budget (request count or total activation rows), or once its
oldest request has waited ``max_wait_s``, or immediately when the
arrival stream has drained.  The stacked activation block is padded
with zero rows up to a *bucketed* row count so that repeat launches hit
the same execution plan — padding buys plan-cache locality at the cost
of a few wasted rows, exactly the trade the per-launch overheads in the
perf model reward.

:class:`ContinuousBatcher` serves decode-style traffic (requests of at
most ``decode_rows_threshold`` rows, typically long-running multi-step
sequences): instead of cutting a fresh batch and holding its geometry
until the slowest member finishes, it keeps one *rolling* in-flight
batch that refills from the queue at every engine step and evicts each
request the moment its own steps are done.  Higher-priority arrivals
may preempt resident lower-priority sequences when the row budget is
full (they rejoin at the next step with their progress kept).
"""

from __future__ import annotations

from dataclasses import dataclass
from operator import attrgetter

import numpy as np

from repro.errors import ServeError
from repro.serve.ledger import CostLedger
from repro.serve.queue import RequestQueue
from repro.serve.request import InferenceRequest
from repro.serve.scheduling import SchedulingPolicy, request_order_key
from repro.utils.intmath import ilog2_ceil, round_up
from repro.utils.validation import check_float, check_int

__all__ = [
    "BatchingPolicy",
    "Batch",
    "DynamicBatcher",
    "InFlightEntry",
    "default_recompute_cost",
    "ContinuousBatcher",
]


@dataclass(frozen=True)
class BatchingPolicy:
    """Tunables of the dynamic batcher.

    Parameters
    ----------
    max_batch_requests:
        Flush once this many requests are queued.
    max_batch_rows:
        Flush once the queued activation rows reach this budget; also
        the row budget of one batch (a single larger request still runs,
        alone).
    max_wait_s:
        Deadline: flush when the oldest request has waited this long,
        even if the batch is small (bounds tail latency).
    pad_rows_quantum:
        Pad the stacked batch up to a multiple of this row count.
    pow2_rows:
        Additionally round padded rows up to a power of two, collapsing
        the batch-size distribution onto a handful of buckets so the
        plan cache converges after a few batches.
    decode_rows_threshold:
        Requests with at most this many rows count as decode-style: a
        server running with continuous batching routes them to the
        rolling batch instead of the cut-and-wait dynamic batcher.
    """

    max_batch_requests: int = 16
    max_batch_rows: int = 256
    max_wait_s: float = 2e-3
    pad_rows_quantum: int = 8
    pow2_rows: bool = True
    decode_rows_threshold: int = 4

    def __post_init__(self) -> None:
        for name in ("max_batch_requests", "max_batch_rows", "pad_rows_quantum"):
            check_int(name, getattr(self, name), 1, error=ServeError)
        check_float("max_wait_s", self.max_wait_s, ge=0, error=ServeError)
        # Relates two fields: the decode cut-off must fit the row budget.
        check_int(
            "decode_rows_threshold", self.decode_rows_threshold, 1,
            self.max_batch_rows, error=ServeError,
        )

    def bucket_rows(self, rows: int) -> int:
        """The padded row count a ``rows``-row batch launches with."""
        if rows < 1:
            raise ServeError(f"batch must have >= 1 row, got {rows}")
        padded = round_up(rows, self.pad_rows_quantum)
        if self.pow2_rows:
            padded = 1 << ilog2_ceil(padded)
        return padded


@dataclass
class Batch:
    """One formed batch: the stacked (and padded) activation block plus
    the bookkeeping needed to hand each request its output slice.

    ``a`` is ``None`` when the batch was formed without stacking
    (modeled-time-only runs never execute the numerics, so the padded
    activation copy would be pure waste).
    """

    batch_id: int
    model: str
    requests: list[InferenceRequest]
    a: "np.ndarray | None"
    row_offsets: list[int]
    rows: int
    padded_rows: int

    @property
    def n_requests(self) -> int:
        return len(self.requests)

    def trace_attrs(self) -> dict:
        """The batch's identity as span attributes (what a trace
        viewer needs to tie a launch back to its requests)."""
        return {
            "batch_id": self.batch_id,
            "model": self.model,
            "requests": self.n_requests,
            "rows": self.rows,
            "padded_rows": self.padded_rows,
        }

    def split(self, c: np.ndarray) -> list[np.ndarray]:
        """Slice the batched product back into per-request outputs,
        dropping the zero-padding rows."""
        if c.shape[0] != self.padded_rows:
            raise ServeError(
                f"batched output has {c.shape[0]} rows but the batch "
                f"launched with {self.padded_rows}"
            )
        outputs: list[np.ndarray] = []
        for req, start in zip(self.requests, self.row_offsets, strict=True):
            outputs.append(c[start : start + req.rows])
        return outputs


def _build_batch(
    requests: list[InferenceRequest],
    policy: BatchingPolicy,
    batch_id: int,
    model: str,
    *,
    stack: bool,
    pad_to_k: "int | None",
) -> Batch:
    """Shared batch-geometry construction of the dynamic and continuous
    paths: validate k-compatibility, bucket the rows, lay out offsets,
    and optionally stack the zero-padded activation block."""
    rows = sum(req.rows for req in requests)
    widths = {req.k for req in requests}
    if len(widths) != 1:
        # The queue's admission guard makes this unreachable through
        # normal dynamic operation, but the rolling batch outlives the
        # queue's k lock (it resets when the queue drains) — so the
        # continuous path can reach it, and a clear error beats a numpy
        # broadcast failure either way.
        raise ServeError(
            f"cannot stack a mixed-k batch: requests have k in "
            f"{sorted(widths)}"
        )
    k = requests[0].k
    if pad_to_k is not None:
        if pad_to_k < k:
            raise ServeError(
                f"pad_to_k={pad_to_k} is narrower than the requests' k={k}"
            )
        k = pad_to_k
    padded_rows = policy.bucket_rows(rows)
    row_offsets: list[int] = []
    cursor = 0
    for req in requests:
        row_offsets.append(cursor)
        cursor += req.rows
    a: "np.ndarray | None" = None
    if stack:
        a = np.zeros((padded_rows, k), dtype=np.float32)
        for req, start in zip(requests, row_offsets, strict=True):
            a[start : start + req.rows, : req.k] = req.a
    return Batch(
        batch_id=batch_id,
        model=model,
        requests=requests,
        a=a,
        row_offsets=row_offsets,
        rows=rows,
        padded_rows=padded_rows,
    )


class DynamicBatcher:
    """Cuts batches off per-model FIFO queues under a
    :class:`BatchingPolicy`."""

    def __init__(self, policy: "BatchingPolicy | None" = None):
        self.policy = policy or BatchingPolicy()
        self._next_batch_id = 0

    # ------------------------------------------------------------------
    # Flush decision
    # ------------------------------------------------------------------
    def is_full(self, queue: RequestQueue) -> bool:
        """Whether the queue already fills a batch budget."""
        return (
            len(queue) >= self.policy.max_batch_requests
            or queue.total_rows >= self.policy.max_batch_rows
        )

    def deadline_s(self, queue: RequestQueue) -> "float | None":
        """The time at which the queue must flush regardless of size."""
        oldest = queue.oldest_arrival_s
        if oldest is None:
            return None
        return oldest + self.policy.max_wait_s

    def should_flush(
        self, queue: RequestQueue, now_s: float, *, drain: bool = False
    ) -> bool:
        """Whether a batch should be cut from this queue at ``now_s``.

        ``drain`` marks the end of the arrival stream: nothing is gained
        by waiting, so any nonempty queue flushes immediately.
        """
        if not queue:
            return False
        if drain or self.is_full(queue):
            return True
        deadline = self.deadline_s(queue)
        return deadline is not None and now_s >= deadline

    # ------------------------------------------------------------------
    # Batch formation
    # ------------------------------------------------------------------
    def form_batch(
        self,
        queue: RequestQueue,
        *,
        stack: bool = True,
        pad_to_k: "int | None" = None,
    ) -> Batch:
        """Pop the FIFO prefix within budget, pad to the row bucket,
        and return the batch.  ``stack=False`` skips building the
        stacked activation block (modeled-time-only runs);
        ``pad_to_k`` widens the stacked block with zero columns up to
        the weights' padded k, so execute() need not re-copy it.
        """
        requests = queue.pop_upto(
            self.policy.max_batch_requests, self.policy.max_batch_rows
        )
        return _build_batch(
            requests,
            self.policy,
            self.allocate_batch_id(),
            queue.model,
            stack=stack,
            pad_to_k=pad_to_k,
        )

    def allocate_batch_id(self) -> int:
        """Next id in the shared launch-id space (dynamic batches and
        continuous steps draw from the same counter, so a record's id is
        unambiguous within a run)."""
        batch_id = self._next_batch_id
        self._next_batch_id += 1
        return batch_id


# ---------------------------------------------------------------------------
# Continuous batching
# ---------------------------------------------------------------------------
@dataclass
class InFlightEntry:
    """One sequence resident in the rolling batch."""

    request: InferenceRequest
    remaining_steps: int
    joined_s: float  # first join = service start (kept across preemption)
    key: tuple  # request_order_key under the batcher's policy, set at join
    #: Model-mode bookkeeping: the sequence's prompt (plus any decoded
    #: progress) must be re-prefilled before its next decode step —
    #: true on first join and again after any eviction released its KV.
    needs_prefill: bool = True

    @property
    def completed_steps(self) -> int:
        """Decode steps already executed (progress a preemption would
        have to recompute)."""
        return self.request.steps - self.remaining_steps


def default_recompute_cost(entry: InFlightEntry) -> float:
    """Cost of preempting ``entry`` under the default model: the decode
    progress that would have to be recomputed on rejoin.  Model-mode
    servers override this with the victim's modeled re-prefill
    seconds."""
    return float(entry.completed_steps)


class ContinuousBatcher:
    """Maintains the rolling in-flight batch for decode-style traffic.

    Every engine step the batcher *refills* (admits waiting requests,
    preempting resident lower-priority sequences if the scheduling
    policy allows and the row budget is full), the engine runs one step
    over all resident rows, and :meth:`advance` evicts every sequence
    whose steps are done.  The per-step join/evict/preempt counts feed
    :class:`~repro.serve.metrics.ServingMetrics`.

    ``recompute_cost`` prices a preemption victim (re-prefill cost on
    rejoin): among equal-priority candidates the *cheapest* victims are
    evicted first, so a nearly-finished long decode survives when a
    fresher sequence frees the same rows.  The default prices progress
    in decode steps; the model-serving engine supplies modeled prefill
    seconds.
    """

    def __init__(
        self,
        policy: "BatchingPolicy | None" = None,
        scheduling: "str | SchedulingPolicy" = SchedulingPolicy.FIFO,
        *,
        recompute_cost=None,
    ):
        self.policy = policy or BatchingPolicy()
        self.scheduling = SchedulingPolicy.parse(scheduling)
        self.recompute_cost = (
            default_recompute_cost if recompute_cost is None else recompute_cost
        )
        self._inflight: list[InFlightEntry] = []
        self._preempted: list[InFlightEntry] = []
        #: request_id -> resident rows (conservation-checked; preempted
        #: sequences hold no rows).
        self._rows = CostLedger("cb.resident-rows")

    # ------------------------------------------------------------------
    # State
    # ------------------------------------------------------------------
    @property
    def resident(self) -> tuple[InFlightEntry, ...]:
        return tuple(self._inflight)

    @property
    def preempted(self) -> tuple[InFlightEntry, ...]:
        """Sequences waiting to rejoin after a preemption."""
        return tuple(self._preempted)

    @property
    def resident_rows(self) -> int:
        return self._rows.total

    @property
    def rows_ledger(self) -> CostLedger:
        """The underlying :class:`~repro.serve.ledger.CostLedger`
        (exposed so conservation tests can reconcile it directly)."""
        return self._rows

    @property
    def has_work(self) -> bool:
        """Whether any sequence is resident or waiting to rejoin."""
        return bool(self._inflight or self._preempted)

    def _fits(self, request: InferenceRequest) -> bool:
        return (
            len(self._inflight) < self.policy.max_batch_requests
            and self.resident_rows + request.rows
            <= self.policy.max_batch_rows
        )

    def _admit(self, entry: InFlightEntry) -> None:
        self._inflight.append(entry)
        self._rows.add(entry.request.request_id, entry.request.rows)

    def _displace(self, entry: InFlightEntry) -> None:
        self._inflight.remove(entry)
        self._rows.remove(entry.request.request_id)
        entry.needs_prefill = True
        self._preempted.append(entry)

    # ------------------------------------------------------------------
    # Step lifecycle
    # ------------------------------------------------------------------
    def refill(
        self, queue: RequestQueue, now_s: float, *, gate=None
    ) -> tuple[int, int]:
        """Admit waiting work into the rolling batch at ``now_s``.

        Waiting work — sequences displaced by an earlier preemption
        (which keep their progress and original service-start time) and
        queued requests alike — is admitted as one urgency-ordered
        stream under the scheduling policy.  A candidate of *strictly*
        higher priority may preempt lower-priority resident sequences
        to make room — transactionally: nothing is evicted unless the
        evictions actually admit the candidate (a partial eviction
        would starve the victim without serving anyone).  Under
        ``priority``/``slo-edf`` an inadmissible candidate blocks the
        stream: less urgent work must not slip into the space the most
        urgent waiter needs (head-of-line semantics are exactly the
        strict-priority guarantee).

        ``gate`` is an extra admission predicate
        ``gate(request, completed_steps) -> bool`` (the device-memory
        model's KV-fit check).  A gate refusal blocks the stream like a
        full row budget under head-of-line semantics, but is never
        resolved by preemption — freeing rows would not free the
        resource the gate guards; the engine evicts for that resource
        at growth time instead.
        Returns ``(joined, preempted)`` counts for the step record.
        """
        joined = 0
        preempted = 0
        while True:
            # Fresh victims may have been appended last iteration, so
            # the most urgent waiter is re-derived each round (the
            # lists are a handful of entries).
            self._preempted.sort(key=attrgetter("key"))
            rejoin = self._preempted[0] if self._preempted else None
            fresh = queue.peek() if queue else None
            if rejoin is not None and (
                fresh is None
                or rejoin.key < request_order_key(fresh, self.scheduling)
            ):
                candidate, entry = rejoin.request, rejoin
            elif fresh is not None:
                candidate, entry = fresh, None
            else:
                break
            if gate is not None and not gate(
                candidate, 0 if entry is None else entry.completed_steps
            ):
                break
            if not self._fits(candidate):
                if self.scheduling is SchedulingPolicy.FIFO:
                    break
                victims = self._preemption_victims(candidate)
                if victims is None:
                    break
                for victim in victims:
                    self._displace(victim)
                preempted += len(victims)
            if entry is not None:
                self._preempted.remove(entry)
                self._admit(entry)
            else:
                self._admit(
                    InFlightEntry(
                        request=queue.pop_next(),
                        remaining_steps=candidate.steps,
                        joined_s=now_s,
                        key=request_order_key(candidate, self.scheduling),
                    )
                )
            joined += 1
        return joined, preempted

    def eviction_order(
        self, below_priority: "int | None" = None
    ) -> list[InFlightEntry]:
        """Resident sequences in eviction order: lowest priority first,
        then cheapest recompute cost, latest-joined breaking exact ties
        — so a nearly-finished long decode is spared whenever a cheaper
        victim frees the same rows.  With ``below_priority`` only
        entries of strictly lower priority are listed.  Prices each
        listed entry once."""
        ranked = [
            (entry.request.priority, self.recompute_cost(entry), -index, entry)
            for index, entry in enumerate(self._inflight)
            if below_priority is None or entry.request.priority < below_priority
        ]
        ranked.sort(key=lambda item: item[:3])
        return [item[3] for item in ranked]

    def _preemption_victims(
        self, candidate: InferenceRequest
    ) -> "list[InFlightEntry] | None":
        """The resident set whose eviction admits ``candidate``: a
        prefix of the strictly-lower-priority :meth:`eviction_order`.
        ``None`` when even evicting all of them would not make the
        candidate fit."""
        rows = self.resident_rows
        count = len(self._inflight)
        victims: list[InFlightEntry] = []
        for entry in self.eviction_order(candidate.priority):
            victims.append(entry)
            rows -= entry.request.rows
            count -= 1
            if (
                count < self.policy.max_batch_requests
                and rows + candidate.rows <= self.policy.max_batch_rows
            ):
                return victims
        return None

    def preempt_entries(self, entries) -> None:
        """Displace ``entries`` (resident) to the preempted pool —
        the engine's memory-pressure eviction path.  Rows free
        immediately; the sequences keep their progress and rejoin
        through :meth:`refill` like any preemption victim."""
        for entry in entries:
            self._displace(entry)

    def form_step(
        self,
        batch_id: int,
        *,
        stack: bool = True,
        pad_to_k: "int | None" = None,
    ) -> Batch:
        """The current resident set as a :class:`Batch` (one engine
        step's launch geometry)."""
        if not self._inflight:
            raise ServeError("form_step with no resident sequences")
        requests = [e.request for e in self._inflight]
        return _build_batch(
            requests,
            self.policy,
            batch_id,
            requests[0].model,
            stack=stack,
            pad_to_k=pad_to_k,
        )

    def cancel_where(
        self, predicate
    ) -> list[InFlightEntry]:
        """Remove every in-flight or preemption-parked sequence whose
        request matches ``predicate`` (timeout/cancellation path).

        The cancelled entries release their rows immediately — the next
        :meth:`form_step` simply no longer includes them — and are
        returned so the engine can account them as evictions in the
        step/metrics records.
        """
        cancelled: list[InFlightEntry] = []
        for pool_name in ("_inflight", "_preempted"):
            pool = getattr(self, pool_name)
            kept = []
            for entry in pool:
                if predicate(entry.request):
                    if pool_name == "_inflight":
                        self._rows.remove(entry.request.request_id)
                    cancelled.append(entry)
                else:
                    kept.append(entry)
            setattr(self, pool_name, kept)
        return cancelled

    def advance(self) -> list[tuple[int, InFlightEntry]]:
        """Account one executed step: decrement every resident
        sequence and evict the finished ones.  Returns ``(index,
        entry)`` pairs in batch order (the index addresses the step's
        output slices)."""
        finished: list[tuple[int, InFlightEntry]] = []
        surviving: list[InFlightEntry] = []
        for index, entry in enumerate(self._inflight):
            entry.remaining_steps -= 1
            if entry.remaining_steps <= 0:
                self._rows.remove(entry.request.request_id)
                finished.append((index, entry))
            else:
                surviving.append(entry)
        self._inflight = surviving
        return finished
