"""Per-model priority-aware request queue.

One :class:`RequestQueue` holds the admitted-but-unlaunched requests of
a single registered model, grouped into strict-priority tiers.  The pop
order follows the queue's :class:`~repro.serve.scheduling.SchedulingPolicy`:

* ``fifo`` — one tier, strict arrival order (the original behaviour);
* ``priority`` — highest tier first, FIFO within a tier;
* ``slo-edf`` — highest tier first, earliest deadline first within a
  tier (requests without an SLO sort after every deadlined request of
  their tier, in arrival order).

Invariant: every tier list is in *pop order*, so the next request is
the head of the highest tier and ``peek``/``pop`` never scan.  Under
``fifo`` and ``priority`` pop order is arrival order.  Under
``slo-edf`` admission bisect-inserts by
:func:`~repro.serve.scheduling.request_order_key` (O(log n) key
evaluations), and each tier also keeps its own arrival bookkeeping: a
second list in arrival order.  Once a tier mixes SLOs its deadline
order says nothing about arrivals, so the oldest arrival, the newest
arrival the admission guard checks, and the arrival-ordered walks of
:meth:`RequestQueue.iter_requests` / :meth:`RequestQueue.remove_where`
all read the arrival list.

The batcher inspects the queue's aggregate state (request count, total
rows, oldest arrival) to decide when a batch should be cut.  Admission
keeps two guards: arrivals must be time-ordered *per tier*, and every
queued request must share one activation width ``k`` (a mixed-k batch
cannot be stacked — see ``DynamicBatcher.form_batch``).
"""

from __future__ import annotations

from bisect import bisect_left, insort
from operator import attrgetter
from typing import Callable, Iterator

from repro.errors import ServeError
from repro.serve.ledger import CostLedger
from repro.serve.request import InferenceRequest
from repro.serve.scheduling import SchedulingPolicy, request_order_key

__all__ = ["RequestQueue"]

_arrival_s = attrgetter("arrival_s")


def _arrival_key(request: InferenceRequest) -> tuple[float, int]:
    return (request.arrival_s, request.request_id)


def _edf_key(request: InferenceRequest) -> tuple:
    return request_order_key(request, SchedulingPolicy.SLO_EDF)


class _Tier:
    """The requests of one priority tier, in arrival order and in pop
    order.  Both names refer to one list unless the policy orders the
    tier by deadline."""

    __slots__ = ("by_arrival", "by_pop", "edf")

    def __init__(self, edf: bool):
        self.edf = edf
        self.by_arrival: list[InferenceRequest] = []
        self.by_pop = [] if edf else self.by_arrival

    @property
    def oldest_arrival_s(self) -> float:
        return self.by_arrival[0].arrival_s

    @property
    def newest_arrival_s(self) -> float:
        return self.by_arrival[-1].arrival_s

    def add(self, request: InferenceRequest, retried: bool) -> None:
        if retried:  # a retry keeps its original, older arrival
            insort(self.by_arrival, request, key=_arrival_key)
        else:
            self.by_arrival.append(request)
        if self.edf:
            insort(self.by_pop, request, key=_edf_key)

    def pop_head(self) -> InferenceRequest:
        request = self.by_pop.pop(0)
        if self.edf:
            arrivals = self.by_arrival
            index = bisect_left(arrivals, request.arrival_s, key=_arrival_s)
            while arrivals[index] is not request:  # equal-arrival run
                index += 1
            del arrivals[index]
        return request

    def remove_where(
        self, predicate: Callable[[InferenceRequest], bool]
    ) -> list[InferenceRequest]:
        removed = [r for r in self.by_arrival if predicate(r)]
        if removed:
            gone = {r.request_id for r in removed}
            self.by_arrival = [
                r for r in self.by_arrival if r.request_id not in gone
            ]
            self.by_pop = (
                [r for r in self.by_pop if r.request_id not in gone]
                if self.edf
                else self.by_arrival
            )
        return removed


class RequestQueue:
    """Priority-tiered queue of pending requests for one model."""

    def __init__(
        self,
        model: str,
        scheduling: "str | SchedulingPolicy" = SchedulingPolicy.FIFO,
    ):
        if not model:
            raise ServeError("queue needs a model name")
        self.model = model
        self.scheduling = SchedulingPolicy.parse(scheduling)
        #: priority tier -> its requests.  Under FIFO every request
        #: lands in tier 0 (priorities are ignored).
        self._tiers: dict[int, _Tier] = {}
        #: request_id -> queued rows; its conservation-checked total is
        #: what admission control polls.
        self._rows = CostLedger(f"{model}.queued-rows")
        self._k: "int | None" = None

    # ------------------------------------------------------------------
    # State
    # ------------------------------------------------------------------
    def __len__(self) -> int:
        return len(self._rows)

    def __bool__(self) -> bool:
        return bool(self._rows)

    @property
    def total_rows(self) -> int:
        """Activation rows currently queued (the batch ``m`` a full
        flush would produce before padding).  Maintained incrementally:
        the scheduler polls this on every event-loop step."""
        return self._rows.total

    @property
    def rows_ledger(self) -> CostLedger:
        """The underlying :class:`~repro.serve.ledger.CostLedger`
        (exposed so conservation tests can reconcile it directly)."""
        return self._rows

    @property
    def oldest_arrival_s(self) -> "float | None":
        """Arrival time of the longest-waiting request (across tiers)."""
        if not self._rows:
            return None
        return min(tier.oldest_arrival_s for tier in self._tiers.values())

    def _tier_of(self, request: InferenceRequest) -> int:
        if self.scheduling is SchedulingPolicy.FIFO:
            return 0
        return request.priority

    def _admit(self, request: InferenceRequest, retried: bool) -> None:
        self._rows.add(request.request_id, request.rows)
        key = self._tier_of(request)
        tier = self._tiers.get(key)
        if tier is None:
            edf = self.scheduling is SchedulingPolicy.SLO_EDF
            tier = self._tiers[key] = _Tier(edf)
        tier.add(request, retried)
        self._k = request.k

    # ------------------------------------------------------------------
    # Mutation
    # ------------------------------------------------------------------
    def push(self, request: InferenceRequest) -> None:
        """Admit a request.  Admission must follow simulated time
        within a tier: a request may not arrive before its tier's
        newest entry.  All queued requests must share one ``k``."""
        if request.model != self.model:
            raise ServeError(
                f"request for model {request.model!r} pushed onto the "
                f"{self.model!r} queue"
            )
        if self._k is not None and request.k != self._k:
            raise ServeError(
                f"request {request.request_id} has k={request.k} but the "
                f"{self.model!r} queue holds k={self._k} requests; a "
                "mixed-k batch cannot be stacked"
            )
        key = self._tier_of(request)
        tier = self._tiers.get(key)
        if tier is not None and request.arrival_s < tier.newest_arrival_s:
            raise ServeError(
                f"out-of-order admission: request {request.request_id} "
                f"arrives at {request.arrival_s} but tier {key} of the "
                f"queue tail is at {tier.newest_arrival_s}"
            )
        self._admit(request, retried=False)

    def requeue(self, request: InferenceRequest) -> None:
        """Re-admit a retried request.

        A retry carries its *original* arrival time, which is usually
        older than the tier's tail — so the time-ordered admission
        guard of :meth:`push` would reject it.  ``requeue`` instead
        bisect-inserts the request by arrival time within its tier,
        preserving the per-tier time ordering that ``push`` enforces
        for fresh arrivals.  The ``k``-homogeneity guard still applies.
        """
        if request.model != self.model:
            raise ServeError(
                f"request for model {request.model!r} requeued onto the "
                f"{self.model!r} queue"
            )
        if self._k is not None and request.k != self._k:
            raise ServeError(
                f"retried request {request.request_id} has k={request.k} "
                f"but the {self.model!r} queue holds k={self._k} requests"
            )
        self._admit(request, retried=True)

    def remove_where(
        self, predicate: Callable[[InferenceRequest], bool]
    ) -> list[InferenceRequest]:
        """Remove and return every queued request matching
        ``predicate`` (tier by tier, arrival order within a tier),
        unwinding the row/count accounting (used for timeout
        cancellation)."""
        removed: list[InferenceRequest] = []
        for key in list(self._tiers):
            tier = self._tiers[key]
            removed.extend(tier.remove_where(predicate))
            if not tier.by_arrival:
                del self._tiers[key]
        for request in removed:
            self._rows.remove(request.request_id)
        if not self._rows:
            self._k = None
        return removed

    def iter_requests(self) -> Iterator[InferenceRequest]:
        """All queued requests (tier-major, time order within a tier)."""
        for key in sorted(self._tiers, reverse=True):
            yield from self._tiers[key].by_arrival

    def peek(self) -> InferenceRequest:
        """The request the policy would pop next, without removing it."""
        if not self._rows:
            raise ServeError(f"peek into empty queue {self.model!r}")
        return self._tiers[max(self._tiers)].by_pop[0]

    def pop_next(self) -> InferenceRequest:
        """Pop exactly the request the policy serves next."""
        if not self._rows:
            raise ServeError(f"pop from empty queue {self.model!r}")
        key = max(self._tiers)
        tier = self._tiers[key]
        request = tier.pop_head()
        if not tier.by_arrival:
            del self._tiers[key]
        self._rows.remove(request.request_id)
        if not self._rows:
            self._k = None
        return request

    def pop_upto(
        self, max_requests: int, max_rows: int
    ) -> list[InferenceRequest]:
        """Pop the policy-ordered prefix that fits both budgets.

        Always pops at least one request (a single oversized request
        still has to run), then keeps taking requests while both the
        request-count and row budgets hold.
        """
        if not self._rows:
            raise ServeError(f"pop from empty queue {self.model!r}")
        if max_requests < 1 or max_rows < 1:
            raise ServeError(
                f"budgets must be >= 1, got max_requests={max_requests}, "
                f"max_rows={max_rows}"
            )
        taken = [self.pop_next()]
        rows = taken[0].rows
        while self._rows and len(taken) < max_requests:
            nxt = self.peek()
            if rows + nxt.rows > max_rows:
                break
            taken.append(self.pop_next())
            rows += nxt.rows
        return taken
