"""Tests for the scheduling layer: priority/SLO-tagged requests, the
priority-aware queue, continuous batching, the SchedulingPolicy wiring
through the engine, tagged load generation, and the fifo-vs-slo-edf
acceptance comparison on the simulated clock."""

from bisect import insort

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from test_serve import record_for

from repro.cli import main
from repro.core.api import NMSpMM
from repro.errors import ServeError
from repro.serve.batcher import BatchingPolicy, ContinuousBatcher, DynamicBatcher, InFlightEntry
from repro.serve.cache import PlanCache
from repro.serve.ledger import CostLedger
from repro.serve.loadgen import (
    DECODE_ROWS_CHOICES,
    TrafficSource,
    generate_requests,
)
from repro.serve.queue import RequestQueue
from repro.serve.request import InferenceRequest, RequestRecord
from repro.serve.scenarios import LlamaServingScenario
from repro.serve.scheduling import SchedulingPolicy, request_order_key
from repro.serve.server import InferenceServer
from repro.sparsity.config import NMPattern


def int_matrix(rng, rows, cols):
    return rng.integers(-4, 5, size=(rows, cols)).astype(np.float32)


def fuzz_examples(tier1):
    """``tier1`` Hypothesis examples, or the ``serve-fuzz`` profile's
    count when that profile is loaded (CI's long fuzzer run)."""
    if settings.get_current_profile_name() == "serve-fuzz":
        return settings().max_examples
    return tier1


def meta_request(request_id, rows=1, *, model="m", arrival_s=0.0, k=8,
                 priority=0, slo_ms=None, steps=1):
    """A metadata-only request (scheduling tests never need numerics)."""
    return InferenceRequest(
        request_id=request_id,
        model=model,
        a=None,
        arrival_s=arrival_s,
        shape=(rows, k),
        priority=priority,
        slo_ms=slo_ms,
        steps=steps,
    )


# ---------------------------------------------------------------------------
# Tagged requests
# ---------------------------------------------------------------------------
class TestTaggedRequest:
    def test_tags_validated(self):
        with pytest.raises(ServeError):
            meta_request(0, priority=-1)
        with pytest.raises(ServeError):
            meta_request(0, slo_ms=0.0)
        with pytest.raises(ServeError):
            meta_request(0, slo_ms=float("inf"))
        with pytest.raises(ServeError):
            meta_request(0, steps=0)

    def test_deadline(self):
        req = meta_request(0, arrival_s=1.0, slo_ms=5.0)
        assert req.deadline_s == pytest.approx(1.005)
        assert meta_request(0).deadline_s is None

    def test_label_carries_tags(self):
        req = meta_request(7, priority=2, slo_ms=4.0, steps=8)
        assert "pri=2" in req.label()
        assert "slo=4ms" in req.label()
        assert "steps=8" in req.label()

    def test_slo_met(self):
        req = meta_request(0, arrival_s=0.0, slo_ms=2.0)
        ok = RequestRecord(request=req, batch_id=0, started_s=0.0,
                           finished_s=0.0015)
        late = RequestRecord(request=req, batch_id=0, started_s=0.0,
                             finished_s=0.0025)
        assert ok.slo_met is True
        assert late.slo_met is False
        untagged = RequestRecord(request=meta_request(1), batch_id=0,
                                 started_s=0.0, finished_s=1.0)
        assert untagged.slo_met is None


class TestSchedulingPolicy:
    def test_parse(self):
        assert SchedulingPolicy.parse("slo-edf") is SchedulingPolicy.SLO_EDF
        assert (
            SchedulingPolicy.parse(SchedulingPolicy.FIFO)
            is SchedulingPolicy.FIFO
        )
        with pytest.raises(ServeError):
            SchedulingPolicy.parse("lifo")

    def test_order_keys(self):
        hi = meta_request(1, arrival_s=1.0, priority=2, slo_ms=1.0)
        lo_early = meta_request(0, arrival_s=0.0, priority=0)
        # FIFO ignores priority; priority/slo-edf rank the tier first.
        fifo = SchedulingPolicy.FIFO
        assert request_order_key(lo_early, fifo) < request_order_key(hi, fifo)
        for policy in (SchedulingPolicy.PRIORITY, SchedulingPolicy.SLO_EDF):
            assert (
                request_order_key(hi, policy)
                < request_order_key(lo_early, policy)
            )
        # Within a tier, a sooner deadline beats no deadline under EDF.
        tight = meta_request(2, arrival_s=1.0, slo_ms=1.0)
        loose = meta_request(3, arrival_s=0.5)
        assert (
            request_order_key(tight, SchedulingPolicy.SLO_EDF)
            < request_order_key(loose, SchedulingPolicy.SLO_EDF)
        )


# ---------------------------------------------------------------------------
# Priority-aware queue
# ---------------------------------------------------------------------------
class TestPriorityQueueing:
    def test_fifo_ignores_priority(self):
        q = RequestQueue("m", "fifo")
        q.push(meta_request(0, arrival_s=0.0, priority=0))
        q.push(meta_request(1, arrival_s=0.1, priority=9))
        assert [r.request_id for r in q.pop_upto(10, 100)] == [0, 1]

    def test_priority_tiers_fifo_within(self):
        q = RequestQueue("m", "priority")
        q.push(meta_request(0, arrival_s=0.0, priority=0))
        q.push(meta_request(1, arrival_s=0.1, priority=2))
        q.push(meta_request(2, arrival_s=0.2, priority=2))
        q.push(meta_request(3, arrival_s=0.3, priority=1))
        assert [r.request_id for r in q.pop_upto(10, 100)] == [1, 2, 3, 0]

    def test_edf_within_tier(self):
        q = RequestQueue("m", "slo-edf")
        q.push(meta_request(0, arrival_s=0.0))               # no SLO
        q.push(meta_request(1, arrival_s=0.1, slo_ms=50.0))  # deadline .150
        q.push(meta_request(2, arrival_s=0.2, slo_ms=5.0))   # deadline .205
        q.push(meta_request(3, arrival_s=0.3, slo_ms=500.0))
        assert [r.request_id for r in q.pop_upto(10, 100)] == [1, 2, 3, 0]

    def test_edf_tier_keeps_arrival_bookkeeping(self):
        """A tier that mixes SLOs pops by deadline, but its oldest
        arrival, admission guard, iteration and drop order stay in
        arrival order."""
        q = RequestQueue("m", "slo-edf")
        q.push(meta_request(0, arrival_s=0.000))               # no SLO
        q.push(meta_request(1, arrival_s=0.001, slo_ms=50.0))
        q.push(meta_request(2, arrival_s=0.002, slo_ms=2.0))
        assert q.peek().request_id == 2
        assert q.oldest_arrival_s == 0.000
        assert [r.request_id for r in q.iter_requests()] == [0, 1, 2]
        with pytest.raises(ServeError, match="queue tail is at 0.002"):
            q.push(meta_request(3, arrival_s=0.0015, slo_ms=2.0))
        dropped = q.remove_where(lambda r: r.request_id != 1)
        assert [r.request_id for r in dropped] == [0, 2]
        assert q.oldest_arrival_s == 0.001

    def test_edf_respects_tiers_first(self):
        q = RequestQueue("m", "slo-edf")
        q.push(meta_request(0, arrival_s=0.0, priority=0, slo_ms=1.0))
        q.push(meta_request(1, arrival_s=0.1, priority=1, slo_ms=500.0))
        assert q.pop_next().request_id == 1

    def test_out_of_order_guard_is_per_tier(self):
        q = RequestQueue("m", "priority")
        q.push(meta_request(0, arrival_s=1.0, priority=0))
        # A different tier may hold older arrivals...
        q.push(meta_request(1, arrival_s=0.5, priority=1))
        # ...but within a tier time must not run backwards.
        with pytest.raises(ServeError):
            q.push(meta_request(2, arrival_s=0.2, priority=1))

    def test_peek_matches_pop(self):
        q = RequestQueue("m", "priority")
        q.push(meta_request(0, arrival_s=0.0, priority=0))
        q.push(meta_request(1, arrival_s=0.1, priority=3))
        assert q.peek().request_id == 1
        assert q.pop_next().request_id == 1
        assert q.peek().request_id == 0

    def test_peek_pop_empty_raise(self):
        q = RequestQueue("m")
        with pytest.raises(ServeError):
            q.peek()
        with pytest.raises(ServeError):
            q.pop_next()

    def test_aggregates_across_tiers(self):
        q = RequestQueue("m", "slo-edf")
        q.push(meta_request(0, rows=3, arrival_s=0.4, priority=2))
        q.push(meta_request(1, rows=5, arrival_s=0.1, priority=0, slo_ms=10.0))
        assert q.total_rows == 8
        # The max-wait deadline keys off the oldest arrival regardless
        # of which tier it sits in.
        assert q.oldest_arrival_s == pytest.approx(0.1)

    def test_mixed_k_admission_rejected(self):
        """Satellite regression: a mixed-k batch used to die inside
        numpy when stacked; now admission fails with a clear error."""
        q = RequestQueue("m")
        q.push(meta_request(0, k=8))
        with pytest.raises(ServeError, match="mixed-k"):
            q.push(meta_request(1, k=16))
        # Draining the queue resets the locked width.
        q.pop_upto(10, 100)
        q.push(meta_request(2, k=16))
        assert q.peek().k == 16

    def test_mixed_k_traffic_through_batcher(self, rng):
        """End-to-end: mixed-k traffic into one queue raises ServeError
        at admission rather than ValueError at stacking time."""
        batcher = DynamicBatcher()
        q = RequestQueue("m")
        q.push(InferenceRequest(request_id=0, model="m",
                                a=int_matrix(rng, 2, 8), arrival_s=0.0))
        with pytest.raises(ServeError):
            q.push(InferenceRequest(request_id=1, model="m",
                                    a=int_matrix(rng, 2, 12), arrival_s=0.1))
        batch = batcher.form_batch(q)  # the compatible request still runs
        assert batch.n_requests == 1

    @settings(max_examples=60, deadline=None)
    @given(
        scheduling=st.sampled_from(["fifo", "priority", "slo-edf"]),
        ops=st.lists(
            st.one_of(
                st.tuples(
                    st.just("push"),
                    st.integers(min_value=1, max_value=64),  # rows
                    st.integers(min_value=0, max_value=3),   # priority
                    st.sampled_from([None, 2.0, 50.0]),      # slo_ms
                ),
                st.tuples(
                    st.just("pop"),
                    st.integers(min_value=1, max_value=8),   # max_requests
                    st.integers(min_value=1, max_value=128), # max_rows
                ),
                st.tuples(
                    st.just("cancel"),
                    st.integers(min_value=2, max_value=5),   # id modulus
                ),
                st.tuples(st.just("requeue")),
            ),
            max_size=40,
        ),
    )
    def test_total_rows_never_drifts(self, scheduling, ops):
        """Satellite property test: after any interleaving of pushes,
        budgeted pops, timeout cancellations (``remove_where``) and
        retry re-admissions (``requeue``, which carries an arrival
        time older than the tier tail), ``total_rows`` equals the sum
        of the queued requests' rows."""
        q = RequestQueue("m", scheduling)
        live: dict[int, int] = {}  # request_id -> rows
        popped: list = []          # retry-candidate pool
        next_id = 0
        clock = 0.0
        for op in ops:
            if op[0] == "push":
                _, rows, priority, slo_ms = op
                q.push(
                    meta_request(next_id, rows, arrival_s=clock,
                                 priority=priority, slo_ms=slo_ms)
                )
                live[next_id] = rows
                next_id += 1
                clock += 0.001
            elif op[0] == "pop" and live:
                _, max_requests, max_rows = op
                for req in q.pop_upto(max_requests, max_rows):
                    del live[req.request_id]
                    popped.append(req)
            elif op[0] == "cancel":
                _, modulus = op
                removed = q.remove_where(
                    lambda r: r.request_id % modulus == 0
                )
                for req in removed:
                    del live[req.request_id]
            elif op[0] == "requeue" and popped:
                req = popped.pop()
                q.requeue(req)
                live[req.request_id] = req.rows
            assert q.total_rows == sum(live.values())
            assert len(q) == len(live)
        assert q.total_rows == sum(live.values())



# ---------------------------------------------------------------------------
# The queue against a frozen linear-scan reference
# ---------------------------------------------------------------------------
class _ReferenceQueue:
    """Frozen copy of the linear-scan ``RequestQueue`` that kept every
    tier in arrival order and scanned the top tier for the minimum
    ``request_order_key`` on every ``slo-edf`` select.  The oracle the
    sorted-tier queue must match operation for operation."""

    def __init__(self, model, scheduling=SchedulingPolicy.FIFO):
        self.model = model
        self.scheduling = SchedulingPolicy.parse(scheduling)
        self._tiers: dict[int, list[InferenceRequest]] = {}
        self._rows = CostLedger(f"{model}.queued-rows")
        self._k = None

    def __len__(self):
        return len(self._rows)

    @property
    def total_rows(self):
        return self._rows.total

    @property
    def oldest_arrival_s(self):
        if not self._rows:
            return None
        return min(items[0].arrival_s for items in self._tiers.values())

    def _tier_of(self, request):
        if self.scheduling is SchedulingPolicy.FIFO:
            return 0
        return request.priority

    def push(self, request):
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
        tier = self._tier_of(request)
        items = self._tiers.get(tier)
        if items and request.arrival_s < items[-1].arrival_s:
            raise ServeError(
                f"out-of-order admission: request {request.request_id} "
                f"arrives at {request.arrival_s} but tier {tier} of the "
                f"queue tail is at {items[-1].arrival_s}"
            )
        if items is None:
            items = self._tiers[tier] = []
        items.append(request)
        self._rows.add(request.request_id, request.rows)
        self._k = request.k

    def requeue(self, request):
        tier = self._tier_of(request)
        items = self._tiers.get(tier)
        if items is None:
            items = self._tiers[tier] = []
        insort(items, request, key=lambda r: (r.arrival_s, r.request_id))
        self._rows.add(request.request_id, request.rows)
        self._k = request.k

    def remove_where(self, predicate):
        removed = []
        for tier in list(self._tiers):
            items = self._tiers[tier]
            kept = []
            for request in items:
                if predicate(request):
                    removed.append(request)
                else:
                    kept.append(request)
            if kept:
                self._tiers[tier] = kept
            else:
                del self._tiers[tier]
        for request in removed:
            self._rows.remove(request.request_id)
        if not self._rows:
            self._k = None
        return removed

    def iter_requests(self):
        for tier in sorted(self._tiers, reverse=True):
            yield from self._tiers[tier]

    def _select(self):
        tier = max(self._tiers)
        items = self._tiers[tier]
        if self.scheduling is SchedulingPolicy.SLO_EDF:
            index = min(
                range(len(items)),
                key=lambda i: request_order_key(items[i], self.scheduling),
            )
        else:
            index = 0
        return tier, index

    def peek(self):
        tier, index = self._select()
        return self._tiers[tier][index]

    def _pop_at(self, tier, index):
        items = self._tiers[tier]
        request = items.pop(index)
        if not items:
            del self._tiers[tier]
        self._rows.remove(request.request_id)
        if not self._rows:
            self._k = None
        return request

    def pop_upto(self, max_requests, max_rows):
        taken = [self._pop_at(*self._select())]
        rows = taken[0].rows
        while self._rows:
            tier, index = self._select()
            nxt = self._tiers[tier][index]
            if len(taken) + 1 > max_requests or rows + nxt.rows > max_rows:
                break
            taken.append(self._pop_at(tier, index))
            rows += nxt.rows
        return taken


def _ids(requests):
    return [r.request_id for r in requests]


_PUSH = st.tuples(
    st.just("push"),
    st.integers(min_value=1, max_value=64),  # rows
    st.integers(min_value=0, max_value=2),   # priority
    st.sampled_from([None, 2.0, 50.0]),      # slo_ms
    st.sampled_from([0.0, 0.001, -0.0015]),  # clock step
)


def assert_head_key(queue):
    """The key the queue holds for its head is the one the policy
    assigns that request."""
    if len(queue):
        assert queue.peek_key() == request_order_key(queue.peek(), queue.scheduling)


class TestQueueMatchesReference:
    @settings(max_examples=fuzz_examples(200), deadline=None)
    @given(
        scheduling=st.sampled_from(["fifo", "priority", "slo-edf"]),
        scrambled_ids=st.booleans(),
        ops=st.lists(
            st.one_of(
                *[_PUSH] * 4,  # weighted: backlogs must build up
                st.tuples(
                    st.just("pop"),
                    st.integers(min_value=1, max_value=8),   # max_requests
                    st.integers(min_value=1, max_value=128), # max_rows
                ),
                st.tuples(
                    st.just("cancel"),
                    st.integers(min_value=1, max_value=4),   # id modulus
                ),
                st.tuples(st.just("requeue"), st.integers(0, 7)),
                st.tuples(st.just("peek")),
            ),
            min_size=8,
            max_size=60,
        ),
    )
    def test_same_observable_behaviour(self, scheduling, scrambled_ids, ops):
        """Differential property: under every policy, with SLOs and
        priorities mixed inside one tier, equal arrivals, ids that do
        or do not follow arrival order, and a clock that sometimes steps
        back (an out-of-order push), the queue and the linear-scan
        reference agree on every pop, peek, drop order, iteration
        order, oldest arrival, row total and admission error."""
        new = RequestQueue("m", scheduling)
        ref = _ReferenceQueue("m", scheduling)
        popped: list = []  # retry-candidate pool
        next_id = 0
        clock = 1.0
        for op in ops:
            if op[0] == "push":
                _, rows, priority, slo_ms, step = op
                clock += step
                request_id = (next_id * 7919) % 10007 if scrambled_ids else next_id
                next_id += 1
                request = meta_request(request_id, rows, arrival_s=clock,
                                       priority=priority, slo_ms=slo_ms)
                errors = []
                for q in (new, ref):
                    try:
                        q.push(request)
                    except ServeError as exc:
                        errors.append(str(exc))
                assert len(errors) in (0, 2)
                assert len(set(errors)) <= 1
            elif op[0] == "pop" and len(ref):
                _, max_requests, max_rows = op
                taken = new.pop_upto(max_requests, max_rows)
                assert _ids(taken) == _ids(ref.pop_upto(max_requests, max_rows))
                popped.extend(taken)
            elif op[0] == "cancel":
                _, modulus = op
                dropped = new.remove_where(lambda r: r.request_id % modulus == 0)
                expected = ref.remove_where(lambda r: r.request_id % modulus == 0)
                assert _ids(dropped) == _ids(expected)
            elif op[0] == "requeue" and popped:
                request = popped.pop(op[1] % len(popped))
                new.requeue(request)
                ref.requeue(request)
            elif op[0] == "peek" and len(ref):
                assert new.peek().request_id == ref.peek().request_id
            assert _ids(new.iter_requests()) == _ids(ref.iter_requests())
            assert new.oldest_arrival_s == ref.oldest_arrival_s
            assert new.total_rows == ref.total_rows
            assert len(new) == len(ref)
            assert_head_key(new)
        # Draining what is left pops in the same order too.
        while len(ref):
            assert _ids(new.pop_upto(3, 64)) == _ids(ref.pop_upto(3, 64))
            assert_head_key(new)
        assert len(new) == 0 and new.oldest_arrival_s is None

    def test_edf_drain_is_n_log_n_key_evaluations(self, monkeypatch):
        """Complexity regression: admitting and draining an ``slo-edf``
        backlog of n requests in one tier costs O(n log n) order-key
        evaluations.  The linear scan rescanned the tier for every pop:
        9,000,000 evaluations at n = 4,000."""
        import repro.serve.queue as queue_module

        calls = 0

        def counted(request, policy):
            nonlocal calls
            calls += 1
            return request_order_key(request, policy)

        monkeypatch.setattr(queue_module, "request_order_key", counted)
        n = 4000
        slos = (None, 2.0, 50.0)
        q = RequestQueue("m", "slo-edf")
        for i in range(n):
            q.push(meta_request(i, arrival_s=i * 1e-4, slo_ms=slos[i % 3]))
        drained = []
        while q:
            drained.extend(q.pop_upto(8, 10_000))
        assert len(drained) == n
        keys = [request_order_key(r, SchedulingPolicy.SLO_EDF) for r in drained]
        assert keys == sorted(keys)
        log2_n = n.bit_length()  # 12
        assert 0 < calls <= 2 * n * log2_n  # 96,000

    @pytest.mark.parametrize("scheduling", ["fifo", "priority", "slo-edf"])
    def test_each_request_is_keyed_once(self, monkeypatch, scheduling):
        """The queue evaluates a request's order key once, at
        admission, and holds it while the request is queued: n pushes
        plus a full drain (peeking the head's key before every pop)
        make exactly n evaluations under every policy."""
        import repro.serve.queue as queue_module

        calls = 0

        def counted(request, policy):
            nonlocal calls
            calls += 1
            return request_order_key(request, policy)

        monkeypatch.setattr(queue_module, "request_order_key", counted)
        n = 600
        slos = (None, 2.0, 50.0)
        q = RequestQueue("m", scheduling)
        for i in range(n):
            q.push(meta_request(i, arrival_s=i * 1e-4, priority=(i // 3) % 2,
                                slo_ms=slos[i % 3]))
        drained = []
        while q:
            key = q.peek_key()
            taken = q.pop_upto(8, 10_000)
            assert request_order_key(taken[0], q.scheduling) == key
            drained.extend(taken)
        assert len(drained) == n
        assert calls == n


# ---------------------------------------------------------------------------
# Continuous batcher
# ---------------------------------------------------------------------------
class TestContinuousBatcher:
    def test_join_run_evict_lifecycle(self):
        cb = ContinuousBatcher(BatchingPolicy())
        q = RequestQueue("m")
        q.push(meta_request(0, rows=2, arrival_s=0.0, steps=2))
        q.push(meta_request(1, rows=1, arrival_s=0.0, steps=1))
        joined, preempted = cb.refill(q, 0.0)
        assert (joined, preempted) == (2, 0)
        assert cb.resident_rows == 3
        batch = cb.form_step(0, stack=False)
        assert batch.rows == 3 and batch.n_requests == 2
        finished = cb.advance()
        # The one-step request evicts; the two-step sequence stays.
        assert [e.request.request_id for _, e in finished] == [1]
        assert [e.request.request_id for e in cb.resident] == [0]
        finished = cb.advance()
        assert [e.request.request_id for _, e in finished] == [0]
        assert not cb.has_work

    def test_rolling_refill_mid_sequence(self):
        """New arrivals join the in-flight batch between steps instead
        of waiting for the resident sequence to finish."""
        cb = ContinuousBatcher(BatchingPolicy())
        q = RequestQueue("m")
        q.push(meta_request(0, rows=1, arrival_s=0.0, steps=4))
        cb.refill(q, 0.0)
        cb.advance()
        q.push(meta_request(1, rows=1, arrival_s=0.1, steps=1))
        joined, _ = cb.refill(q, 0.1)
        assert joined == 1
        assert {e.request.request_id for e in cb.resident} == {0, 1}

    def test_row_budget_defers_joins(self):
        policy = BatchingPolicy(max_batch_rows=4, decode_rows_threshold=4)
        cb = ContinuousBatcher(policy)
        q = RequestQueue("m")
        q.push(meta_request(0, rows=3, arrival_s=0.0, steps=2))
        q.push(meta_request(1, rows=3, arrival_s=0.0))
        joined, _ = cb.refill(q, 0.0)
        assert joined == 1 and len(q) == 1
        cb.advance()
        cb.advance()  # sequence 0 done
        joined, _ = cb.refill(q, 0.1)
        assert joined == 1 and not q

    def test_priority_preemption(self):
        policy = BatchingPolicy(max_batch_rows=4, decode_rows_threshold=4)
        cb = ContinuousBatcher(policy, "priority")
        q = RequestQueue("m", "priority")
        q.push(meta_request(0, rows=3, arrival_s=0.0, priority=0, steps=8))
        cb.refill(q, 0.0)
        cb.advance()  # one step of the bulk sequence runs...
        q.push(meta_request(1, rows=3, arrival_s=0.1, priority=2, steps=1))
        joined, preempted = cb.refill(q, 0.1)
        assert (joined, preempted) == (1, 1)
        assert [e.request.request_id for e in cb.resident] == [1]
        assert [e.request.request_id for e in cb.preempted] == [0]
        cb.advance()  # high-priority request finishes...
        joined, _ = cb.refill(q, 0.2)
        assert joined == 1  # ...and the preempted sequence rejoins
        assert [e.request.request_id for e in cb.resident] == [0]
        # Progress was kept: 8 steps remain minus the one already run.
        assert cb.resident[0].remaining_steps == 7

    def test_preemption_is_transactional(self):
        """No resident sequence is evicted unless the evictions
        actually admit the candidate — a partial eviction would starve
        the victim (it would rejoin and re-preempt every step) without
        ever serving the candidate."""
        policy = BatchingPolicy(max_batch_rows=8, decode_rows_threshold=8)
        cb = ContinuousBatcher(policy, "priority")
        q = RequestQueue("m", "priority")
        q.push(meta_request(0, rows=4, arrival_s=0.0, priority=3, steps=4))
        q.push(meta_request(1, rows=2, arrival_s=0.0, priority=3, steps=4))
        q.push(meta_request(2, rows=1, arrival_s=0.0, priority=1, steps=4))
        cb.refill(q, 0.0)
        assert cb.resident_rows == 7
        # Even evicting the pri-1 entry frees only 1 row: the pri-2
        # candidate (4 rows) still cannot fit, so nothing is evicted.
        q.push(meta_request(3, rows=4, arrival_s=0.1, priority=2, steps=1))
        joined, preempted = cb.refill(q, 0.1)
        assert (joined, preempted) == (0, 0)
        assert len(cb.resident) == 3 and not cb.preempted

    def test_preemption_evicts_several_when_needed(self):
        policy = BatchingPolicy(max_batch_rows=4, decode_rows_threshold=4)
        cb = ContinuousBatcher(policy, "priority")
        q = RequestQueue("m", "priority")
        q.push(meta_request(0, rows=2, arrival_s=0.0, priority=0, steps=4))
        q.push(meta_request(1, rows=2, arrival_s=0.0, priority=0, steps=4))
        cb.refill(q, 0.0)
        q.push(meta_request(2, rows=4, arrival_s=0.1, priority=1, steps=1))
        joined, preempted = cb.refill(q, 0.1)
        assert (joined, preempted) == (1, 2)
        assert [e.request.request_id for e in cb.resident] == [2]
        assert {e.request.request_id for e in cb.preempted} == {0, 1}

    def test_blocked_preempted_entry_is_not_overtaken(self):
        """A displaced higher-priority sequence blocks lower-priority
        queue arrivals from slipping into the space it needs, and
        rejoins as soon as that space frees (no rejoin starvation)."""
        policy = BatchingPolicy(max_batch_rows=6, decode_rows_threshold=6)
        cb = ContinuousBatcher(policy, "priority")
        q = RequestQueue("m", "priority")
        q.push(meta_request(0, rows=4, arrival_s=0.0, priority=1, steps=4))
        cb.refill(q, 0.0)
        q.push(meta_request(1, rows=4, arrival_s=0.1, priority=2, steps=2))
        cb.refill(q, 0.1)  # preempts the pri-1 sequence
        assert [e.request.request_id for e in cb.preempted] == [0]
        # A pri-0 stream would fit in the leftover rows, but admitting
        # it would starve the blocked pri-1 sequence.
        q.push(meta_request(2, rows=2, arrival_s=0.2, priority=0, steps=8))
        joined, preempted = cb.refill(q, 0.2)
        assert (joined, preempted) == (0, 0)
        assert len(q) == 1
        cb.advance()
        cb.advance()  # the pri-2 sequence finishes
        joined, _ = cb.refill(q, 0.3)
        # The pri-1 sequence rejoins first, then the pri-0 request fits.
        assert joined == 2
        assert [e.request.request_id for e in cb.resident] == [0, 2]

    def test_urgent_queue_arrival_beats_less_urgent_rejoin(self):
        """Waiting work is one urgency-ordered stream: a fresh
        higher-priority queue arrival is served before a lower-priority
        preempted sequence rejoins."""
        policy = BatchingPolicy(max_batch_rows=6, decode_rows_threshold=6)
        cb = ContinuousBatcher(policy, "priority")
        q = RequestQueue("m", "priority")
        q.push(meta_request(0, rows=4, arrival_s=0.0, priority=0, steps=8))
        cb.refill(q, 0.0)
        q.push(meta_request(1, rows=4, arrival_s=0.1, priority=2, steps=1))
        cb.refill(q, 0.1)  # pri-2 preempts the pri-0 sequence
        cb.advance()       # ...and finishes
        q.push(meta_request(2, rows=4, arrival_s=0.2, priority=1, steps=1))
        joined, _ = cb.refill(q, 0.2)
        assert joined == 1
        assert [e.request.request_id for e in cb.resident] == [2]
        assert [e.request.request_id for e in cb.preempted] == [0]

    def test_form_step_rejects_mixed_k(self):
        """The rolling batch outlives the queue's k lock (it resets
        when the queue drains), so the continuous path must raise its
        own clear error instead of a numpy broadcast failure."""
        cb = ContinuousBatcher(BatchingPolicy())
        q = RequestQueue("m")
        q.push(meta_request(0, rows=1, k=8, arrival_s=0.0, steps=4))
        cb.refill(q, 0.0)  # queue drains; its k lock resets
        q.push(meta_request(1, rows=1, k=16, arrival_s=0.1))
        cb.refill(q, 0.1)
        with pytest.raises(ServeError, match="mixed-k"):
            cb.form_step(0, stack=False)

    def test_fifo_never_preempts(self):
        policy = BatchingPolicy(max_batch_rows=4, decode_rows_threshold=4)
        cb = ContinuousBatcher(policy, "fifo")
        q = RequestQueue("m")
        q.push(meta_request(0, rows=3, arrival_s=0.0, priority=0, steps=8))
        cb.refill(q, 0.0)
        q.push(meta_request(1, rows=3, arrival_s=0.1, priority=2))
        joined, preempted = cb.refill(q, 0.1)
        assert (joined, preempted) == (0, 0)

    def test_equal_priority_never_preempts(self):
        policy = BatchingPolicy(max_batch_rows=4, decode_rows_threshold=4)
        cb = ContinuousBatcher(policy, "priority")
        q = RequestQueue("m", "priority")
        q.push(meta_request(0, rows=3, arrival_s=0.0, priority=1, steps=8))
        cb.refill(q, 0.0)
        q.push(meta_request(1, rows=3, arrival_s=0.1, priority=1))
        joined, preempted = cb.refill(q, 0.1)
        assert (joined, preempted) == (0, 0)

    def test_form_step_empty_raises(self):
        with pytest.raises(ServeError):
            ContinuousBatcher().form_step(0, stack=False)

    def test_decode_threshold_validated(self):
        with pytest.raises(ServeError):
            BatchingPolicy(decode_rows_threshold=0)
        with pytest.raises(ServeError):
            BatchingPolicy(max_batch_rows=8, decode_rows_threshold=9)


# ---------------------------------------------------------------------------
# The rolling batch's held keys against a batcher that recomputes them
# ---------------------------------------------------------------------------
class _RecomputingBatcher(ContinuousBatcher):
    """Frozen copy of the refill that re-derived every waiter's order
    key from its request on each comparison (``entry.key`` is set but
    never read).  The oracle the key-holding batcher must match."""

    def refill(self, queue, now_s, *, gate=None):
        joined = 0
        preempted = 0
        while True:
            self._preempted.sort(
                key=lambda e: request_order_key(e.request, self.scheduling)
            )
            rejoin = self._preempted[0] if self._preempted else None
            fresh = queue.peek() if queue else None
            if rejoin is not None and (
                fresh is None
                or request_order_key(rejoin.request, self.scheduling)
                < request_order_key(fresh, self.scheduling)
            ):
                candidate, entry = rejoin.request, rejoin
            elif fresh is not None:
                candidate, entry = fresh, None
            else:
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
                request = queue.pop_next()
                self._admit(
                    InFlightEntry(
                        request=request,
                        remaining_steps=candidate.steps,
                        joined_s=now_s,
                        key=request_order_key(request, self.scheduling),
                    )
                )
            joined += 1
        return joined, preempted


def _entry_ids(entries):
    return [e.request.request_id for e in entries]


_CB_PUSH = st.tuples(
    st.just("push"),
    st.integers(min_value=1, max_value=4),   # rows
    st.integers(min_value=0, max_value=2),   # priority
    st.sampled_from([None, 2.0, 50.0]),      # slo_ms
    st.integers(min_value=1, max_value=4),   # steps
    st.sampled_from([0.0, 0.001]),           # clock step
)


class TestBatcherHeldKeys:
    @settings(max_examples=fuzz_examples(100), deadline=None)
    @given(
        scheduling=st.sampled_from(["priority", "slo-edf"]),
        ops=st.lists(
            st.one_of(
                *[_CB_PUSH] * 3,  # weighted: the batch must fill up
                st.tuples(st.just("refill")),
                st.tuples(st.just("advance")),
                st.tuples(st.just("preempt"), st.integers(0, 7)),
                st.tuples(st.just("cancel"), st.integers(2, 5)),
            ),
            min_size=8,
            max_size=60,
        ),
    )
    def test_keys_held_and_order_matches_recomputing(self, scheduling, ops):
        """Differential property over random refill / preempt / advance
        / cancel sequences: every resident and preempted entry holds
        the order key its request has under the policy, and the refill
        and rejoin order equals that of a batcher which re-derives
        every key."""
        policy = BatchingPolicy(
            max_batch_requests=4, max_batch_rows=6, decode_rows_threshold=4
        )
        new = ContinuousBatcher(policy, scheduling)
        ref = _RecomputingBatcher(policy, scheduling)
        new_q = RequestQueue("m", scheduling)
        ref_q = RequestQueue("m", scheduling)
        clock = 0.0
        next_id = 0
        for op in ops:
            if op[0] == "push":
                _, rows, priority, slo_ms, steps, step = op
                clock += step
                request = meta_request(next_id, rows, arrival_s=clock,
                                       priority=priority, slo_ms=slo_ms,
                                       steps=steps)
                next_id += 1
                new_q.push(request)
                ref_q.push(request)
            elif op[0] == "refill":
                assert new.refill(new_q, clock) == ref.refill(ref_q, clock)
            elif op[0] == "advance":
                assert _entry_ids(e for _, e in new.advance()) == _entry_ids(
                    e for _, e in ref.advance()
                )
            elif op[0] == "preempt" and new.resident:
                index = op[1] % len(new.resident)
                new.preempt_entries([new.resident[index]])
                ref.preempt_entries([ref.resident[index]])
            elif op[0] == "cancel":
                _, modulus = op
                assert _entry_ids(
                    new.cancel_where(lambda r: r.request_id % modulus == 0)
                ) == _entry_ids(
                    ref.cancel_where(lambda r: r.request_id % modulus == 0)
                )
            for entry in (*new.resident, *new.preempted):
                assert entry.key == request_order_key(
                    entry.request, new.scheduling
                )
            assert _entry_ids(new.resident) == _entry_ids(ref.resident)
            assert _entry_ids(new.preempted) == _entry_ids(ref.preempted)
            assert _ids(new_q.iter_requests()) == _ids(ref_q.iter_requests())


# ---------------------------------------------------------------------------
# Engine integration
# ---------------------------------------------------------------------------
def one_model_server(rng, **kwargs):
    server = InferenceServer(**kwargs)
    server.register_model(
        "m", int_matrix(rng, 64, 32), NMPattern(2, 4, vector_length=4)
    )
    return server


class TestSchedulingEngine:
    def test_priority_jumps_backlog(self, rng):
        """Under a backlog, a late high-priority request launches ahead
        of earlier bulk traffic — the scheduling win in one batch."""
        policy = BatchingPolicy(max_batch_requests=1, max_wait_s=0.0)
        trace = [
            meta_request(i, rows=2, model="m", arrival_s=0.0, k=64,
                         priority=0)
            for i in range(8)
        ] + [meta_request(8, rows=2, model="m", arrival_s=1e-6, k=64,
                          priority=5)]
        fifo = one_model_server(
            rng, policy=policy, execute_numerics=False, scheduling="fifo"
        ).simulate(trace)
        pri = one_model_server(
            rng, policy=policy, execute_numerics=False, scheduling="priority"
        ).simulate(trace)
        assert (
            record_for(pri, 8).finished_s < record_for(fifo, 8).finished_s
        )
        # Both serve the identical work overall.
        assert fifo.metrics.completed == pri.metrics.completed == 9

    def test_multistep_request_holds_dynamic_batch(self, rng):
        """The cut-and-wait path charges one launch per step and holds
        the batch until its longest member finishes."""
        server = one_model_server(rng, execute_numerics=False)
        trace = [
            meta_request(0, rows=2, model="m", arrival_s=0.0, k=64, steps=4),
            meta_request(1, rows=2, model="m", arrival_s=0.0, k=64, steps=1),
        ]
        report = server.simulate(trace)
        batch = report.metrics.batch_records[0]
        step_s = (
            batch.modeled_gpu_s / 4 + server.host_overhead_s
        )
        assert record_for(report, 0).finished_s == pytest.approx(
            batch.started_s + 4 * step_s
        )
        assert record_for(report, 1).finished_s == pytest.approx(
            batch.started_s + 1 * step_s
        )
        assert batch.finished_s == pytest.approx(batch.started_s + 4 * step_s)

    def test_continuous_routes_decode_and_completes(self, rng):
        server = one_model_server(
            rng, execute_numerics=False, continuous_batching=True
        )
        trace = [
            meta_request(0, rows=2, model="m", arrival_s=0.0, k=64, steps=3),
            meta_request(1, rows=32, model="m", arrival_s=0.0, k=64),
            meta_request(2, rows=1, model="m", arrival_s=0.0005, k=64),
        ]
        report = server.simulate(trace)
        assert report.metrics.completed == 3
        # The wide request went through the dynamic path, the small
        # ones through the rolling batch.
        assert len(report.metrics.batch_records) == 1
        assert report.metrics.batch_records[0].rows == 32
        assert report.metrics.continuous_joins == 2
        assert report.metrics.continuous_evictions == 2
        # Sequence 0 ran three steps; request 2 joined mid-flight.
        assert report.metrics.continuous_steps >= 3
        assert report.summary()["continuous"]["steps"] >= 3

    def test_continuous_numerics_bitwise(self, rng):
        """Each decode request's output equals its one-shot execute even
        though the rolling batch re-forms every step."""
        server = one_model_server(rng, continuous_batching=True)
        trace = [
            InferenceRequest(
                request_id=i,
                model="m",
                a=int_matrix(rng, 1 + i % 3, 64),
                arrival_s=0.0002 * i,
                steps=1 + (i * 3) % 4,
            )
            for i in range(12)
        ]
        report = server.simulate(trace)
        entry = server.model("m")
        for record in report.request_records:
            expected = entry.op.execute(record.request.a, entry.handle.weights())
            assert record.output is not None
            np.testing.assert_array_equal(record.output, expected)
            assert record.started_s >= record.request.arrival_s

    def test_decode_latency_beats_dynamic_wait(self, rng):
        """A lone decode request launches immediately on the rolling
        batch instead of waiting out the max-wait deadline."""
        policy = BatchingPolicy(max_wait_s=2e-3)
        # The late second arrival keeps the stream undrained, so the
        # dynamic path holds request 0 for the full max-wait window.
        trace = [
            meta_request(0, rows=1, model="m", arrival_s=0.0, k=64),
            meta_request(1, rows=1, model="m", arrival_s=0.01, k=64),
        ]
        waiting = one_model_server(
            rng, policy=policy, execute_numerics=False
        ).simulate(trace)
        rolling = one_model_server(
            rng, policy=policy, execute_numerics=False,
            continuous_batching=True,
        ).simulate(trace)
        assert (
            record_for(rolling, 0).latency_s
            < record_for(waiting, 0).latency_s
        )

    def test_decode_urgency_reflects_resident_sequences(self, rng):
        """A resident high-priority sequence keeps the step urgent even
        when only low-priority work waits in the decode queue — a
        mid-tier prefill flush must not cut in."""
        server = one_model_server(
            rng, execute_numerics=False, scheduling="priority",
            continuous_batching=True,
        )
        cb = ContinuousBatcher(BatchingPolicy(), "priority")
        q = RequestQueue("m", "priority")
        q.push(meta_request(0, rows=1, arrival_s=0.0, priority=2, steps=4))
        cb.refill(q, 0.0)
        q.push(meta_request(1, rows=1, arrival_s=0.1, priority=0))
        # The key ranks by the resident pri-2 sequence, not the pri-0
        # waiting head.
        assert server._decode_key(q, cb)[0] == -2

    def test_report_carries_scheduling(self, rng):
        server = one_model_server(
            rng, execute_numerics=False, scheduling="slo-edf",
            continuous_batching=True,
        )
        report = server.simulate(
            [meta_request(0, rows=1, model="m", arrival_s=0.0, k=64)]
        )
        assert report.scheduling == "slo-edf"
        assert report.continuous is True
        policy = report.summary()["policy"]
        assert policy["scheduling"] == "slo-edf"
        assert policy["continuous_batching"] is True
        assert policy["decode_rows_threshold"] == 4
        assert "slo-edf" in report.render()

    def test_bad_scheduling_rejected(self, rng):
        with pytest.raises(ServeError):
            InferenceServer(scheduling="round-robin")


class TestPlanCacheKeying:
    def test_gpu_and_version_do_not_collide(self, rng):
        """Satellite regression: the LRU keys on (model, m, gpu,
        version), so the same model name served on two GPUs or at two
        optimization levels builds distinct plans."""
        weights = int_matrix(rng, 64, 32)
        pattern = NMPattern(2, 4, vector_length=4)
        cache = PlanCache(capacity=8)
        entries = []
        for gpu, version in (
            ("A100", "V3"), ("3090", "V3"), ("A100", "V2"),
        ):
            op = NMSpMM(pattern, gpu=gpu, version=version)
            handle = op.prepare(weights)
            entries.append(cache.lookup("m", op, handle, 16))
        assert cache.stats.misses == 3
        assert cache.stats.hits == 0
        assert len(cache) == 3
        assert len({id(e) for e in entries}) == 3


# ---------------------------------------------------------------------------
# Tagged load generation
# ---------------------------------------------------------------------------
class TestTaggedLoadgen:
    def test_tags_propagate(self):
        reqs = generate_requests(
            [TrafficSource(model="m", k=16, priority=3, slo_ms=7.0)],
            200.0, 0.3, seed=0, synthesize_activations=False,
        )
        assert reqs
        assert all(r.priority == 3 and r.slo_ms == 7.0 for r in reqs)
        assert all(r.steps == 1 for r in reqs)

    def test_decode_fraction_splits_stream(self):
        reqs = generate_requests(
            [TrafficSource(model="m", k=16, decode_fraction=0.5)],
            500.0, 1.0, seed=1, synthesize_activations=False,
        )
        decode = [r for r in reqs if r.steps > 1]
        prefill = [r for r in reqs if r.steps == 1]
        assert decode and prefill
        assert all(r.rows in DECODE_ROWS_CHOICES for r in decode)
        frac = len(decode) / len(reqs)
        assert 0.35 < frac < 0.65

    def test_decode_fraction_edges(self):
        all_decode = generate_requests(
            [TrafficSource(model="m", k=16, decode_fraction=1.0)],
            200.0, 0.3, seed=0, synthesize_activations=False,
        )
        assert all(r.rows <= max(DECODE_ROWS_CHOICES) for r in all_decode)
        none_decode = generate_requests(
            [TrafficSource(model="m", k=16, decode_fraction=0.0)],
            200.0, 0.3, seed=0, synthesize_activations=False,
        )
        assert all(r.steps == 1 for r in none_decode)

    def test_source_validation(self):
        with pytest.raises(ServeError):
            TrafficSource(model="m", k=16, priority=-1)
        with pytest.raises(ServeError):
            TrafficSource(model="m", k=16, slo_ms=0.0)
        with pytest.raises(ServeError):
            TrafficSource(model="m", k=16, decode_fraction=1.5)
        with pytest.raises(ServeError):
            TrafficSource(model="m", k=16, decode_steps_choices=(0,))


# ---------------------------------------------------------------------------
# Scenarios + CLI + the acceptance comparison
# ---------------------------------------------------------------------------
class TestSchedulingScenarios:
    def test_mixed_prefill_decode_scenario(self):
        report = LlamaServingScenario.mixed_prefill_decode(
            duration_s=0.3
        ).run()
        summary = report.summary()
        assert summary["continuous"]["steps"] > 0
        assert summary["continuous"]["evictions"] > 0
        assert report.continuous is True

    def test_priority_tiered_scenario_tags_traffic(self):
        report = LlamaServingScenario.priority_tiered(
            "priority", duration_s=0.2
        ).run()
        summary = report.summary()
        assert set(summary["latency_by_priority"]) == {"0", "2"}
        assert summary["slo"]["requests"] == summary["completed_requests"]

    def test_slo_edf_beats_fifo_on_high_priority(self):
        """The acceptance criterion, on the simulated clock: identical
        tiered traffic at equal offered load, slo-edf must strictly
        improve high-priority p99 latency AND SLO attainment."""
        fifo = LlamaServingScenario.priority_tiered(
            "fifo", duration_s=0.5
        ).run().summary()
        edf = LlamaServingScenario.priority_tiered(
            "slo-edf", duration_s=0.5
        ).run().summary()
        # Equal offered load: the seeded trace is identical.
        assert fifo["completed_requests"] == edf["completed_requests"]
        fifo_hi = fifo["latency_by_priority"]["2"]
        edf_hi = edf["latency_by_priority"]["2"]
        assert edf_hi["p99_ms"] < fifo_hi["p99_ms"]
        fifo_slo = fifo["slo"]["attainment_by_priority"]["2"]
        edf_slo = edf["slo"]["attainment_by_priority"]["2"]
        assert edf_slo > fifo_slo
        assert (
            edf["slo"]["attainment_rate"] > fifo["slo"]["attainment_rate"]
        )

    def test_describe_mentions_scheduling(self):
        scenario = LlamaServingScenario.priority_tiered("slo-edf")
        text = scenario.describe()
        assert "sched=slo-edf" in text
        assert "tiers=" in text
        assert "pri2/slo5ms" in text

    def test_bad_scheduling_fails_fast(self):
        with pytest.raises(ServeError):
            LlamaServingScenario(scheduling="lifo")


class TestSchedulingCLI:
    def test_parser_defaults(self):
        from repro.cli import build_parser

        args = build_parser().parse_args(["serve-sim"])
        assert args.sched == "fifo"
        assert args.decode_fraction is None
        args = build_parser().parse_args(
            ["serve-sim", "--sched", "slo-edf", "--decode-fraction", "0.5"]
        )
        assert args.sched == "slo-edf"
        assert args.decode_fraction == 0.5

    def test_sched_choices(self):
        from repro.cli import build_parser

        with pytest.raises(SystemExit):
            build_parser().parse_args(["serve-sim", "--sched", "lifo"])

    def test_smoke_slo_edf_continuous(self, capsys):
        assert (
            main(
                ["serve-sim", "--qps", "50", "--duration", "0.2",
                 "--seed", "1", "--sched", "slo-edf",
                 "--decode-fraction", "0.5", "--no-numerics"]
            )
            == 0
        )
        out = capsys.readouterr().out
        assert "continuous steps" in out
        assert "slo-edf" in out
