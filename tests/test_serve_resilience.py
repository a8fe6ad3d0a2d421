"""Tests for the resilience layer: the ResiliencePolicy knobs, the
queue/rolling-batch cancellation plumbing, and the serving engine's
fault handling end to end (retries + backoff, timeout cancellation,
the half-open and permanent circuit breaker, health-driven
re-sharding, and admission load shedding) — all on the simulated
clock, all reconciling to zero silent request loss."""

import numpy as np
import pytest

from repro.errors import ServeError
from repro.obs import Tracer
from repro.serve.batcher import BatchingPolicy, ContinuousBatcher
from repro.serve.queue import RequestQueue
from repro.serve.request import InferenceRequest
from repro.serve.resilience import ResiliencePolicy
from repro.serve.server import InferenceServer
from repro.sparsity.config import NMPattern


def meta_request(request_id, rows=1, *, model="m", arrival_s=0.0, k=64,
                 priority=0, slo_ms=None, steps=1):
    """A metadata-only request (resilience tests never need numerics)."""
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


def make_server(*, faults=None, resilience=None, devices=1, tracer=None,
                **kwargs):
    """A one-model metadata-only server (k=64, 4 shardable windows)."""
    server = InferenceServer(
        execute_numerics=False,
        devices=devices,
        shard="column",
        tracer=tracer,
        faults=faults,
        resilience=resilience,
        **kwargs,
    )
    rng = np.random.default_rng(0)
    weights = rng.standard_normal((64, 128)).astype(np.float32)
    server.register_model("m", weights, NMPattern(2, 4))
    return server


def spread_requests(n, *, rows=1, spacing_s=1e-3, slo_ms=None, steps=1):
    return [
        meta_request(i, rows, arrival_s=i * spacing_s, slo_ms=slo_ms,
                     steps=steps)
        for i in range(n)
    ]


def events_named(tracer, name):
    return [e for e in tracer.events if e.name == name]


# ---------------------------------------------------------------------------
# Policy object
# ---------------------------------------------------------------------------
class TestResiliencePolicy:
    def test_defaults_describe(self):
        text = ResiliencePolicy().describe()
        assert "retries=3" in text
        assert "breaker=5/250ms" in text
        assert "reshard" in text

    def test_permanent_breaker_describe(self):
        text = ResiliencePolicy(breaker_cooldown_s=None).describe()
        assert "breaker=5/permanent" in text

    def test_shed_describe(self):
        text = ResiliencePolicy(shed_queue_rows=64).describe()
        assert "shed>=64rows(protect>=1)" in text

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"max_retries": -1},
            {"backoff_base_s": -1.0},
            {"backoff_multiplier": 0.5},
            {"backoff_jitter": -0.1},
            # A NaN backoff would stall the event loop on a NaN
            # ready time; an infinite one makes the makespan infinite.
            {"backoff_base_s": float("nan")},
            {"backoff_base_s": float("inf")},
            {"backoff_multiplier": float("nan")},
            {"backoff_multiplier": float("inf")},
            {"backoff_jitter": float("nan")},
            {"backoff_jitter": float("inf")},
            {"timeout_slo_multiplier": 0.0},
            {"default_timeout_ms": 0.0},
            {"breaker_threshold": 0},
            {"breaker_cooldown_s": 0.0},
            {"shed_queue_rows": 0},
            {"shed_protect_priority": -1},
            # Counts and tiers are ints: a float or a bool would pass
            # the range checks and print as one in describe().
            {"max_retries": 1.5},
            {"max_retries": True},
            {"breaker_threshold": 2.5},
            {"shed_queue_rows": 2.5},
            {"shed_protect_priority": 1.5},
        ],
    )
    def test_validation(self, kwargs):
        with pytest.raises(ServeError):
            ResiliencePolicy(**kwargs)

    def test_timeout_from_slo(self):
        policy = ResiliencePolicy(timeout_slo_multiplier=10.0)
        tagged = meta_request(0, slo_ms=5.0, arrival_s=1.0)
        assert policy.timeout_s(tagged) == pytest.approx(0.05)
        assert policy.deadline_s(tagged) == pytest.approx(1.05)
        untagged = meta_request(1)
        assert policy.timeout_s(untagged) is None
        assert policy.deadline_s(untagged) is None

    def test_default_timeout_covers_untagged(self):
        policy = ResiliencePolicy(default_timeout_ms=20.0)
        assert policy.timeout_s(meta_request(0)) == pytest.approx(0.02)
        # An SLO still takes precedence over the default.
        assert policy.timeout_s(
            meta_request(1, slo_ms=1.0)
        ) == pytest.approx(0.01)

    def test_backoff_grows_and_jitters(self):
        policy = ResiliencePolicy(
            backoff_base_s=1e-3, backoff_multiplier=2.0, backoff_jitter=0.5
        )
        assert policy.backoff_s(1, 0.0) == pytest.approx(1e-3)
        assert policy.backoff_s(3, 0.0) == pytest.approx(4e-3)
        assert policy.backoff_s(1, 1.0) == pytest.approx(1.5e-3)
        with pytest.raises(ServeError):
            policy.backoff_s(0, 0.0)

    def test_shed_logic(self):
        policy = ResiliencePolicy(shed_queue_rows=8, shed_protect_priority=1)
        low = meta_request(0, priority=0)
        protected = meta_request(1, priority=1)
        assert not policy.shed(low, 7)
        assert policy.shed(low, 8)
        assert not policy.shed(protected, 1_000)
        assert not ResiliencePolicy().shed(low, 1_000_000)  # disabled


# ---------------------------------------------------------------------------
# Queue cancellation / retry plumbing
# ---------------------------------------------------------------------------
class TestQueueResilienceOps:
    def test_requeue_inserts_by_arrival(self):
        q = RequestQueue("m", "fifo")
        q.push(meta_request(0, arrival_s=0.0))
        q.push(meta_request(1, arrival_s=2.0))
        # A retry carries its original (older) arrival time: push would
        # reject it as out-of-order, requeue bisect-inserts it.
        retry = meta_request(2, arrival_s=1.0)
        with pytest.raises(ServeError):
            q.push(retry)
        q.requeue(retry)
        order = [r.request_id for r in q.iter_requests()]
        assert order == [0, 2, 1]
        assert q.total_rows == 3

    def test_requeue_guards(self):
        q = RequestQueue("m", "fifo")
        with pytest.raises(ServeError):
            q.requeue(meta_request(0, model="other"))
        q.requeue(meta_request(1, k=64))
        with pytest.raises(ServeError):
            q.requeue(meta_request(2, k=32))  # k-homogeneity still holds

    def test_remove_where_unwinds_accounting(self):
        q = RequestQueue("m", "priority")
        for i in range(6):
            q.push(meta_request(i, rows=i + 1, arrival_s=i * 1e-3,
                                priority=i % 2))
        removed = q.remove_where(lambda r: r.request_id % 2 == 0)
        assert sorted(r.request_id for r in removed) == [0, 2, 4]
        assert len(q) == 3
        assert q.total_rows == sum(
            r.rows for r in q.iter_requests()
        ) == 2 + 4 + 6

    def test_remove_where_empties_queue_resets_k(self):
        q = RequestQueue("m", "fifo")
        q.push(meta_request(0, k=64))
        q.remove_where(lambda r: True)
        assert not q
        q.push(meta_request(1, k=32))  # a fresh k is accepted again
        assert q.total_rows == 1


class TestContinuousBatcherCancel:
    def _batcher_with_residents(self):
        policy = BatchingPolicy(decode_rows_threshold=4)
        cb = ContinuousBatcher(policy, "fifo")
        q = RequestQueue("m", "fifo")
        for i in range(4):
            q.push(meta_request(i, rows=1, arrival_s=i * 1e-4, steps=8))
        joined, preempted = cb.refill(q, now_s=1e-3)
        assert joined == 4 and preempted == 0
        return cb

    def test_cancel_where_releases_rows(self):
        cb = self._batcher_with_residents()
        before = cb.resident_rows
        cancelled = cb.cancel_where(
            lambda r: r.request_id in {1, 3}
        )
        assert sorted(e.request.request_id for e in cancelled) == [1, 3]
        assert cb.resident_rows == before - 2
        assert {e.request.request_id for e in cb.resident} == {0, 2}

    def test_cancel_where_nothing_matches(self):
        cb = self._batcher_with_residents()
        assert cb.cancel_where(lambda r: False) == []
        assert cb.resident_rows == 4
        assert cb.has_work


# ---------------------------------------------------------------------------
# Engine end-to-end: retries
# ---------------------------------------------------------------------------
class TestRetries:
    def test_transient_storm_retries_to_completion(self):
        tracer = Tracer()
        server = make_server(
            faults="launch:p=1,start=0,end=0.003",
            resilience=ResiliencePolicy(max_retries=10, breaker_threshold=None),
            tracer=tracer,
        )
        report = server.simulate(spread_requests(8))
        m = report.metrics
        assert m.completed == m.submitted == 8
        assert m.launch_faults >= 1
        assert m.total_retries >= 1
        assert m.drop_records == []
        assert events_named(tracer, "retry.attempt")
        assert m.outcome_counts()["completed"] == 8

    def test_retry_exhaustion_fails_with_attempt_count(self):
        server = make_server(
            faults="launch:p=1",  # every launch fails, forever
            resilience=ResiliencePolicy(
                max_retries=2, breaker_threshold=None
            ),
        )
        report = server.simulate(spread_requests(4))
        m = report.metrics
        counts = m.outcome_counts()
        assert counts["failed"] == m.submitted == 4
        assert counts["completed"] == 0
        assert all(d.retries == 2 for d in m.drop_records)
        assert m.reconcile()["failed"] == 4

    def test_resilience_off_fails_on_first_fault(self):
        tracer = Tracer()
        server = make_server(faults="launch:p=1", tracer=tracer)
        report = server.simulate(spread_requests(4))
        m = report.metrics
        assert m.outcome_counts()["failed"] == 4
        assert m.total_retries == 0
        assert all(d.retries == 0 for d in m.drop_records)
        assert events_named(tracer, "request.failed")


# ---------------------------------------------------------------------------
# Engine end-to-end: timeouts
# ---------------------------------------------------------------------------
class TestTimeouts:
    def test_unreachable_requests_time_out(self):
        tracer = Tracer()
        server = make_server(
            faults="launch:p=1",
            resilience=ResiliencePolicy(
                max_retries=100,
                breaker_threshold=None,
                timeout_slo_multiplier=2.0,
            ),
            tracer=tracer,
        )
        report = server.simulate(spread_requests(4, slo_ms=5.0))
        m = report.metrics
        counts = m.outcome_counts()
        assert counts["timed-out"] == m.submitted == 4
        assert len(events_named(tracer, "request.timeout")) == 4
        # Every cancellation happened at/after its request's deadline.
        for drop in m.drop_records:
            deadline = drop.request.arrival_s + 0.01  # 5 ms x 2
            assert drop.at_s >= deadline - 1e-12

    def test_inflight_decode_cancellation_releases_rows(self):
        tracer = Tracer()
        server = make_server(
            resilience=ResiliencePolicy(timeout_slo_multiplier=2.0),
            continuous_batching=True,
            host_overhead_s=5e-4,
            tracer=tracer,
        )
        # Long decode sequences whose deadlines expire mid-flight: the
        # rolling batch must evict them and release their rows.
        requests = spread_requests(
            6, rows=1, spacing_s=1e-4, slo_ms=2.0, steps=50
        )
        report = server.simulate(requests)
        m = report.metrics
        counts = m.outcome_counts()
        assert counts["timed-out"] > 0
        assert m.cancelled_evictions > 0
        assert m.continuous_evictions >= m.cancelled_evictions
        evicts = events_named(tracer, "cb.evict")
        assert any(e.attrs.get("reason") == "timeout" for e in evicts)
        assert sum(counts.values()) == m.submitted

    def test_unexpired_deadlines_scan_nothing(self, monkeypatch):
        # Every request carries a deadline and none expires: the
        # deadline heap keeps the cancel pass from scanning any queue
        # or rolling batch.
        calls = {"remove_where": 0, "cancel_where": 0}
        for cls, name in (
            (RequestQueue, "remove_where"),
            (ContinuousBatcher, "cancel_where"),
        ):
            original = getattr(cls, name)

            def counted(self, predicate, _name=name, _original=original):
                calls[_name] += 1
                return _original(self, predicate)

            monkeypatch.setattr(cls, name, counted)
        policy = ResiliencePolicy(timeout_slo_multiplier=100.0)
        server = make_server(
            resilience=policy, continuous_batching=True,
            host_overhead_s=1e-4,
        )
        requests = [
            meta_request(i, rows=1 + i % 8, arrival_s=i * 2e-4,
                         slo_ms=50.0, steps=1 + i % 3)
            for i in range(60)
        ]
        assert all(policy.deadline_s(r) is not None for r in requests)
        report = server.simulate(requests)
        m = report.metrics
        assert m.completed == m.submitted == 60
        assert m.drop_records == []
        assert m.step_records and m.batch_records
        assert calls == {"remove_where": 0, "cancel_where": 0}

    def test_idle_engine_wakes_at_a_queued_deadline(self):
        # One queued prefill request cannot flush before its deadline
        # (long max wait, a later arrival pending, so no drain): the idle
        # engine must wake at the deadline itself and cancel it there.
        policy = ResiliencePolicy(timeout_slo_multiplier=2.0)
        server = make_server(
            resilience=policy, policy=BatchingPolicy(max_wait_s=1.0),
        )
        early = meta_request(0, rows=32, arrival_s=0.0, slo_ms=5.0)
        late = meta_request(1, rows=32, arrival_s=0.5, slo_ms=5.0)
        report = server.simulate([early, late])
        (drop,) = report.metrics.drop_records
        assert drop.request.request_id == 0
        assert drop.outcome == "timed-out"
        assert drop.where == "prefill"
        assert drop.at_s == policy.deadline_s(early)
        assert report.metrics.completed == 1

    def test_idle_wake_passes_over_a_deadline_admitted_expired(self):
        # X arrives while a full batch holds the GPU and is admitted
        # with its deadline already passed.  The idle engine must still
        # wake at Y's deadline, the first one after now: cancelling X
        # and Y there, and Z at its own deadline, keeps the drop order
        # X, Y, Z (one pass at the next arrival would drop Z first, its
        # model's queue being scanned first).
        policy = ResiliencePolicy(timeout_slo_multiplier=1.0)
        server = make_server(
            resilience=policy, host_overhead_s=0.01,
            policy=BatchingPolicy(max_wait_s=1.0, max_batch_rows=64),
        )
        server.register_model(
            "n", np.ones((64, 128), dtype=np.float32), NMPattern(2, 4)
        )
        full = meta_request(0, rows=64, arrival_s=0.0, slo_ms=1000.0)
        x = meta_request(1, model="n", arrival_s=0.001, slo_ms=2.0)
        z = meta_request(2, arrival_s=0.002, slo_ms=30.0)
        y = meta_request(3, model="n", arrival_s=0.003, slo_ms=20.0)
        late = meta_request(4, arrival_s=0.5, slo_ms=1000.0)
        report = server.simulate([full, x, z, y, late])
        drops = report.metrics.drop_records
        assert [d.request.request_id for d in drops] == [1, 3, 2]
        assert all(d.outcome == "timed-out" for d in drops)
        assert [d.at_s for d in drops] == [
            policy.deadline_s(r) for r in (x, y, z)
        ]
        assert report.metrics.completed == 2


# ---------------------------------------------------------------------------
# Engine end-to-end: circuit breaker
# ---------------------------------------------------------------------------
class TestCircuitBreaker:
    def test_half_open_breaker_recovers(self):
        tracer = Tracer()
        server = make_server(
            faults="launch:p=1,device=0,start=0,end=0.05",
            resilience=ResiliencePolicy(
                max_retries=10,
                breaker_threshold=2,
                breaker_cooldown_s=0.02,
            ),
            tracer=tracer,
        )
        report = server.simulate(spread_requests(6))
        m = report.metrics
        assert m.circuit_opens >= 1
        opens = events_named(tracer, "device.circuit_open")
        closes = events_named(tracer, "device.circuit_close")
        assert opens and closes
        assert all(e.attrs["permanent"] is False for e in opens)
        # Half-open: the device rejoined after the storm and the run
        # drained with no device lost and no request dropped.
        assert m.completed == m.submitted == 6
        assert m.reshard_records == []

    def test_permanent_breaker_fails_over_to_survivor(self):
        tracer = Tracer()
        server = make_server(
            devices=2,
            faults="launch:p=1,device=1,start=0,end=0.02",
            resilience=ResiliencePolicy(
                max_retries=10,
                breaker_threshold=2,
                breaker_cooldown_s=None,
            ),
            tracer=tracer,
        )
        report = server.simulate(spread_requests(6))
        m = report.metrics
        assert m.circuit_opens >= 1
        opens = events_named(tracer, "device.circuit_open")
        assert any(e.attrs["permanent"] is True for e in opens)
        assert len(m.reshard_records) >= 1
        assert m.reshard_records[0].failed_device == 1
        assert m.reshard_records[0].survivors == 1
        assert m.recovery_s > 0
        assert sum(m.outcome_counts().values()) == m.submitted


# ---------------------------------------------------------------------------
# Engine end-to-end: plan-scheduled fail-stop + re-shard
# ---------------------------------------------------------------------------
class TestFailStopReshard:
    def test_failstop_reshards_with_zero_loss(self):
        tracer = Tracer()
        server = make_server(
            devices=2,
            faults="devfail:device=1,at=0.003",
            resilience=ResiliencePolicy(),
            tracer=tracer,
        )
        report = server.simulate(spread_requests(10))
        m = report.metrics
        assert len(m.reshard_records) == 1
        record = m.reshard_records[0]
        assert record.failed_device == 1
        assert record.survivors == 1
        assert record.recovery_s > 0
        assert m.completed == m.submitted == 10
        assert events_named(tracer, "reshard")
        injected = events_named(tracer, "fault.inject")
        assert any(e.attrs["kind"] == "devfail" for e in injected)

    @pytest.mark.parametrize(
        "spec", ["devfail:device=2,at=0.01", "slow:device=2,factor=4"]
    )
    def test_fault_on_missing_device_rejected(self, spec):
        with pytest.raises(ServeError, match="names device 2, but the "
                           "server has 2 device"):
            make_server(devices=2, faults=spec, resilience=True)

    def test_fault_devices_in_range_accepted(self):
        # The last real device is fine, and launch:device= is reduced
        # modulo the group width, so it may name any device.
        server = make_server(
            devices=2, resilience=True,
            faults="devfail:device=1,at=0.003;slow:device=1,factor=2;"
            "launch:p=0.1,device=7",
        )
        report = server.simulate(spread_requests(10))
        assert len(report.metrics.reshard_records) == 1

    def test_failstop_without_resilience_fails_requests(self):
        server = make_server(
            devices=2,
            faults="devfail:device=1,at=0.0",
        )
        report = server.simulate(spread_requests(4))
        m = report.metrics
        assert m.reshard_records == []
        assert m.outcome_counts()["failed"] == 4
        assert sum(m.outcome_counts().values()) == m.submitted


# ---------------------------------------------------------------------------
# Engine end-to-end: load shedding
# ---------------------------------------------------------------------------
class TestLoadShedding:
    def test_overload_sheds_unprotected_only(self):
        tracer = Tracer()
        server = make_server(
            resilience=ResiliencePolicy(
                shed_queue_rows=8,
                shed_protect_priority=1,
                timeout_slo_multiplier=None,
            ),
            host_overhead_s=1e-3,
            tracer=tracer,
        )
        requests = [
            meta_request(i, rows=4, arrival_s=i * 1e-4,
                         priority=1 if i % 5 == 0 else 0)
            for i in range(30)
        ]
        report = server.simulate(requests)
        m = report.metrics
        counts = m.outcome_counts()
        assert counts["shed"] > 0
        shed_ids = {
            d.request.request_id for d in m.drop_records
            if d.outcome == "shed"
        }
        protected = {r.request_id for r in requests if r.priority >= 1}
        assert not shed_ids & protected
        assert counts["completed"] + counts["shed"] == m.submitted
        shed_events = events_named(tracer, "admission.shed")
        assert len(shed_events) == counts["shed"]

    def test_no_shedding_when_disabled(self):
        server = make_server(resilience=ResiliencePolicy())
        report = server.simulate(spread_requests(10, rows=4, spacing_s=1e-4))
        assert report.metrics.outcome_counts()["shed"] == 0
        assert report.metrics.completed == 10
