"""The serving engine's Prometheus metrics, derived from run records.

:func:`repro.serve.metrics.fill_registry` is the only place the engine's
counters, histograms and gauges come from.  These tests drive it with
hand-built records — no engine run — and pin every family, its label
sets, the record order histogram sums are taken in, and how repeated
runs on one registry accumulate.
"""

from repro.obs.metrics import MetricsRegistry
from repro.serve.metrics import (
    BatchRecord,
    DropRecord,
    ReshardRecord,
    ServingMetrics,
    StepRecord,
    fill_registry,
)
from repro.serve.request import InferenceRequest, RequestRecord


def request(request_id, rows, *, model="m", arrival_s=0.0):
    return InferenceRequest(
        request_id=request_id, model=model, a=None, arrival_s=arrival_s,
        shape=(rows, 8),
    )


def is_decode(req):
    return req.rows <= 2


def batch(batch_id, seconds, *, failed=False):
    return BatchRecord(
        batch_id=batch_id, model="m", n_requests=1, rows=8, padded_rows=8,
        started_s=0.0, finished_s=seconds, modeled_gpu_s=seconds,
        failed=failed,
    )


def step(step_id, seconds, *, model="m", **extra):
    return StepRecord(
        step_id=step_id, model=model, n_resident=1, rows=1, padded_rows=1,
        joined=0, evicted=0, preempted=0, started_s=0.0,
        finished_s=seconds, modeled_gpu_s=seconds, **extra,
    )


def completed(req, started_s, batch_id, retries=0):
    return RequestRecord(
        request=req, batch_id=batch_id, started_s=started_s,
        finished_s=started_s, retries=retries,
    )


def chaos_run(kv_bytes=40):
    """Launch ids 0..4 (batches 0 and 2, steps 1, 3 and 4), four
    completions, every drop kind, two re-shards and two breaker
    openings on a model-mode run."""
    m = ServingMetrics()
    m.batch_records += [batch(0, 0.3, failed=True), batch(2, 0.1)]
    m.step_records += [
        step(1, 0.2, failed=True, retry=True, kv_evicted=2, kv_bytes=100),
        step(3, 0.25, kv_evicted=1, kv_bytes=kv_bytes),
        step(4, 0.5, model="p"),  # a plain entry's step: no KV
    ]
    # Completion order: prefill waits 0.1 then 0.2 then 0.3 (their
    # sum depends on the order), one decode wait.
    m.request_records += [
        completed(request(1, 8), 0.1, 2, retries=1),
        completed(request(2, 1), 0.25, 3),
        completed(request(3, 8), 0.2, 2),
        completed(request(9, 8), 0.3, 2),
    ]
    m.drop_records += [
        DropRecord(request(4, 1), "shed", 0.0),  # at admission
        DropRecord(request(5, 1), "shed", 0.1, reason="kv-overflow"),
        DropRecord(request(6, 8), "timed-out", 0.2, retries=2,
                   where="retry"),
        DropRecord(request(7, 8), "failed", 0.3, retries=1),
        DropRecord(request(8, 1), "failed", 0.4, reason="kv-overflow",
                   kv_evicted=3),
    ]
    m.reshard_records += [
        ReshardRecord("m", 1, 2, 0.1, 0.01, kv_evicted=4),
        ReshardRecord("m", 2, 1, 0.2, 0.01),
    ]
    m.circuit_opens = 2
    m.memory = {}
    return m


PLAN_CACHE = {"hits": 5, "misses": 0}


def filled(*runs):
    registry = MetricsRegistry()
    for run in runs:
        fill_registry(registry, run, PLAN_CACHE, is_decode)
    return registry


class TestFillRegistry:
    def test_every_family_and_label_set(self):
        assert filled(chaos_run()).as_dict() == {
            "serve_launches_total": {"model=m": 4.0, "model=p": 1.0},
            "serve_launch_seconds": {
                "model=m": {"count": 4, "sum": ((0.3 + 0.2) + 0.1) + 0.25},
                "model=p": {"count": 1, "sum": 0.5},
            },
            "serve_queue_wait_seconds": {
                "queue=decode": {"count": 1, "sum": 0.25},
                "queue=prefill": {"count": 3, "sum": (0.1 + 0.2) + 0.3},
            },
            "serve_plan_cache_total": {"outcome=hit": 5.0},
            # Everything but the admission shed was queued.
            "serve_requests_admitted_total": {
                "queue=decode": 3.0, "queue=prefill": 5.0,
            },
            # Re-admissions 1 (request 1) + 1 (request 6 timed out
            # backing off after 2 attempts) + 1 (request 7), plus the
            # failed step that left work to retry.
            "serve_retries_total": {"model=m": 4.0},
            "serve_drops_total": {
                "outcome=failed": 2.0, "outcome=shed": 2.0,
                "outcome=timed-out": 1.0,
            },
            "serve_reshards_total": {"model=m": 2.0},
            "serve_circuit_opens_total": {"_": 2.0},
            "serve_kv_evictions_total": {
                "model=m,reason=memory-pressure": 6.0,
                "model=m,reason=reshard": 4.0,
            },
            "serve_kv_bytes": {"_": 0.0, "model=m": 40.0},
        }

    def test_histogram_sums_follow_record_order(self):
        hist = filled(chaos_run()).get("serve_launch_seconds")
        # Launch-id order, not batches first: the two orders round
        # differently.
        assert hist.sum(model="m") == ((0.3 + 0.2) + 0.1) + 0.25
        assert hist.sum(model="m") != ((0.3 + 0.1) + 0.2) + 0.25
        waits = filled(chaos_run()).get("serve_queue_wait_seconds")
        assert waits.sum(queue="prefill") == (0.1 + 0.2) + 0.3
        assert waits.sum(queue="prefill") != (0.3 + 0.2) + 0.1

    def test_no_family_without_samples(self):
        registry = MetricsRegistry()
        fill_registry(
            registry, ServingMetrics(), {"hits": 0, "misses": 0}, is_decode
        )
        assert len(registry) == 0
        m = ServingMetrics()
        m.batch_records.append(batch(0, 0.1))
        m.request_records.append(completed(request(1, 8), 0.1, 0))
        registry = MetricsRegistry()
        fill_registry(registry, m, {"hits": 0, "misses": 1}, is_decode)
        assert sorted(registry.as_dict()) == [
            "serve_launch_seconds", "serve_launches_total",
            "serve_plan_cache_total", "serve_queue_wait_seconds",
            "serve_requests_admitted_total",
        ]
        assert registry.as_dict()["serve_plan_cache_total"] == {
            "outcome=miss": 1.0,
        }

    def test_repeated_runs_accumulate(self):
        one = filled(chaos_run()).as_dict()
        two = filled(chaos_run(), chaos_run(kv_bytes=7))
        for name in ("serve_launches_total", "serve_retries_total",
                     "serve_kv_evictions_total", "serve_drops_total"):
            assert two.as_dict()[name] == {
                labels: 2 * value for labels, value in one[name].items()
            }
        hist = two.get("serve_launch_seconds")
        first = ((0.3 + 0.2) + 0.1) + 0.25
        assert hist.count(model="m") == 8
        assert hist.sum(model="m") == (((first + 0.3) + 0.2) + 0.1) + 0.25
        # Gauges hold the last run's value.
        assert two.get("serve_kv_bytes").value(model="m") == 7.0
