"""The continuous step's in-place repeat of quiet steps.

An untraced, fault-free run without numerics advances a run of quiet
decode steps inside one ``InferenceServer._step`` call instead of one
engine turn per step.  The differential property below runs each
drawn scenario twice, once as is and once forced to single-step (the
private ``_horizon_s`` patched to ``-inf``, which no step start
precedes), and requires the two runs to leave identical records,
memory ledgers, plan-cache stats and plan-cache recency orders.  The
spy tests check that the repeat engages where it should and never
where it must not.

Tier-1 draws :data:`TIER1_EXAMPLES` examples; CI re-runs the file under
the ``serve-fuzz`` Hypothesis profile (``tests/conftest.py``).
"""

from __future__ import annotations

import math
from contextlib import contextmanager
from datetime import timedelta

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st
from test_walk_memo import _eviction_order

from repro.obs import Tracer
from repro.serve.batcher import BatchingPolicy
from repro.serve.loadgen import generate_requests
from repro.serve.model_exec import (
    agentic_short_decodes,
    long_context_summarization,
    prefill_heavy_chat,
)
from repro.serve.request import InferenceRequest
from repro.serve.resilience import ResiliencePolicy
from repro.serve.scenarios import LlamaServingScenario, TrafficTier
from repro.serve.server import InferenceServer
from repro.sparsity.config import NMPattern

TIER1_EXAMPLES = 20

EXAMPLES = (
    settings().max_examples
    if settings.get_current_profile_name() == "serve-fuzz"
    else TIER1_EXAMPLES
)

MODEL_SCENARIOS = (
    long_context_summarization,
    agentic_short_decodes,
    prefill_heavy_chat,
)

TIERS = (
    TrafficTier(priority=1, slo_ms=20.0, share=0.3),
    TrafficTier(priority=0, slo_ms=200.0, share=0.7),
)


def requests_for(scenario, server, sources):
    return generate_requests(
        sources, scenario.qps, scenario.duration_s, seed=scenario.seed,
        arrival=scenario.arrival,
        synthesize_activations=server.execute_numerics,
    )


@contextmanager
def single_step():
    """Force one engine turn per continuous step."""
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(
            InferenceServer, "_horizon_s", lambda self, lane, state: -math.inf
        )
        yield


@contextmanager
def step_spy():
    """Record how many step records each ``_step`` call appends."""
    appended: list[int] = []
    original = InferenceServer._step

    def spy(self, lane, batcher, start_s, state):
        before = len(state.metrics.step_records)
        end_s = original(self, lane, batcher, start_s, state)
        appended.append(len(state.metrics.step_records) - before)
        return end_s

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(InferenceServer, "_step", spy)
        yield appended


@st.composite
def scenarios(draw):
    """A fault-free continuous-batching scenario: a whole model, or
    plain projections of one or two models (one lane each)."""
    # Timeouts from half the SLO (cancellations mid-run) to ten times it.
    timeout = draw(st.sampled_from((None, 0.5, 2.0, 10.0)))
    common = dict(
        seed=draw(st.integers(0, 2**16)),
        duration_s=0.3,
        scheduling=draw(st.sampled_from(("fifo", "priority", "slo-edf"))),
        devices=draw(st.integers(1, 2)),
        resilience=(
            None if timeout is None
            else ResiliencePolicy(timeout_slo_multiplier=timeout)
        ),
    )
    if draw(st.booleans()):
        return LlamaServingScenario.priority_tiered(
            models=draw(
                st.sampled_from((("llama-7b",), ("llama-7b", "llama-13b")))
            ),
            qps=draw(st.sampled_from((300.0, 1500.0))),
            continuous=True,
            decode_fraction=draw(st.sampled_from((0.5, 1.0))),
            **common,
        )
    factory = draw(st.sampled_from(MODEL_SCENARIOS))
    return factory(
        kv_admission=draw(st.sampled_from(("kv-aware", "none"))),
        tiers=TIERS if draw(st.booleans()) else (),
        **common,
    )


def run(scenario):
    server, sources = scenario.build_server()
    return server.simulate(requests_for(scenario, server, sources))


def assert_same_as_single_step(fast_server, slow_server, requests):
    """Simulate ``requests`` on two fresh, identical servers, the second
    forced to single-step; return the single-step report.  (Reading
    the plan caches' recency order fills them with fresh keys.)"""
    fast = fast_server.simulate(requests)
    with single_step():
        slow = slow_server.simulate(requests)
    for name in ("step_records", "batch_records", "request_records",
                 "drop_records"):
        assert getattr(fast.metrics, name) == getattr(slow.metrics, name)
    assert fast.plan_cache_stats == slow.plan_cache_stats
    if fast.memory_model is not None:
        assert fast.memory_model.summary() == slow.memory_model.summary()
        fast_peak = fast.memory_model.peak_bytes, fast.memory_model.peak_t_s
        assert fast_peak == (
            slow.memory_model.peak_bytes, slow.memory_model.peak_t_s
        )
    for fast_cache, slow_cache in zip(
        fast_server.plan_caches, slow_server.plan_caches, strict=True
    ):
        keys = list({**fast_cache._lru._data, **slow_cache._lru._data})
        assert _eviction_order(fast_cache._lru, keys) == _eviction_order(
            slow_cache._lru, keys
        )
    return slow


@settings(
    max_examples=EXAMPLES,
    deadline=timedelta(seconds=10),
    suppress_health_check=[HealthCheck.too_slow],
)
@given(scenarios())
def test_repeated_steps_match_single_steps(scenario):
    server, sources = scenario.build_server()
    requests = requests_for(scenario, server, sources)
    assert_same_as_single_step(server, scenario.build_server()[0], requests)


class TestEngagement:
    def test_quiet_runs_repeat_in_place(self):
        # A fallback to one engine turn per step must fail here.
        scenario = long_context_summarization(seed=0)
        with step_spy() as appended:
            report = run(scenario)
        steps = len(report.metrics.step_records)
        assert sum(appended) == steps
        assert len(appended) <= 0.5 * steps

    @pytest.mark.parametrize(
        "overrides",
        [
            dict(tracer=Tracer()),
            dict(faults="launch:p=0.05;seed=1", resilience=True),
        ],
        ids=["traced", "faulted"],
    )
    def test_traced_and_faulted_runs_never_repeat(self, overrides):
        scenario = long_context_summarization(seed=0, **overrides)
        with step_spy() as appended:
            report = run(scenario)
        assert len(appended) == len(report.metrics.step_records)
        assert set(appended) == {1}

    def test_numerics_runs_never_repeat(self):
        scenario = LlamaServingScenario.priority_tiered(
            qps=300.0, duration_s=0.2, continuous=True, decode_fraction=1.0,
            execute_numerics=True, seed=0,
        )
        with step_spy() as appended:
            report = run(scenario)
        assert report.metrics.step_records
        assert set(appended) == {1}


def plain_server(*models, **kwargs):
    """A metadata-only continuous-batching server of k=64 projections."""
    server = InferenceServer(
        execute_numerics=False, continuous_batching=True,
        host_overhead_s=1e-3, **kwargs,
    )
    weights = np.random.default_rng(0).standard_normal((64, 128))
    for name in models:
        server.register_model(name, weights.astype(np.float32), NMPattern(2, 4))
    return server


def plain_request(rid, model, rows, arrival_s, steps=1, slo_ms=None):
    return InferenceRequest(
        request_id=rid, model=model, a=None, arrival_s=arrival_s,
        shape=(rows, 64), steps=steps, slo_ms=slo_ms,
    )


def model_server(**overrides):
    return long_context_summarization(**overrides).build_server()[0]


def model_request(server, rid, priority, prompt_len, max_new_tokens,
                  arrival_s):
    (name,) = server.model_names
    return InferenceRequest(
        request_id=rid, model=name, a=None, arrival_s=arrival_s,
        shape=(1, server.model(name).k), priority=priority,
        prompt_len=prompt_len, max_new_tokens=max_new_tokens,
    )


class TestStopConditions:
    """Hand-built runs in which a repeat past its stop would diverge."""

    @pytest.mark.parametrize("other", ["b", "a"], ids=["other-lane", "own"])
    def test_queued_prefill_stops_the_repeat(self, other):
        # A prefill queued before model "a"'s long decode arrives has
        # its max wait expire during the decode's first step; from then
        # on the older prefill wins the GPU, on another lane or on the
        # decode's own.  A repeat that ignored it would keep decoding.
        requests = [
            plain_request(0, other, 32, 0.0),
            plain_request(1, "a", 1, 1e-6, steps=20),
            plain_request(2, other, 32, 1.0),  # the trace does not drain
        ]
        slow = assert_same_as_single_step(
            plain_server("a", "b"), plain_server("a", "b"), requests
        )
        first_prefill = slow.metrics.batch_records[0].started_s
        assert first_prefill < slow.metrics.step_records[-1].started_s

    def test_a_deadline_stops_the_repeat(self):
        # One of two long decodes times out mid-run; the repeat must
        # stop for the engine turn that cancels it.
        requests = [
            plain_request(0, "a", 1, 0.0, steps=30, slo_ms=1.0),
            plain_request(1, "a", 1, 0.0, steps=30),
        ]
        policy = ResiliencePolicy(timeout_slo_multiplier=5.0)
        slow = assert_same_as_single_step(
            plain_server("a", resilience=policy),
            plain_server("a", resilience=policy),
            requests,
        )
        assert [d.outcome for d in slow.metrics.drop_records] == ["timed-out"]

    def test_a_refill_preemption_stops_the_repeat(self):
        # Two bulk sequences fill a two-request batch.  A priority-2
        # arrival preempts the cheaper one, and a priority-1 arrival is
        # then refused by the KV gate while the victim's KV is still
        # counted.  The victim's KV frees after the refill, so the next
        # refill admits the priority-1 request (preempting the other
        # bulk sequence): the step after a preemption is not a repeat.
        def build():
            return model_server(
                scheduling="priority", hbm_tokens=1000,
                policy=BatchingPolicy(max_batch_requests=2),
            )

        server = build()
        requests = [
            model_request(server, 0, 0, 100, 32, 0.0),
            model_request(server, 1, 0, 500, 32, 0.0),
            model_request(server, 2, 2, 100, 16, 1e-6),
            model_request(server, 3, 1, 300, 16, 1e-6),
        ]
        slow = assert_same_as_single_step(server, build(), requests)
        joins = [(r.joined, r.preempted) for r in slow.metrics.step_records]
        assert joins[:3] == [(2, 0), (1, 1), (1, 1)]

    def test_a_kv_eviction_stops_the_repeat(self):
        # Two decodes grow until their KV no longer fits and the cheaper
        # one is evicted.  The priority-1 request the KV gate refused
        # so far fits in the freed bytes at the next refill.
        def build():
            return model_server(scheduling="priority", hbm_tokens=520)

        server = build()
        requests = [
            model_request(server, 0, 0, 400, 32, 0.0),
            model_request(server, 1, 0, 100, 32, 0.0),
            model_request(server, 2, 1, 50, 8, 1e-6),
        ]
        slow = assert_same_as_single_step(server, build(), requests)
        steps = slow.metrics.step_records
        evicting = next(i for i, r in enumerate(steps) if r.kv_evicted)
        assert steps[evicting + 1].joined == 1
