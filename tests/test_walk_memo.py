"""Golden digests of canned serving runs — the per-run model-mode walk
memo and the engine's one continuous-step path must reproduce them bit
for bit — plus the cache invariants the memo rests on.

Each case records the run's modeled outputs, plan-cache stats, launch
counts and (traced) the exported trace.  The model-mode records were
first taken with the per-layer walk (every walk re-priced through the
plan cache); the plain-entry and faulted model-mode records were taken
with one launch path per step kind (single projection, failed step,
model step) before those paths became one step.  Cases that run
numerics also check every served output against ``a @ pruned``.
Regenerate the file only for a change that is meant to move modeled
numbers::

    PYTHONPATH=src python tests/test_walk_memo.py > tests/fixtures/walk_memo_golden.json
"""

from __future__ import annotations

import functools
import hashlib
import json
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.obs import Tracer
from repro.obs.export import chrome_trace
from repro.serve.loadgen import generate_requests
from repro.serve.metrics import ServingMetrics
from repro.serve.model_exec import long_context_summarization
from repro.serve.resilience import ResiliencePolicy
from repro.serve.scenarios import LlamaServingScenario, TrafficTier
from repro.utils.cache import LRUCache

GOLDEN = Path(__file__).parent / "fixtures" / "walk_memo_golden.json"

CHAOS = (
    "slow:device=0,factor=2,start=0.1,end=0.4;"
    "link:factor=0.1,start=0.2,end=0.5;"
    "devfail:device=1,at=0.6"
)

model = functools.partial(long_context_summarization, duration_s=1.0)
mixed = LlamaServingScenario.mixed_prefill_decode
tiered = functools.partial(
    LlamaServingScenario.priority_tiered,
    qps=1500.0, continuous=True, decode_fraction=0.5,
)
TIERS = (
    TrafficTier(priority=1, slo_ms=20.0, share=0.3),
    TrafficTier(priority=0, slo_ms=200.0, share=0.7),
)

#: case name -> (scenario factory, overrides, Tracer kwargs or None for
#: an untraced run)
CASES = {
    "seed0": (model, dict(seed=0), None),
    "seed4242": (model, dict(seed=4242), None),
    "seed0-capacity4": (model, dict(seed=0, plan_cache_capacity=4), None),
    "seed4242-capacity4": (
        model, dict(seed=4242, plan_cache_capacity=4), None
    ),
    # Some walks hit, others evict (27 live keys against 20 slots).
    "seed0-capacity20": (
        model, dict(seed=0, plan_cache_capacity=20), None
    ),
    "chaos-2dev": (
        model, dict(seed=0, devices=2, faults=CHAOS, resilience=True), None
    ),
    # The fail-stop re-shards onto two survivors (still distributed).
    "chaos-3dev": (
        model,
        dict(
            seed=0, devices=3, resilience=True,
            faults="slow:device=2,factor=3,start=0.2,end=0.5;"
            "devfail:device=1,at=0.4",
        ),
        None,
    ),
    "traced": (model, dict(seed=0), {}),
    "traced-chaos-2dev": (
        model,
        dict(seed=0, devices=2, faults=CHAOS, resilience=True),
        dict(sample_rate=0.5, sample_seed=7),
    ),
    # The no-memory-model baseline: overflow pays host-link thrash.
    "model-kv-none": (model, dict(seed=0, kv_admission="none"), None),
    # Failed model steps: residents burn attempts, prefills re-run.
    "model-launch-faults": (
        model,
        dict(seed=0, faults="launch:p=0.3;seed=0", resilience=True),
        None,
    ),
    "model-traced-launch-faults-2dev": (
        model,
        dict(
            seed=0, devices=2, faults="launch:p=0.2;seed=1",
            resilience=True,
        ),
        dict(sample_rate=0.5, sample_seed=7),
    ),
    # Plain single-projection entries: dynamic batches + plain steps.
    "plain-fifo": (
        mixed, dict(seed=0, duration_s=0.3, execute_numerics=True), None
    ),
    "plain-priority-row3": (
        mixed,
        dict(
            seed=1, duration_s=0.3, scheduling="priority", tiers=TIERS,
            devices=3, shard="row", execute_numerics=True,
        ),
        None,
    ),
    # Failed batches and failed steps, retried with backoff.
    "plain-launch-faults-col2": (
        tiered,
        dict(
            seed=0, duration_s=0.5, devices=2, shard="column",
            faults="launch:p=0.2;seed=3", resilience=True,
        ),
        None,
    ),
    # Resilience off: the first fault fails every member for good.
    "plain-launch-faults-no-resilience": (
        tiered,
        dict(
            scheduling="fifo", seed=3, duration_s=0.4,
            faults="launch:p=0.1;seed=5",
        ),
        None,
    ),
    # The fail-stop re-shards row-parallel onto two survivors.
    "plain-devfail-row3": (
        tiered,
        dict(
            seed=0, duration_s=0.5, devices=3, shard="row",
            faults="launch:p=0.05;devfail:device=1,at=0.2;seed=3",
            resilience=True,
        ),
        None,
    ),
    # ... and column-parallel onto one survivor (numerics stay sharded
    # until then, single-device after).
    "plain-devfail-col2": (
        mixed,
        dict(
            seed=0, duration_s=0.4, devices=2, scheduling="slo-edf",
            tiers=TIERS, faults="devfail:device=0,at=0.15",
            resilience=True, execute_numerics=True,
        ),
        None,
    ),
    "plain-traced-chaos-row2": (
        tiered,
        dict(
            seed=0, duration_s=0.5, devices=2, shard="row",
            faults="launch:p=0.1;devfail:device=1,at=0.3;seed=4",
            resilience=True,
        ),
        dict(sample_rate=0.5, sample_seed=7),
    ),
    # Traced prefill retries: failed batches re-admit their members.
    "plain-traced-launch-faults-col2": (
        tiered,
        dict(
            seed=0, duration_s=0.5, devices=2, shard="column",
            faults="launch:p=0.2;seed=3", resilience=True,
        ),
        dict(sample_rate=0.5, sample_seed=7),
    ),
    # Traced sheds, timeouts, exhausted retries and half-open breakers.
    "plain-traced-shed-breaker-col2": (
        tiered,
        dict(
            seed=0, duration_s=0.5, devices=2, shard="column",
            faults="launch:p=0.3;seed=3",
            resilience=ResiliencePolicy(
                shed_queue_rows=64, breaker_threshold=2,
                breaker_cooldown_s=0.02, timeout_slo_multiplier=2.0,
            ),
        ),
        dict(sample_rate=0.5, sample_seed=7),
    ),
    # Traced re-shard evictions, then refills under the shrunk budget.
    "model-traced-devfail-3dev": (
        model,
        dict(
            seed=0, devices=3, faults="devfail:device=1,at=0.3",
            resilience=True,
        ),
        dict(sample_rate=0.5, sample_seed=7),
    ),
}


def _sha(payload: object) -> str:
    blob = json.dumps(payload, sort_keys=True, default=str).encode()
    return hashlib.sha256(blob).hexdigest()


def _modeled_digest(m: ServingMetrics) -> str:
    """Digest of everything the simulated clock decided in one run."""
    return _sha(
        {
            "requests": [
                (
                    r.request.request_id, r.batch_id,
                    repr(r.started_s), repr(r.finished_s), r.retries,
                )
                for r in m.request_records
            ],
            "drops": [
                (d.request.request_id, d.outcome, d.retries)
                for d in m.drop_records
            ],
            "launches": (len(m.batch_records), len(m.step_records)),
            "gpu_busy_s": repr(m.gpu_busy_s),
            "memory": m.memory,
        }
    )


@functools.lru_cache(maxsize=None)
def _run(name: str):
    """Run one case once per session: ``(scenario, report, tracer)``."""
    factory, overrides, tracer_kwargs = CASES[name]
    tracer = Tracer(**tracer_kwargs) if tracer_kwargs is not None else None
    scenario = factory(tracer=tracer, **overrides)
    return scenario, scenario.run(), tracer


def case_record(name: str) -> dict:
    """Run one golden case and return its recorded figures."""
    _, report, tracer = _run(name)
    m = report.metrics
    record = {
        "modeled_digest": _modeled_digest(m),
        "plan_cache_stats": report.plan_cache_stats,
        "steps": len(m.step_records),
        "reshards": len(m.reshard_records),
    }
    # Model-mode runs launch no dynamic batches and (the recorded ones
    # without a launch plan) no failed launch, so their records keep
    # the original keys.
    if m.batch_records:
        record["batches"] = len(m.batch_records)
    if m.failed_launches:
        record["failed_launches"] = m.failed_launches
    if tracer is not None:
        names = [event.name for event in tracer.events]
        record["chrome_trace_sha256"] = _sha(chrome_trace(tracer))
        record["event_names_sha256"] = _sha(names)
        record["events"] = len(names)
        record["metrics_sha256"] = _sha(tracer.metrics.as_dict())
    return record


@pytest.fixture(scope="module")
def golden() -> dict:
    return json.loads(GOLDEN.read_text())


class TestGoldenDigests:
    def test_every_case_has_a_golden_record(self, golden):
        assert sorted(golden) == sorted(CASES)

    @pytest.mark.parametrize("name", sorted(CASES))
    def test_case_reproduces_golden(self, golden, name):
        assert case_record(name) == golden[name]

    @pytest.mark.parametrize(
        "name",
        sorted(n for n in CASES if CASES[n][1].get("execute_numerics")),
    )
    def test_served_outputs_match_pruned_weights(self, name):
        # Tolerance, not bits: BLAS summation order differs by host.
        scenario, report, _ = _run(name)
        server, _ = scenario.build_server()
        completed = report.metrics.request_records
        assert completed
        for record in completed:
            handle = server.model(record.request.model).handle.weights()
            pruned = handle.dense()[: handle.k_logical, : handle.n_logical]
            np.testing.assert_allclose(
                record.output, record.request.a @ pruned,
                rtol=1e-4, atol=1e-4,
            )

    def test_plain_cases_exercise_every_launch_path(self, golden):
        # Failed batches and failed plain steps both run, with and
        # without resilience, and both fail-stops re-shard.
        for name in (
            "plain-launch-faults-col2", "plain-launch-faults-no-resilience",
        ):
            steps, batches = _failed_counts(name)
            assert steps > 0 and batches > 0, name
        for name in (
            "model-launch-faults", "model-traced-launch-faults-2dev",
        ):
            assert _failed_counts(name)[0] > 0, name
        for name in (
            "plain-devfail-row3", "plain-devfail-col2",
            "plain-traced-chaos-row2",
        ):
            assert golden[name]["reshards"] == 1

    def test_cases_exercise_the_memo_boundaries(self, golden):
        # Capacity 4 evicts inside every walk (nothing may be replayed);
        # capacity 20 both replays and evicts; the chaos cases
        # re-shard mid-run.
        assert golden["seed0-capacity4"]["plan_cache_stats"]["hits"] == 0
        mixed = golden["seed0-capacity20"]["plan_cache_stats"]
        assert mixed["hits"] > 0 and mixed["evictions"] > 0
        for name in ("chaos-2dev", "chaos-3dev", "traced-chaos-2dev"):
            assert golden[name]["reshards"] == 1

    @pytest.mark.parametrize(
        "name", ["traced-chaos-2dev", "model-traced-devfail-3dev"]
    )
    def test_kv_eviction_counter_counts_sequences(self, name):
        # A re-shard evicts several residents at once; the counter
        # counts each one, as the memory model does.
        _, report, tracer = _run(name)
        counter = tracer.metrics.as_dict()["serve_kv_evictions_total"]
        assert sum(counter.values()) == report.metrics.memory["kv_evictions"]


def _eviction_order(cache: LRUCache, keys: list) -> list:
    """The order ``cache`` evicts ``keys`` in as fresh keys arrive —
    its recency order, read through the public interface."""
    order = []
    for fresh in range(cache.capacity):
        cache.put(("fresh", fresh), None)
        order += [k for k in keys if k not in cache and k not in order]
    return order


class _AlwaysReplayingLRU(LRUCache):
    """The reference :meth:`LRUCache.refresh`: every replay moves each
    key, even one that repeats the previous replay."""

    def refresh(self, keys):
        for key in keys:
            self._data.move_to_end(key)
        self.stats.hits += len(keys)


def _lru_op(cache: LRUCache, op: str, arg):
    """Apply one drawn operation; a refresh of an evicted key returns
    ``KeyError`` instead of raising."""
    if op == "put":
        return cache.put(arg, -arg)
    if op == "get":
        return cache.get_or_build(arg, lambda: -arg)
    if op == "clear":
        return cache.clear()
    try:
        return cache.refresh(arg)
    except KeyError:
        return KeyError


#: The key universe of the LRU property (small, so keys collide).
LRU_KEYS = list(range(6))


def _recency(cache: LRUCache) -> list:
    """``cache``'s recency order over :data:`LRU_KEYS`, read through
    :func:`_eviction_order` on a copy (reading it fills the cache)."""
    twin = LRUCache(cache.capacity)
    twin._data = cache._data.copy()
    return _eviction_order(twin, LRU_KEYS)


class TestLRUCacheMemoSupport:
    @settings(deadline=None)
    @given(st.data())
    def test_repeated_refresh_matches_a_full_replay(self, data):
        """Random interleavings of puts, hits, misses, clears and
        refreshes, where a refresh is often handed the very tuple it
        replayed last: the O(1) repeat must leave the stats, generation
        and recency order of a cache that always replays in full."""
        capacity = data.draw(st.integers(1, 4), label="capacity")
        cache, reference = LRUCache(capacity), _AlwaysReplayingLRU(capacity)
        keys = st.sampled_from(LRU_KEYS)

        def both(op, arg=None):
            assert _lru_op(cache, op, arg) == _lru_op(reference, op, arg)
            assert cache.stats == reference.stats
            assert cache.generation == reference.generation
            assert _recency(cache) == _recency(reference)

        for _ in range(20):
            # Mostly cached keys: hits, and refreshes that succeed.
            cached = st.sampled_from(list(reference._data) or LRU_KEYS)
            replayed = tuple(data.draw(st.lists(cached, min_size=1, max_size=5)))
            both("refresh", replayed)
            op = data.draw(
                st.sampled_from(("put", "get", "clear", "refresh", "stray", "-"))
            )
            if op == "put":
                both(op, data.draw(keys))
            elif op == "get":
                both(op, data.draw(cached | keys))
            elif op == "clear":
                both(op)
            elif op == "refresh":
                both(op, tuple(data.draw(st.lists(cached, max_size=5))))
            elif op == "stray":  # its last key may miss: raises part-way
                hits = data.draw(st.lists(cached, max_size=3))
                both("refresh", (*hits, data.draw(keys)))
            for _ in range(data.draw(st.integers(1, 3))):
                both("refresh", replayed)  # the same tuple object

    def test_refresh_matches_gets(self):
        keys = ["a", "b", "c", "d"]
        by_get, by_refresh = LRUCache(4), LRUCache(4)
        for cache in (by_get, by_refresh):
            for key in keys:
                cache.put(key, key.upper())
        sequence = ["c", "a", "c", "d"]
        for key in sequence:
            by_get.get_or_build(key, lambda: pytest.fail("a hit builds"))
        by_refresh.refresh(sequence)
        assert by_refresh.stats == by_get.stats
        assert by_refresh.stats.hits == len(sequence)
        assert _eviction_order(by_get, keys) == ["b", "a", "c", "d"]
        assert _eviction_order(by_refresh, keys) == ["b", "a", "c", "d"]

    def test_refresh_rejects_uncached_keys(self):
        cache = LRUCache(2)
        with pytest.raises(KeyError):
            cache.refresh(["missing"])

    def test_generation_moves_on_eviction_and_clear_only(self):
        cache = LRUCache(2)
        cache.put("a", 1)
        cache.put("b", 2)
        cache.get_or_build("a", lambda: 0)
        cache.refresh(["b"])
        cache.put("b", 3)  # overwrite in place: nothing leaves
        assert cache.generation == 0
        cache.put("c", 3)  # evicts "a"
        assert cache.generation == 1
        cache.clear()
        assert cache.generation == 2

    def test_cached_none_counts_one_hit(self):
        cache = LRUCache(2)
        builds = []

        def build():
            builds.append(1)
            return None

        assert cache.get_or_build("k", build) is None
        assert cache.get_or_build("k", build) is None
        assert len(builds) == 1
        assert (cache.stats.hits, cache.stats.misses) == (1, 1)
        assert cache.get_or_build("k", build) is None
        assert (cache.stats.hits, cache.stats.misses) == (2, 1)
        cache.refresh(["k"])  # a replayed hit counts like a real one
        assert (cache.stats.hits, cache.stats.misses) == (3, 1)
        assert cache.get_or_build("absent", build) is None
        assert len(builds) == 2
        assert (cache.stats.hits, cache.stats.misses) == (3, 2)


class TestWalkMemoAfterReshard:
    def test_overlay_entry_is_priced_not_replayed(self):
        scenario = long_context_summarization(
            duration_s=0.5, seed=0, devices=2, resilience=True,
            faults="devfail:device=1,at=0.25",
        )
        server, sources = scenario.build_server()
        requests = generate_requests(
            sources, scenario.qps, scenario.duration_s, seed=scenario.seed,
            arrival=scenario.arrival, synthesize_activations=False,
        )
        walked = []
        original = server._price

        def spy(lane, padded_rows, state, t_s):
            result = original(lane, padded_rows, state, t_s)
            walked.append((lane.entry, padded_rows, t_s, result, state))
            return result

        server._price = spy
        report = server.simulate(requests)
        assert len(report.metrics.reshard_records) == 1
        state = walked[-1][-1]
        lane = state.lanes[scenario.model.lower()]
        resharded = lane.entry
        registered = server.model(scenario.model.lower())
        assert not resharded.distributed and registered.distributed
        before = [w for w in walked if w[0] is registered]
        after = [w for w in walked if w[0] is resharded]
        assert before and after
        # The first re-sharded walk at each geometry is a fresh pricing:
        # a single-device walk has no per-device split or collective,
        # unlike every registered (sharded) walk at the same rows.
        for _, _, _, (total, _, per_device, comm), _ in after:
            assert per_device == () and comm == 0.0
            assert total > 0
        assert all(w[3][2] for w in before)
        # A faulted run prices every walk and keeps no memo.
        assert lane.walks == {}

    def test_reshard_stales_the_memo_in_a_replaying_run(self):
        # No injector, so walks replay; a fail-stop handled mid-run
        # clears the plan caches and installs a re-sharded lane entry.
        scenario = long_context_summarization(
            duration_s=0.3, seed=0, devices=2, resilience=True
        )
        server, _ = scenario.build_server()
        state = server._new_run_state(ServingMetrics())
        assert state.injector is None
        name = scenario.model.lower()
        lane = state.lanes[name]
        registered = lane.entry
        sharded = server._price(lane, 64, state, 0.0)
        stats = server.plan_cache.stats.snapshot()
        assert server._price(lane, 64, state, 0.0) == (
            sharded
        )
        assert server.plan_cache.stats.hits - stats.hits == len(
            registered.layers
        )
        (memo,) = lane.walks.values()
        state.dead.add(1)
        server._handle_device_death(1, 0.1, state)
        assert not memo.current()
        resharded = lane.entry
        assert resharded is not registered and not resharded.distributed
        stats = server.plan_cache.stats.snapshot()
        total, _, per_device, comm = server._price(
            lane, 64, state, 0.2
        )
        # Priced afresh on the survivor: every layer misses the cleared
        # cache, and a single-device walk has no split or collective.
        assert server.plan_cache.stats.misses - stats.misses == len(
            resharded.layers
        )
        assert per_device == () and comm == 0.0 and total > 0
        assert sharded[2] and sharded[3] > 0.0
        assert lane.walks[64] is not memo

    @pytest.mark.parametrize(
        "factory, overrides",
        [
            (model, {}),
            (mixed, {}),
            (mixed, dict(devices=2, shard="column")),
        ],
        ids=["model", "plain", "plain-col2"],
    )
    def test_repeat_walk_equals_fresh_pricing(self, factory, overrides):
        # A replayed walk returns exactly what pricing the stack anew
        # through the per-launch path returns; a plain entry is a
        # one-layer stack, replayed as one hit per device.
        scenario = factory(duration_s=0.3, seed=0, **overrides)
        server, _ = scenario.build_server()
        name = server.model_names[0]
        entry = server.model(name)
        state = server._new_run_state(None)
        first = server._price(state.lanes[name], 64, state, 0.0)
        hits = sum(cache.stats.hits for cache in server.plan_caches)
        second = server._price(state.lanes[name], 64, state, 0.0)
        assert second == first
        replayed = sum(cache.stats.hits for cache in server.plan_caches)
        launches = len(entry.layers or (entry,)) * len(entry.devices)
        assert replayed - hits == launches
        fresh_state = server._new_run_state(None)
        for cache in server.plan_caches:
            cache.clear()
        assert server._price(
            fresh_state.lanes[name], 64, fresh_state, 0.0
        ) == first

    @pytest.mark.parametrize("rows", [1, 4, 16, 64, 256, 1024])
    def test_stack_seconds_equals_single_device_walk(self, rows):
        # The executor's own stack price (fresh plans, no cache) and the
        # engine's plan-cached walk are one quantity on one device.
        # Sharded walks add the split and the collective, so they differ.
        scenario = long_context_summarization(duration_s=0.3, seed=0)
        server, _ = scenario.build_server()
        name = scenario.model.lower()
        entry = server.model(name)
        state = server._new_run_state(None)
        lane = state.lanes[name]
        walk_s = server._price(lane, rows, state, 0.0)[0]
        assert entry.executor.stack_seconds(rows) == walk_s


class TestRunLocality:
    """A fail-stop re-shards only the run's lanes: the same server
    replays the same trace to the same figures, and its registry keeps
    the full device group."""

    @pytest.mark.parametrize(
        "factory, overrides, survivors",
        [
            (
                tiered,
                dict(
                    seed=0, duration_s=0.5, devices=3, shard="row",
                    faults="launch:p=0.05;devfail:device=1,at=0.2;seed=3",
                    resilience=True, execute_numerics=False,
                ),
                (0, 2),
            ),
            (
                model,
                dict(
                    seed=0, duration_s=0.5, devices=2, resilience=True,
                    faults="devfail:device=0,at=0.25",
                ),
                (1,),
            ),
        ],
        ids=["plain-row3", "model-2dev"],
    )
    def test_rerun_after_failstop_is_identical(
        self, factory, overrides, survivors
    ):
        scenario = factory(**overrides)
        server, sources = scenario.build_server()
        requests = generate_requests(
            sources, scenario.qps, scenario.duration_s, seed=scenario.seed,
            arrival=scenario.arrival, synthesize_activations=False,
        )
        states = []
        original = server._handle_device_death

        def spy(device, t_s, state):
            states.append(state)
            return original(device, t_s, state)

        server._handle_device_death = spy
        first = server.simulate(requests)
        second = server.simulate(requests)
        assert len(first.metrics.reshard_records) == 1
        assert _modeled_digest(second.metrics) == _modeled_digest(
            first.metrics
        )
        assert second.plan_cache_stats == first.plan_cache_stats
        devices = overrides["devices"]
        for name in server.model_names:
            registered = server.model(name)
            lane = states[-1].lanes[name]
            assert lane.entry is not registered
            for placed in (lane.entry, *lane.entry.layers):
                assert placed.devices == survivors
            for placed in (registered, *registered.layers):
                assert placed.devices == tuple(range(devices))


def _failed_counts(name: str) -> "tuple[int, int]":
    """``(failed steps, failed batches)`` of one case's run."""
    m = _run(name)[1].metrics
    return (
        sum(s.failed for s in m.step_records),
        sum(b.failed for b in m.batch_records),
    )


if __name__ == "__main__":
    print(json.dumps({name: case_record(name) for name in CASES}, indent=2,
                     sort_keys=True))
