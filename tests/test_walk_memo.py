"""The per-run model-mode walk memo: golden digests of canned model
serving runs (modeled outputs, plan-cache stats, and — traced — the
exported trace) that pricing each walk once per run must reproduce bit
for bit, plus the cache invariants the memo rests on.

The golden values in ``fixtures/walk_memo_golden.json`` were recorded
with the per-layer walk (every walk re-priced through the plan cache).
Regenerate them only for a change that is meant to move modeled
numbers::

    PYTHONPATH=src python tests/test_walk_memo.py > tests/fixtures/walk_memo_golden.json
"""

from __future__ import annotations

import hashlib
import json
from pathlib import Path

import pytest

from repro.obs import Tracer
from repro.obs.export import chrome_trace
from repro.serve.loadgen import generate_requests
from repro.serve.metrics import ServingMetrics
from repro.serve.model_exec import long_context_summarization
from repro.utils.cache import LRUCache

GOLDEN = Path(__file__).parent / "fixtures" / "walk_memo_golden.json"

CHAOS = (
    "slow:device=0,factor=2,start=0.1,end=0.4;"
    "link:factor=0.1,start=0.2,end=0.5;"
    "devfail:device=1,at=0.6"
)

#: case name -> (long_context_summarization overrides, Tracer kwargs or
#: None for an untraced run)
CASES = {
    "seed0": (dict(seed=0), None),
    "seed4242": (dict(seed=4242), None),
    "seed0-capacity4": (dict(seed=0, plan_cache_capacity=4), None),
    "seed4242-capacity4": (dict(seed=4242, plan_cache_capacity=4), None),
    # Some walks hit, others evict (27 live keys against 20 slots).
    "seed0-capacity20": (dict(seed=0, plan_cache_capacity=20), None),
    "chaos-2dev": (
        dict(seed=0, devices=2, faults=CHAOS, resilience=True), None
    ),
    # The fail-stop re-shards onto two survivors (still distributed).
    "chaos-3dev": (
        dict(
            seed=0, devices=3, resilience=True,
            faults="slow:device=2,factor=3,start=0.2,end=0.5;"
            "devfail:device=1,at=0.4",
        ),
        None,
    ),
    "traced": (dict(seed=0), {}),
    "traced-chaos-2dev": (
        dict(seed=0, devices=2, faults=CHAOS, resilience=True),
        dict(sample_rate=0.5, sample_seed=7),
    ),
}


def _sha(payload: object) -> str:
    blob = json.dumps(payload, sort_keys=True, default=str).encode()
    return hashlib.sha256(blob).hexdigest()


def case_record(name: str) -> dict:
    """Run one golden case and return its recorded figures."""
    overrides, tracer_kwargs = CASES[name]
    tracer = Tracer(**tracer_kwargs) if tracer_kwargs is not None else None
    report = long_context_summarization(
        duration_s=1.0, tracer=tracer, **overrides
    ).run()
    m = report.metrics
    record = {
        "modeled_digest": _sha(
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
        ),
        "plan_cache_stats": report.plan_cache_stats,
        "steps": len(m.step_records),
        "reshards": len(m.reshard_records),
    }
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

    def test_cases_exercise_the_memo_boundaries(self, golden):
        # Capacity 4 evicts inside every walk (nothing may be replayed);
        # capacity 20 both replays and evicts; the chaos cases
        # re-shard mid-run.
        assert golden["seed0-capacity4"]["plan_cache_stats"]["hits"] == 0
        mixed = golden["seed0-capacity20"]["plan_cache_stats"]
        assert mixed["hits"] > 0 and mixed["evictions"] > 0
        for name in ("chaos-2dev", "chaos-3dev", "traced-chaos-2dev"):
            assert golden[name]["reshards"] == 1


def _eviction_order(cache: LRUCache, keys: list) -> list:
    """The order ``cache`` evicts ``keys`` in as fresh keys arrive —
    its recency order, read through the public interface."""
    order = []
    for fresh in range(cache.capacity):
        cache.put(("fresh", fresh), None)
        order += [k for k in keys if k not in cache and k not in order]
    return order


class TestLRUCacheMemoSupport:
    def test_refresh_matches_gets(self):
        keys = ["a", "b", "c", "d"]
        by_get, by_refresh = LRUCache(4), LRUCache(4)
        for cache in (by_get, by_refresh):
            for key in keys:
                cache.put(key, key.upper())
        sequence = ["c", "a", "c", "d"]
        for key in sequence:
            by_get.get(key)
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
        cache.get("a")
        cache.get("missing")
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
        assert cache.get("k") is None
        assert (cache.stats.hits, cache.stats.misses) == (2, 1)
        assert cache.get("absent") is None
        assert (cache.stats.hits, cache.stats.misses) == (2, 2)


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
        original = server._modeled_model_walk

        def spy(entry, padded_rows, state, t_s):
            result = original(entry, padded_rows, state, t_s)
            walked.append((entry, padded_rows, t_s, result, state))
            return result

        server._modeled_model_walk = spy
        report = server.simulate(requests)
        assert len(report.metrics.reshard_records) == 1
        state = walked[-1][-1]
        overlay = state.overlay[scenario.model.lower()]
        registered = server.model(scenario.model.lower())
        assert not overlay.distributed and registered.distributed
        before = [w for w in walked if w[0] is registered]
        after = [w for w in walked if w[0] is overlay]
        assert before and after
        # The first overlay walk at each geometry is a fresh pricing:
        # a single-device walk has no per-device split or collective,
        # unlike every registered (sharded) walk at the same rows.
        for _, _, _, (total, _, per_device, comm), _ in after:
            assert per_device == () and comm == 0.0
            assert total > 0
        assert all(w[3][2] for w in before)
        # A faulted run prices every walk and keeps no memo.
        assert state.walk_memo == {}

    def test_reshard_stales_the_memo_in_a_replaying_run(self):
        # No injector, so walks replay; a fail-stop handled mid-run
        # clears the plan caches and installs an overlay entry.
        scenario = long_context_summarization(
            duration_s=0.3, seed=0, devices=2, resilience=True
        )
        server, _ = scenario.build_server()
        state = server._new_run_state(ServingMetrics())
        assert state.injector is None
        name = scenario.model.lower()
        registered = server._entry(name, state)
        sharded = server._modeled_model_walk(registered, 64, state, 0.0)
        stats = server.plan_cache.stats.snapshot()
        assert server._modeled_model_walk(registered, 64, state, 0.0) == (
            sharded
        )
        assert server.plan_cache.stats.hits - stats.hits == len(
            registered.layers
        )
        (memo,) = state.walk_memo.values()
        state.dead.add(1)
        server._handle_device_death(1, 0.1, state)
        assert not memo.current()
        overlay = server._entry(name, state)
        assert overlay is not registered and not overlay.distributed
        stats = server.plan_cache.stats.snapshot()
        total, _, per_device, comm = server._modeled_model_walk(
            overlay, 64, state, 0.2
        )
        # Priced afresh on the survivor: every layer misses the cleared
        # cache, and a single-device walk has no split or collective.
        assert server.plan_cache.stats.misses - stats.misses == len(
            overlay.layers
        )
        assert per_device == () and comm == 0.0 and total > 0
        assert sharded[2] and sharded[3] > 0.0
        assert any(m.entry is overlay for m in state.walk_memo.values())

    def test_repeat_walk_equals_fresh_pricing(self):
        # A replayed walk returns exactly what pricing the stack anew
        # through the per-layer launch path returns.
        scenario = long_context_summarization(duration_s=0.3, seed=0)
        server, _ = scenario.build_server()
        entry = server.model(scenario.model.lower())
        state = server._new_run_state(None)
        first = server._modeled_model_walk(entry, 64, state, 0.0)
        stats = server.plan_cache.stats.snapshot()
        second = server._modeled_model_walk(entry, 64, state, 0.0)
        assert second == first
        assert server.plan_cache.stats.hits - stats.hits == len(entry.layers)
        fresh_state = server._new_run_state(None)
        server.plan_cache.clear()
        assert server._modeled_model_walk(
            entry, 64, fresh_state, 0.0
        ) == first


if __name__ == "__main__":
    print(json.dumps({name: case_record(name) for name in CASES}, indent=2,
                     sort_keys=True))
