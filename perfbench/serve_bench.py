"""Serving workloads: closed-loop ``InferenceServer.simulate()`` calls.

Each operation builds a fresh server (timed as set-up) and replays one
open-loop arrival schedule, generated from the workload seed before any
timing starts, on the simulated clock.  Every report must reconcile
(no request silently lost, KV ledger drained and within budget) and
produce the same modeled digest as the run's first report.
"""

from __future__ import annotations

import dataclasses
import gc
import hashlib
import json
import os
from typing import Any, Callable

import numpy as np

import repro.serve.batcher
import repro.serve.queue
import repro.serve.server
from catalog import PER_LAYER, SERVE_LAYER_METRICS
from layerprof import LayerProfiler
from repro.core.api import NMSpMM
from repro.core.plan import ExecutionPlan
from repro.distributed.shard import ShardedHandle
from repro.errors import ReproError
from repro.faults.injector import FaultInjector
from repro.obs.tracer import Tracer
from repro.serve.batcher import ContinuousBatcher, DynamicBatcher
from repro.serve.cache import PlanCache
from repro.serve.loadgen import generate_requests
from repro.serve.model_exec.memory import DeviceMemoryModel
from repro.serve.model_exec.scenarios import long_context_summarization
from repro.serve.queue import RequestQueue
from repro.serve.scenarios import LlamaServingScenario
from repro.serve.server import InferenceServer, ServingReport
from repro.workloads.llama import get_llama_model, llama_layer_shapes
from runinfo import (
    HostReference,
    Metric,
    Outcome,
    call_metrics,
    median,
    peak_rss_metric,
    rss_mb,
    samples,
    setup_metrics,
    wall_s,
)
from tracefile import export_trace

__all__ = ["SERVE_WORKLOADS", "run_serve"]

MODEL_DURATION_S = 16.0
CHAOS_DURATION_S = 4.0
CHAOS_FAULTS = "launch:p=0.05;devfail:device=1,at=1.5;seed=3"
#: Timed operations whose set-up and ``simulate()`` the peak memory
#: covers: a fixed amount of work, so the figure does not depend on how
#: many operations a run's host speed allows.
PEAK_OPS = 3

QUEUE_METHODS = (
    "push", "requeue", "remove_where", "peek", "pop_next", "pop_upto",
    "total_rows", "oldest_arrival_s", "__len__", "__bool__",
)
DYNAMIC_METHODS = ("is_full", "deadline_s", "should_flush", "form_batch", "allocate_batch_id")
CONTINUOUS_METHODS = (
    "resident", "preempted", "resident_rows", "has_work", "refill",
    "preempt_entries", "form_step", "cancel_where", "advance",
)
MEMORY_METHODS = (
    "enforce", "weight_bytes", "kv_bytes", "resident_bytes", "free_bytes",
    "overflow_bytes", "fits", "kv_bytes_of", "add_weights", "reserve_kv",
    "grow_kv", "release_kv", "set_budget", "assert_within_budget",
    "reconcile", "summary",
)
INJECTOR_METHODS = ("launch_fails", "failed_devices", "note_failstop", "device_factor", "degraded_group")
#: Modules that call ``request_order_key`` through their own global.
ORDER_KEY_CALLERS = (repro.serve.queue, repro.serve.batcher, repro.serve.server)


@dataclasses.dataclass
class ServeSetup:
    """One serving workload: how to build its server and what to replay."""

    config: "dict[str, Any]"
    build: "Callable[[Tracer | None], InferenceServer]"
    requests: list
    #: Servers built back to back per ``setup_s`` sample, so a sample
    #: lasts tens of milliseconds.
    setup_batch: int
    #: The host reference kind for set-ups.  ``simulate()`` is pure
    #: Python on both workloads and uses the Python loop.
    setup_reference: str


def _model_workload(seed: int) -> ServeSetup:
    scenario = long_context_summarization(duration_s=MODEL_DURATION_S, seed=seed)
    _, sources = scenario.build_server()
    requests = generate_requests(
        sources, scenario.qps, scenario.duration_s, seed=seed,
        arrival=scenario.arrival, synthesize_activations=False,
    )

    def build(tracer: "Tracer | None") -> InferenceServer:
        return dataclasses.replace(scenario, tracer=tracer).build_server()[0]

    # Set-up synthesizes and prunes the executor's weights: it tracked
    # the gather loop (window-median variation 0.042 against 0.096 raw)
    # better than the Python loop (0.067).
    return ServeSetup(
        _describe(scenario, seed), build, requests, setup_batch=1, setup_reference="gather"
    )


def _chaos_workload(seed: int) -> ServeSetup:
    scenario = LlamaServingScenario.priority_tiered(
        qps=1500.0,
        duration_s=CHAOS_DURATION_S,
        continuous=True,
        decode_fraction=0.5,
        devices=2,
        shard="column",
        link="ethernet",
        faults=CHAOS_FAULTS,
        resilience=True,
        seed=seed,
    )
    _, sources = scenario.build_server()
    requests = generate_requests(
        sources, scenario.qps, scenario.duration_s, seed=seed,
        arrival=scenario.arrival, synthesize_activations=False,
    )
    (model,) = scenario.models
    shapes = {
        layer: (n, k)
        for layer, n, k in llama_layer_shapes(get_llama_model(model).scaled(scenario.scale))
    }
    n, k = shapes[scenario.layer]
    weights = np.random.default_rng([seed, 0xC4]).standard_normal((k, n)).astype(np.float32)
    registered = sources[0].model

    def build(tracer: "Tracer | None") -> InferenceServer:
        # The scenario's own build_server() also synthesizes weights;
        # here they exist already, so set-up times registration only.
        server = InferenceServer(
            policy=scenario.policy,
            plan_cache_capacity=scenario.plan_cache_capacity,
            execute_numerics=False,
            backend=scenario.backend,
            scheduling=scenario.scheduling,
            continuous_batching=scenario.continuous,
            host_overhead_s=scenario.host_overhead_s,
            devices=scenario.devices,
            shard=scenario.shard,
            link=scenario.link,
            tracer=tracer,
            faults=scenario.faults,
            resilience=scenario.resilience,
        )
        server.register_model(
            registered, weights, scenario.pattern, gpu=scenario.gpu, version=scenario.version
        )
        return server

    return ServeSetup(
        _describe(scenario, seed), build, requests, setup_batch=20, setup_reference="python"
    )


def _describe(scenario, seed: int) -> "dict[str, Any]":
    # describe() names the seed; the configuration fingerprint must not.
    return {"scenario": scenario.describe().replace(f"seed={seed}", "seed=<seed>")}


SERVE_WORKLOADS = {"serve-model": _model_workload, "serve-chaos": _chaos_workload}


# ----------------------------------------------------------------------
# Checks
# ----------------------------------------------------------------------
def modeled_digest(report: ServingReport) -> str:
    """Digest of everything the simulated clock decided."""
    m = report.metrics
    payload = {
        "requests": [
            (r.request.request_id, r.batch_id, repr(r.started_s), repr(r.finished_s), r.retries)
            for r in m.request_records
        ],
        "drops": [(d.request.request_id, d.outcome, d.retries) for d in m.drop_records],
        "launches": (len(m.batch_records), len(m.step_records)),
        "gpu_busy_s": repr(m.gpu_busy_s),
        "memory": m.memory,
    }
    blob = json.dumps(payload, sort_keys=True, default=str).encode()
    return hashlib.sha256(blob).hexdigest()


class ReportChecker:
    """Counts one operation per report and fails the wrong ones."""

    def __init__(self, outcome: Outcome):
        self.outcome = outcome
        self.digest: "str | None" = None

    def simulate(self, server: InferenceServer, requests: list) -> "tuple[ServingReport | None, float]":
        self.outcome.attempted += 1
        start = wall_s()
        try:
            report = server.simulate(requests)
        except ReproError as exc:
            self.outcome.fail(f"simulate() raised {exc!r}")
            return None, wall_s() - start
        took = wall_s() - start
        self.check(report)
        return report, took

    def check(self, report: ServingReport) -> None:
        try:
            report.metrics.reconcile()
            if report.memory_model is not None:
                report.memory_model.reconcile()
                report.memory_model.assert_within_budget()
        except ReproError as exc:
            self.outcome.fail(f"report does not reconcile: {exc}")
            return
        digest = modeled_digest(report)
        if self.digest is None:
            self.digest = digest
        elif digest != self.digest:
            self.outcome.fail("modeled digest differs from the run's first report")


def _launches(report: ServingReport) -> int:
    return len(report.metrics.batch_records) + len(report.metrics.step_records)


def _weight_bytes(server: InferenceServer) -> int:
    total = 0
    for name in server.model_names:
        entry = server.model(name)
        if entry.executor is not None:
            total += entry.executor.weight_bytes
        else:
            comp = entry.handle.compressed
            total += int(comp.values_bytes() + comp.indices_bytes())
    return total


# ----------------------------------------------------------------------
# Runs
# ----------------------------------------------------------------------
def run_serve(workload: str, seed: int, seconds: float, trace: bool, out_dir: str) -> Outcome:
    setup = SERVE_WORKLOADS[workload](seed)
    outcome = Outcome(config={
        **setup.config,
        "setup_batch": setup.setup_batch,
        "setup_reference": setup.setup_reference,
    })
    checker = ReportChecker(outcome)
    if trace:
        checker.simulate(setup.build(None), setup.requests)
        return _run_traced(workload, seed, seconds, out_dir, setup, checker)
    setup_reference = HostReference(setup.setup_reference)
    reference = HostReference("python")
    baseline_mb = rss_mb()
    # Warm-up: first-call costs (lazy imports, catalog parsing) stay
    # out of the timed operations.  Every report has the same modeled
    # digest, so the modeled figures are read from this one.
    warm, _ = checker.simulate(setup.build(None), setup.requests)
    modeled = {} if warm is None else _modeled_info(warm)
    warm = None
    setups, setup_ratios, sims, ratios = samples(), samples(), samples(), samples()
    launches = 0
    server = report = peak = None
    deadline = wall_s() + seconds
    while len(sims) < PEAK_OPS or wall_s() < deadline:
        # Only one server and one report are alive at a time.  Collecting
        # frees the last operation's reference cycles before the next
        # set-up, so the peak covers one operation's memory, not however
        # much garbage the collector's schedule happened to leave.
        server = report = None
        gc.collect()
        setup_reference.sample()
        start = wall_s()
        for _ in range(setup.setup_batch):
            server = None
            server = setup.build(None)
        took = (wall_s() - start) / setup.setup_batch
        setups.append(took)
        setup_ratios.append(setup_reference.ratio(took))
        reference.sample()
        report, took = checker.simulate(server, setup.requests)
        sims.append(took)
        ratios.append(reference.ratio(took))
        if report is not None:
            launches += _launches(report)
        if len(sims) == PEAK_OPS:
            peak = peak_rss_metric(baseline_mb)
    gated, info = call_metrics(sims, ratios, launches, "sim_steps_per_s", reference)
    setup_s, setup_raw = setup_metrics(setups, setup_ratios, setup_reference)
    outcome.metrics = {"setup_s": setup_s, **gated, "peak_rss_mb": peak}
    outcome.info = {
        **info,
        "setup_s_raw_p50": setup_raw,
        "failed_frac": Metric(outcome.failed_frac, "ratio", outcome.attempted),
        **modeled,
    }
    return outcome


def _modeled_info(report: ServingReport) -> "dict[str, Metric]":
    m = report.metrics
    return {
        "modeled_latency_p99_ms": Metric(m.latency().p99_ms, "ms", m.completed),
        "modeled_slo_goodput": Metric(m.slo_goodput or 0.0, "ratio", m.submitted),
    }


def _instrument(prof: LayerProfiler) -> None:
    prof.patch(InferenceServer, "simulate", lambda fn: prof.timed("serve.simulate", fn))
    prof.time_methods(RequestQueue, "serve.queue", QUEUE_METHODS)
    prof.time_methods(DynamicBatcher, "serve.batcher.dynamic", DYNAMIC_METHODS)
    prof.time_methods(ContinuousBatcher, "serve.batcher.continuous", CONTINUOUS_METHODS)
    prof.time_methods(PlanCache, "serve.plan_cache", ("lookup",))
    prof.time_methods(DeviceMemoryModel, "serve.model_exec.memory", MEMORY_METHODS)
    prof.time_methods(ShardedHandle, "distributed", ("collective",))
    prof.time_methods(FaultInjector, "faults.injector", INJECTOR_METHODS)
    for module in ORDER_KEY_CALLERS:
        prof.patch(
            module, "request_order_key",
            lambda fn: prof.counted("serve.scheduling.order_keys", fn),
        )
    prof.patch(ExecutionPlan, "simulate", lambda fn: prof.counted("model.simulate_calls", fn))


def _run_traced(
    workload: str, seed: int, seconds: float, out_dir: str,
    setup: ServeSetup, checker: ReportChecker,
) -> Outcome:
    outcome = checker.outcome
    prepare = LayerProfiler()
    with prepare.installed():
        prepare.patch(NMSpMM, "prepare", lambda fn: prepare.timed("sparsity.prepare", fn))
        server = setup.build(None)
    weight_bytes = _weight_bytes(server)

    tracer = Tracer()
    prof = LayerProfiler(tracer)
    plain: list[float] = []
    engine_traced: list[float] = []
    wrapped: list[float] = []
    report = None
    deadline = wall_s() + seconds
    # Alternate the three variants so host drift hits each alike.
    while len(plain) < 2 or wall_s() < deadline:
        plain.append(checker.simulate(setup.build(None), setup.requests)[1])
        engine_traced.append(checker.simulate(setup.build(Tracer()), setup.requests)[1])
        server = setup.build(None)
        with prof.installed():
            _instrument(prof)
            report, took = checker.simulate(server, setup.requests)
        wrapped.append(took)
    rounds = len(wrapped)
    ms = 1e3 / rounds

    values: dict[str, float] = {
        "serve.simulate_ms": prof.total_s("serve.simulate") * ms,
        "serve.engine_self_ms": prof.self_s("serve.simulate") * ms,
        "serve.queue_ms": prof.self_s("serve.queue") * ms,
        "serve.scheduling.order_keys": prof.counts["serve.scheduling.order_keys"] / rounds,
        "serve.batcher_ms": prof.self_s("serve.batcher") * ms,
        "serve.plan_cache.lookups": prof.calls("serve.plan_cache.lookup") / rounds,
        "serve.plan_cache.lookup_ms": prof.self_s("serve.plan_cache") * ms,
        "model.simulate_calls": prof.counts["model.simulate_calls"] / rounds,
        "serve.model_exec.memory_ms": prof.self_s("serve.model_exec.memory") * ms,
        "distributed.collective_ms": prof.self_s("distributed.collective") * ms,
        "faults.injector_ms": prof.self_s("faults.injector") * ms,
        "obs.trace_overhead": median(engine_traced) / median(plain),
        "bench.wrap_overhead": median(wrapped) / median(plain),
        "sparsity.prepare_s": prepare.total_s("sparsity.prepare"),
        "sparsity.weight_bytes": float(weight_bytes),
    }
    values["serve.queue_share"] = values["serve.queue_ms"] / values["serve.simulate_ms"]
    if report is not None:
        m = report.metrics
        cache = report.plan_cache_stats
        memory = m.memory or {}
        values.update({
            "serve.plan_cache.hit_rate": cache["hits"] / max(1, cache["hits"] + cache["misses"]),
            "serve.model_exec.kv_evictions": float(m.kv_evictions),
            "serve.model_exec.peak_utilization": float(memory.get("peak_utilization", 0.0)),
            "faults.launch_faults": float(m.launch_faults),
            "serve.resilience.retries": float(m.total_retries),
            "serve.resilience.reshards": float(len(m.reshard_records)),
            "serve.launches": float(_launches(report)),
            "serve.steps": float(len(m.step_records)),
            "serve.preemptions": float(m.continuous_preemptions),
        })
    outcome.metrics = {
        name: Metric(values.get(name, 0.0), PER_LAYER[name][0]) for name in SERVE_LAYER_METRICS
    }
    outcome.info["simulate_ms_p50_untraced"] = Metric(median(plain) * 1e3, "ms", len(plain))
    outcome.info["simulate_ms_p50_engine_tracer"] = Metric(median(engine_traced) * 1e3, "ms", rounds)
    outcome.info["simulate_ms_p50_wrapped"] = Metric(median(wrapped) * 1e3, "ms", rounds)
    export_trace(tracer, os.path.join(out_dir, f"{workload}-seed{seed}.trace.json"), outcome)
    return outcome
