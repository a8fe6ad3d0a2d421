"""Forward workloads: closed-loop ``ModelExecutor.logits()`` calls.

One caller issues the next call when the last one returns.  Weights
come from the executor's seed and activations from a pool drawn from
the workload seed before any timing starts; the leading rows of every
output are compared with a dense NumPy walk over the same pruned
weights.
"""

from __future__ import annotations

import math
import os
from array import array
from typing import Any

import numpy as np

from catalog import FORWARD_KINDS, FORWARD_LAYER_METRICS, PER_LAYER, PICK_BACKENDS
from layerprof import LayerProfiler
from repro.backends import AutoSelector, available_backends, get_backend
from repro.core.api import NMSpMM
from repro.distributed.shard import shard_handle
from repro.nn.linear import NMSparseLinear
from repro.nn.mlp import relu
from repro.obs.tracer import Tracer
from repro.serve.model_exec.executor import ModelExecutor
from repro.sparsity.config import NMPattern
from repro.workloads.llama import get_llama_model
from runinfo import (
    BLOCK_S,
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

__all__ = ["FORWARD_ROWS", "run_forward"]

#: Activation rows per ``logits()`` call.
FORWARD_ROWS = {"forward-decode": 1, "forward-prefill": 256}
#: The host reference for set-ups and calls.  Both stream weights
#: through memory (even at m=1 every call reads every layer's values),
#: and the gather loop tracked them best: the coefficient of variation
#: of 10 s window medians over 120 s fell from 0.081 raw to 0.026 on
#: decode calls and from 0.061 to 0.027 on set-ups, where the Python
#: loop left 0.075 and 0.064.
REFERENCE = "gather"

EXECUTOR = {"model": "llama-7b", "scale": 8, "blocks": 2}
PATTERN = (2, 8, 8)  # N, M, vector length L
#: Distinct activation matrices the loop cycles through.
POOL = 8
#: Leading rows of each output compared with the dense reference; the
#: walk is row-wise, so they need only those rows of the input.
CHECK_ROWS = 8
#: Executor constructions per run; ``setup_s`` is their median.
SETUP_REPEATS = 8
WARMUP_CALLS = 3
#: Alternations of unwrapped and wrapped stretches in a traced run.
TRACE_ROUNDS = 4
#: ``allclose`` tolerances for float32 outputs against the dense walk.
RTOL, ATOL = 1e-3, 1e-4
#: Bounds on each backend's timed calls in the untimed race.
RACE_MIN_REPS, RACE_MAX_REPS, RACE_BUDGET_S = 3, 40, 0.15


def forward_config(workload: str) -> "dict[str, Any]":
    return {
        **EXECUTOR,
        "pattern": PATTERN,
        "rows": FORWARD_ROWS[workload],
        "pool": POOL,
        "check_rows": CHECK_ROWS,
        "setup_repeats": SETUP_REPEATS,
        "reference": REFERENCE,
        "rtol": RTOL,
        "atol": ATOL,
    }


def build_executor(seed: int) -> ModelExecutor:
    n, m, ell = PATTERN
    return ModelExecutor(
        EXECUTOR["model"],
        scale=EXECUTOR["scale"],
        blocks=EXECUTOR["blocks"],
        pattern=NMPattern(n, m, vector_length=ell),
        seed=seed,
    )


def input_pool(workload: str, seed: int) -> "list[np.ndarray]":
    """The activations the loop cycles through, drawn from the seed."""
    hidden = get_llama_model(EXECUTOR["model"]).scaled(EXECUTOR["scale"]).hidden
    rng = np.random.default_rng([seed, 0xF0])
    return [
        rng.standard_normal((FORWARD_ROWS[workload], hidden)).astype(np.float32)
        for _ in range(POOL)
    ]


def dense_logits(executor: ModelExecutor, x: np.ndarray) -> np.ndarray:
    """Reference forward: the executor's walk with a dense GEMM over
    each layer's pruned weights, built and dropped one layer at a time."""

    def gemm(name: str, a: np.ndarray) -> np.ndarray:
        layer = executor.layer(name).layer
        return a @ layer.handle.dense()[: layer.in_features, : layer.out_features]

    h = executor.hidden
    for b in range(executor.blocks):
        qkv = gemm(f"block{b}/attn-qkv-fused", x)
        x = x + gemm(f"block{b}/attn-qkvo", qkv[:, :h])
        x = x + gemm(f"block{b}/mlp-down", relu(gemm(f"block{b}/mlp-gate-up", x)))
    return gemm("lm-head", x)


def reference_logits(executor: ModelExecutor, pool: "list[np.ndarray]") -> "list[np.ndarray]":
    """The dense reference for the first :data:`CHECK_ROWS` rows of
    each pool entry, in one walk."""
    heads = [x[:CHECK_ROWS] for x in pool]
    out = dense_logits(executor, np.concatenate(heads))
    bounds = np.cumsum([len(x) for x in heads])[:-1]
    return np.split(out, bounds)


def check_logits(out: np.ndarray, ref: np.ndarray) -> "str | None":
    """Why ``out`` is wrong, or ``None`` when its leading rows match ``ref``."""
    if out.ndim != 2 or out.shape[1] != ref.shape[1] or len(out) < len(ref):
        return f"logits shape {out.shape} does not hold the reference's {ref.shape}"
    head = out[: len(ref)]
    if not np.allclose(head, ref, rtol=RTOL, atol=ATOL * max(1.0, float(np.abs(ref).max()))):
        worst = float(np.abs(head - ref).max())
        return f"logits differ from the dense reference by up to {worst:.3g}"
    return None


def warm_up(executor: ModelExecutor, pool: "list[np.ndarray]") -> None:
    """First-call costs (plan building, selector memos) stay out of the
    timed calls."""
    for i in range(WARMUP_CALLS):
        executor.logits(pool[i % len(pool)])


def _closed_loop(
    executor: ModelExecutor,
    pool: "list[np.ndarray]",
    refs: "list[np.ndarray]",
    seconds: float,
    outcome: Outcome,
) -> "array[float]":
    """Call ``logits()`` back to back for ``seconds`` (at least once);
    return per-call wall seconds and count every wrong output in
    ``outcome``."""
    durations = samples()
    deadline = wall_s() + seconds
    while not durations or wall_s() < deadline:
        i = outcome.attempted % len(pool)
        start = wall_s()
        out = executor.logits(pool[i])
        durations.append(wall_s() - start)
        outcome.attempted += 1
        problem = check_logits(out, refs[i])
        if problem is not None:
            outcome.fail(problem)
    return durations


def run_forward(workload: str, seed: int, seconds: float, trace: bool, out_dir: str) -> Outcome:
    rows = FORWARD_ROWS[workload]
    outcome = Outcome(config=forward_config(workload))
    pool = input_pool(workload, seed)
    if trace:
        return _run_traced(workload, seed, seconds, out_dir, pool, outcome)
    reference = HostReference(REFERENCE)
    baseline_mb = rss_mb()
    # Each set-up builds the executor the next stretch of calls uses, so
    # set-ups sample the same host conditions as the calls and only one
    # executor is alive at a time.
    executor = refs = peak = None
    setups, setup_ratios, durations, ratios = samples(), samples(), samples(), samples()
    for _ in range(SETUP_REPEATS):
        executor = None
        reference.sample()
        start = wall_s()
        executor = build_executor(seed)
        took = wall_s() - start
        setups.append(took)
        setup_ratios.append(reference.ratio(took))
        if refs is None:
            refs = reference_logits(executor, pool)
        warm_up(executor, pool)
        reference.sample()
        stretch_end = wall_s() + seconds / SETUP_REPEATS
        while True:
            block = _closed_loop(executor, pool, refs, BLOCK_S, outcome)
            durations += block
            ratios.append(reference.ratio(sum(block) / len(block)))
            if wall_s() >= stretch_end:
                break
        if peak is None:
            # Later stretches repeat the same set-up and calls; reading
            # the peak after a fixed amount of work keeps it independent
            # of how many calls a run's host speed allows.
            peak = peak_rss_metric(baseline_mb)
    gated, info = call_metrics(durations, ratios, rows * len(durations), "forward_tokens_per_s", reference)
    setup_s, setup_raw = setup_metrics(setups, setup_ratios, reference)
    outcome.metrics = {"setup_s": setup_s, **gated, "peak_rss_mb": peak}
    outcome.info = {
        **info,
        "setup_s_raw_p50": setup_raw,
        "modeled_forward_us": Metric(executor.stack_seconds(rows) * 1e6, "us"),
        "failed_frac": Metric(outcome.failed_frac, "ratio", outcome.attempted),
    }
    return outcome


# ----------------------------------------------------------------------
# Traced run
# ----------------------------------------------------------------------
def _kind_of(executor: ModelExecutor) -> "dict[int, str]":
    return {id(spec.layer): spec.kind for spec in executor.layers}


def _instrument(prof: LayerProfiler, kinds: "dict[int, str]") -> None:
    prof.patch(ModelExecutor, "logits", lambda fn: prof.timed("serve.model_exec.logits", fn))
    prof.patch(
        NMSparseLinear,
        "__call__",
        lambda fn: prof.timed(lambda layer, *_: f"nn.forward.{kinds[id(layer)]}", fn, keep=True),
    )
    prof.patch(NMSpMM, "execute", lambda fn: prof.timed("core.execute", fn))
    prof.patch(AutoSelector, "explain", lambda fn: prof.timed("backends.select", fn))
    for backend in available_backends():
        label = f"backends.{backend.name}.run"
        prof.patch(backend, "run", lambda fn, label=label: prof.timed(label, fn))


def _layer_inputs(executor: ModelExecutor, x: np.ndarray) -> "dict[str, np.ndarray]":
    """The activation each layer receives during one forward of ``x``."""
    seen: dict[int, np.ndarray] = {}
    prof = LayerProfiler()

    def capture(fn):
        def call(layer, a):
            seen[id(layer)] = a
            return fn(layer, a)
        return call

    with prof.installed():
        prof.patch(NMSparseLinear, "__call__", capture)
        executor.logits(x)
    return {spec.name: seen[id(spec.layer)] for spec in executor.layers}


def _time_call(fn) -> float:
    """Median seconds of ``fn()`` over a small adaptive repeat count."""
    fn()
    times: list[float] = []
    spent = 0.0
    while len(times) < RACE_MAX_REPS and (len(times) < RACE_MIN_REPS or spent < RACE_BUDGET_S):
        start = wall_s()
        fn()
        took = wall_s() - start
        times.append(took)
        spent += took
    return median(times)


def _representative(executor: ModelExecutor, kind: str):
    name = kind if kind == "lm-head" else f"block0/{kind}"
    return executor.layer(name)


def _operand_costs(handle, backend: str, m: int) -> "tuple[int, int]":
    """``(MACs, bytes)`` one call of ``backend`` performs, computed from
    tensor sizes (float32 operands, stored index width)."""
    comp = handle.compressed
    k, n, w, q = comp.k, comp.n, comp.w, comp.q
    sparse_b = int(comp.values_bytes() + comp.indices_bytes())
    io = 4 * m * (k + n)  # read A, write C
    if backend == "dense_scatter":
        # Scatter B to dense (write) and read it back in the SGEMM.
        return m * k * n, io + sparse_b + 2 * 4 * k * n
    if backend == "sharded":
        sharded = get_backend("sharded")
        shards = shard_handle(handle, sharded.group.devices, sharded.shard).shards
        macs = byte_count = 0
        for shard in shards:
            shard_macs, shard_bytes = _operand_costs(shard.handle, "fast", m)
            macs += shard_macs
            byte_count += shard_bytes
        return macs, byte_count
    # Gather-GEMM: A^T rows gathered into a (q, w, m) operand, written
    # then read by the batched matmul.
    return m * w * n, io + sparse_b + 2 * 4 * q * w * m


def _race(executor: ModelExecutor, inputs: "dict[str, np.ndarray]", rows: int) -> "dict[str, float]":
    """Untimed per-kind race of every fast numerics backend and a dense
    GEMM: regret and vs-dense ratios, and the per-forward work of the
    backends ``auto`` picks."""
    values: dict[str, float] = {}
    regrets, vs_dense = [], []
    macs = byte_count = 0
    for spec in executor.layers:
        op, handle = spec.layer.op, spec.layer.handle
        request = op.build_request(inputs[spec.name], handle)
        pick = op.selector.explain_uncached(request).backend
        spec_macs, spec_bytes = _operand_costs(handle, pick, rows)
        macs += spec_macs
        byte_count += spec_bytes
    for kind in FORWARD_KINDS:
        spec = _representative(executor, kind)
        op, handle = spec.layer.op, spec.layer.handle
        x = inputs[spec.name]
        request = op.build_request(x, handle)
        pick = op.selector.explain_uncached(request).backend
        times = {}
        for backend in available_backends():
            # The structural executors record traces; auto never races
            # them for numerics.
            if backend.name == "structural" or backend.supports(request) is not True:
                continue
            times[backend.name] = _time_call(
                lambda name=backend.name: op.execute(x, handle, backend=name)
            )
        dense = np.ascontiguousarray(
            handle.dense()[: spec.layer.in_features, : spec.layer.out_features]
        )
        dense_s = _time_call(lambda: x @ dense)
        regret = times[pick] / min(times.values())
        ratio = times[pick] / dense_s
        values[f"backends.regret.{kind}"] = regret
        values[f"kernels.vs_dense.{kind}"] = ratio
        regrets.append(regret)
        vs_dense.append(ratio)
    values["backends.regret_geomean"] = math.exp(sum(map(math.log, regrets)) / len(regrets))
    values["kernels.vs_dense_geomean"] = math.exp(sum(map(math.log, vs_dense)) / len(vs_dense))
    values["kernels.macs_per_forward"] = float(macs)
    values["kernels.bytes_per_forward"] = float(byte_count)
    return values


def _memo_counts(executor: ModelExecutor) -> "tuple[int, int]":
    hits = misses = 0
    for spec in executor.layers:
        stats = spec.layer.op.selector.memo_stats
        hits += stats.hits
        misses += stats.misses
    return hits, misses


def _run_traced(
    workload: str, seed: int, seconds: float, out_dir: str,
    pool: "list[np.ndarray]", outcome: Outcome,
) -> Outcome:
    rows = FORWARD_ROWS[workload]
    tracer = Tracer()
    setup_prof = LayerProfiler()
    executor = None
    with setup_prof.installed():
        setup_prof.patch(NMSpMM, "prepare", lambda fn: setup_prof.timed("sparsity.prepare", fn))
        for _ in range(SETUP_REPEATS):
            executor = None
            executor = build_executor(seed)
    refs = reference_logits(executor, pool)
    warm_up(executor, pool)

    prof = LayerProfiler(tracer)
    kinds = _kind_of(executor)
    plain: list[float] = []
    traced: list[float] = []
    hits = misses = 0
    # Alternate unwrapped and wrapped stretches so host drift hits both.
    for _ in range(TRACE_ROUNDS):
        plain += _closed_loop(executor, pool, refs, seconds / (4 * TRACE_ROUNDS), outcome)
        memo_before = _memo_counts(executor)
        with prof.installed():
            _instrument(prof, kinds)
            traced += _closed_loop(executor, pool, refs, seconds / (2 * TRACE_ROUNDS), outcome)
        memo_after = _memo_counts(executor)
        hits += memo_after[0] - memo_before[0]
        misses += memo_after[1] - memo_before[1]
    forwards = len(traced)

    values: dict[str, float] = {}
    for kind in FORWARD_KINDS:
        layer_s = median(prof.durations[f"nn.forward.{kind}"])
        spec = _representative(executor, kind)
        modeled_s = spec.layer.op.plan_for(rows, spec.layer.handle).simulate().seconds
        values[f"nn.layer_ms.{kind}"] = layer_s * 1e3
        values[f"nn.host_over_modeled.{kind}"] = layer_s / modeled_s
        outcome.info[f"nn.modeled_us.{kind}"] = Metric(modeled_s * 1e6, "us")
    executes = prof.calls("core.execute")
    backend_runs_s = sum(prof.total_s(f"backends.{b.name}.run") for b in available_backends())
    values["core.facade_us"] = (prof.total_s("core.execute") - backend_runs_s) / executes * 1e6
    values["backends.select_us"] = prof.total_s("backends.select") / max(1, prof.calls("backends.select")) * 1e6
    values["backends.memo_hit_rate"] = hits / max(1, hits + misses)
    for name in PICK_BACKENDS:
        values[f"backends.picks.{name}"] = prof.calls(f"backends.{name}.run") / forwards
    values.update(_race(executor, _layer_inputs(executor, pool[0]), rows))
    values["sparsity.prepare_s"] = setup_prof.total_s("sparsity.prepare") / SETUP_REPEATS
    values["sparsity.weight_bytes"] = float(executor.weight_bytes)
    values["bench.wrap_overhead"] = median(traced) / median(plain)

    outcome.metrics = {
        name: Metric(values[name], PER_LAYER[name][0]) for name in FORWARD_LAYER_METRICS
    }
    outcome.info["forward_ms_p50_traced"] = Metric(median(traced) * 1e3, "ms", forwards)
    outcome.info["forward_ms_p50_untraced"] = Metric(median(plain) * 1e3, "ms", len(plain))
    export_trace(tracer, os.path.join(out_dir, f"{workload}-seed{seed}.trace.json"), outcome)
    return outcome

