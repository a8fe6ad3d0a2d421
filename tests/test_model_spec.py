"""Model-mode serving priced from layer shapes.

A :class:`ModelSpec` computes every layer's padded shapes, compressed
bytes and shard geometry by pattern arithmetic; these must equal what
a built :class:`ModelExecutor` holds.  An untraced model-mode server
built from a spec prunes no weight and derives no analytic trace; a
traced one builds the weights once, for its first packing trace.
"""

from __future__ import annotations

import gc
import weakref
from unittest import mock

import pytest
import test_walk_memo

from repro.core.api import NMSpMM
from repro.core.plan import ExecutionPlan
from repro.distributed.shard import shard_handle
from repro.obs import Tracer
from repro.serve.loadgen import generate_requests
from repro.serve.model_exec import (
    ModelExecutor,
    ModelSpec,
    long_context_summarization,
)
from repro.sparsity.config import NMPattern
from repro.workloads.llama import LLAMA_MODELS

PATTERNS = {
    "2:4xL4": NMPattern(2, 4, vector_length=4),
    "2:8xL8": NMPattern(2, 8, vector_length=8),
    "8:32xL32": NMPattern(8, 32, vector_length=32),
}
MODELS = [model.name for model in LLAMA_MODELS]


def _built_bytes(handle) -> int:
    comp = handle.compressed
    return int(comp.values_bytes() + comp.indices_bytes())


@pytest.mark.parametrize("pattern", sorted(PATTERNS))
@pytest.mark.parametrize("scale", [8, 16, 32])
@pytest.mark.parametrize("model", MODELS)
def test_closed_form_matches_built_weights(model, scale, pattern):
    kwargs = dict(scale=scale, blocks=1, pattern=PATTERNS[pattern])
    spec = ModelSpec(model, **kwargs)
    built = ModelExecutor(model, **kwargs)
    assert [s.name for s in spec.layers] == [s.name for s in built.layers]
    for shape, hosted in zip(spec.layers, built.layers, strict=True):
        handle = hosted.layer.handle
        assert (shape.k, shape.n) == (handle.k, handle.n)
        assert (shape.k_logical, shape.n_logical) == (
            handle.k_logical, handle.n_logical,
        )
        assert shape.weight_bytes == _built_bytes(handle)
        for devices in (2, 3):
            for mode in ("column", "row"):
                got = shape.shard(devices, mode).shards
                want = shard_handle(handle, devices, mode).shards
                assert [
                    (s.start, s.stop, s.handle.n, s.handle.k, s.handle.weight_bytes)
                    for s in got
                ] == [
                    (s.start, s.stop, s.handle.n, s.handle.k, _built_bytes(s.handle))
                    for s in want
                ]
    assert spec.weight_bytes == sum(
        _built_bytes(s.layer.handle) for s in built.layers
    )
    assert spec.kv_bytes_per_token == built.kv_bytes_per_token
    for tokens in (1, 7, 64, 300):
        # The price the executor's own handles give, plan by plan.
        want = sum(
            s.layer.op.plan_for(tokens, s.layer.handle).simulate().seconds
            for s in built.layers
        )
        assert spec.modeled_prefill_s(tokens) == want


def test_built_executor_is_cached():
    # Bits: tests/test_weight_storage.py pins build_executor(), which is
    # build_spec().built().
    spec = ModelSpec("llama-7b", scale=32, blocks=1)
    built = spec.built()
    assert spec.built() is built and built.built() is built


def test_dropped_models_free_without_a_collection():
    # The forward benchmark builds executors back to back: a reference
    # cycle would keep the last one's weights alive beside the next.
    gc.disable()
    try:
        executor = ModelExecutor("llama-7b", scale=32, blocks=1)
        spec = ModelSpec("llama-7b", scale=32, blocks=1)
        refs = [weakref.ref(executor), weakref.ref(spec), weakref.ref(spec.built())]
        del executor, spec
        assert [ref() for ref in refs] == [None, None, None]
    finally:
        gc.enable()


class _Counts:
    """Calls of ``NMSpMM.prepare`` and ``ExecutionPlan.analytic_trace``
    made inside the context."""

    def __enter__(self):
        self.prepare = self.trace = 0
        prepare, trace = NMSpMM.prepare, ExecutionPlan.analytic_trace

        def counted_prepare(op, b):
            self.prepare += 1
            return prepare(op, b)

        def counted_trace(plan, *args, **kwargs):
            self.trace += 1
            return trace(plan, *args, **kwargs)

        self._patches = [
            mock.patch.object(NMSpMM, "prepare", counted_prepare),
            mock.patch.object(ExecutionPlan, "analytic_trace", counted_trace),
        ]
        for patch in self._patches:
            patch.start()
        return self

    def __exit__(self, *exc):
        for patch in self._patches:
            patch.stop()


@pytest.mark.parametrize(
    "overrides",
    [
        dict(seed=0),
        dict(seed=0, devices=2, shard="row"),
        dict(seed=0, devices=2, faults="devfail:device=1,at=0.2", resilience=True),
    ],
    ids=["1dev", "row2", "col2-reshard"],
)
def test_untraced_server_builds_no_weights(overrides):
    scenario = long_context_summarization(duration_s=0.5, **overrides)
    with _Counts() as counts:
        server, sources = scenario.build_server()
        report = server.simulate(
            generate_requests(
                sources, scenario.qps, scenario.duration_s,
                seed=scenario.seed, arrival=scenario.arrival,
                synthesize_activations=False,
            )
        )
    assert report.metrics.step_records
    assert (counts.prepare, counts.trace) == (0, 0)


@pytest.mark.parametrize(
    "name",
    sorted(
        name for name, (factory, _, tracer) in test_walk_memo.CASES.items()
        if tracer is not None and factory is test_walk_memo.model
    ),
)
def test_traced_golden_case_builds_weights_once(name):
    # The golden digests pin these runs' traces bit for bit; here the
    # same runs must prepare each layer once: one build per server.
    _, overrides, tracer_kwargs = test_walk_memo.CASES[name]
    scenario = test_walk_memo.model(tracer=Tracer(**tracer_kwargs), **overrides)
    with _Counts() as counts:
        scenario.run()
    assert counts.prepare == len(scenario.build_spec().layers)
    assert counts.trace > 0
