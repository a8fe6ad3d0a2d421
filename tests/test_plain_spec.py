"""Plain serving entries priced from their shape.

Every server registers each plain weight matrix as a
:class:`~repro.serve.model_exec.executor.LayerSpec` of its ``(k, n)``:
its padded shapes, compressed bytes and shard geometry are pattern
arithmetic, and its weights are prepared only when something reads
them (numerics, or a traced packing plan), bit for bit as an eager
``prepare`` would.
"""

from __future__ import annotations

import weakref
from unittest import mock

import numpy as np
import pytest
from test_model_spec import PATTERNS, _Counts

from repro.core.api import NMSpMM
from repro.distributed.shard import shard_handle
from repro.errors import ShapeError, ShardError
from repro.obs import Tracer
from repro.serve import InferenceServer
from repro.serve.loadgen import TrafficSource, generate_requests
from repro.serve.model_exec import ModelServingScenario
from repro.serve.model_exec.executor import LayerSpec
from repro.serve.scenarios import LlamaServingScenario

SHAPES = [(50, 45), (256, 256), (1376, 512)]
NMPATTERN = PATTERNS["2:4xL4"]
_default_rng = np.random.default_rng


def _modeled(weights, pattern, **server_kwargs):
    server = InferenceServer(execute_numerics=False, **server_kwargs)
    return server.register_model("m", weights, pattern).handle


def _bits(handle) -> tuple:
    comp = handle.compressed
    return (
        handle.k_logical, handle.n_logical, comp.k, comp.n,
        comp.blocks.dtype.str, comp.blocks.tobytes(),
        comp.indices.dtype.str, comp.indices.tobytes(),
    )


def _shards(sharded) -> list:
    return [(s.start, s.stop, s.handle.n, s.handle.k) for s in sharded.shards]


@pytest.mark.parametrize("shape", SHAPES, ids=lambda s: f"{s[0]}x{s[1]}")
@pytest.mark.parametrize("pattern", sorted(PATTERNS))
def test_closed_form_matches_prepared_weights(pattern, shape):
    weights = np.random.default_rng(5).standard_normal(shape).astype(np.float32)
    spec = _modeled(weights, PATTERNS[pattern])
    handle = NMSpMM(PATTERNS[pattern]).prepare(weights)
    assert isinstance(spec, LayerSpec)
    assert (spec.k, spec.n, spec.k_logical, spec.n_logical) == (
        handle.k, handle.n, handle.k_logical, handle.n_logical,
    )
    assert spec.weight_bytes == handle.compressed.total_bytes()
    for devices in (2, 3):
        for mode in ("column", "row"):
            try:
                want = _shards(shard_handle(handle, devices, mode))
            except ShardError as exc:
                with pytest.raises(ShardError) as got:
                    spec.shard(devices, mode)
                assert str(got.value) == str(exc)
                continue
            assert _shards(spec.shard(devices, mode)) == want


BAD_WEIGHTS = {
    "empty": np.zeros((0, 32), dtype=np.float32),
    "1-D": np.ones(8, dtype=np.float32),
    "3-D": np.ones((2, 8, 8), dtype=np.float32),
    "complex": np.ones((8, 8), dtype=np.complex64),
    "bool": np.ones((8, 8), dtype=bool),
    "object": np.ones((8, 8), dtype=object),
}


@pytest.mark.parametrize("name", sorted(BAD_WEIGHTS))
def test_modeled_and_numerics_servers_reject_alike(name):
    messages = []
    for server in (
        InferenceServer(execute_numerics=False),
        InferenceServer(),
        InferenceServer(execute_numerics=False, tracer=Tracer()),
    ):
        with pytest.raises(ShapeError) as exc:
            server.register_model("m", BAD_WEIGHTS[name], NMPATTERN)
        assert not server.model_names
        messages.append(str(exc.value))
    assert len(set(messages)) == 1
    assert "\n" not in messages[0] and messages[0].startswith("weights must ")


class _CountingRng:
    """A seeded generator that counts its weight-sized draws."""

    def __init__(self, counts: list, *args, **kwargs):
        self._rng = _default_rng(*args, **kwargs)
        self._counts = counts

    def standard_normal(self, *args, **kwargs):
        self._counts.append("standard_normal")
        return self._rng.standard_normal(*args, **kwargs)

    def integers(self, *args, **kwargs):
        self._counts.append("integers")
        return self._rng.integers(*args, **kwargs)

    def __getattr__(self, name):
        return getattr(self._rng, name)


def _scenario(**overrides) -> LlamaServingScenario:
    kwargs = dict(
        models=("llama-7b", "llama-13b"), qps=60.0, duration_s=0.2,
        execute_numerics=False, devices=2, shard="column",
        faults="devfail:device=1,at=0.1", resilience=True,
    )
    return LlamaServingScenario(**{**kwargs, **overrides})


def _requests(scenario, sources, numerics=False):
    return generate_requests(
        sources, scenario.qps, scenario.duration_s, seed=scenario.seed,
        synthesize_activations=numerics,
    )


class TestModeledServerBuildsNoWeights:
    def test_scenario_build_and_simulate(self):
        scenario = _scenario()
        _, sources = scenario.build_server()
        requests = _requests(scenario, sources)
        draws: list = []
        factory = lambda *a, **k: _CountingRng(draws, *a, **k)  # noqa: E731
        with _Counts() as counts, mock.patch.object(np.random, "default_rng", factory):
            server, _ = scenario.build_server()
            report = server.simulate(requests)
        assert report.metrics.reshard_records  # the re-shard reads the payload
        assert (counts.prepare, counts.trace, draws) == (0, 0, [])

    def test_direct_registration(self):
        weights = np.ones((64, 32), dtype=np.float32)
        with _Counts() as counts:
            _modeled(weights, NMPATTERN, devices=2)
        assert counts.prepare == 0


@pytest.mark.parametrize(
    "overrides",
    [dict(execute_numerics=True), dict(tracer=Tracer()), dict()],
    ids=["numerics", "traced", "modeled"],
)
def test_servers_prepare_each_entry_at_most_once_on_first_read(overrides):
    scenario = _scenario(**overrides)
    prepared: list = []
    prepare = NMSpMM.prepare

    def counted(op, b):
        prepared.append(op)
        return prepare(op, b)

    with mock.patch.object(NMSpMM, "prepare", counted):
        server, sources = scenario.build_server()
        assert prepared == []
        server.simulate(_requests(scenario, sources, scenario.execute_numerics))
    ops = [server.model(name).op for name in server.model_names]
    assert all(prepared.count(op) <= 1 for op in ops)
    assert len(prepared) == len({id(op) for op in prepared})
    if scenario.execute_numerics:
        assert len(prepared) == len(ops)
    elif scenario.tracer is None:
        assert prepared == []


class TestServedNumerics:
    @pytest.mark.parametrize(
        "devices, mode", [(1, "column"), (2, "column"), (2, "row")]
    )
    def test_outputs_equal_execute_on_the_prepared_weights(self, devices, mode):
        # Small integers keep every sum exact, so sharded and single
        # execution agree bit for bit.
        weights = np.random.default_rng(8).integers(-4, 5, size=(96, 40))
        server = InferenceServer(devices=devices, shard=mode)
        entry = server.register_model("m", weights, NMPATTERN)
        sources = [TrafficSource(model="m", k=entry.k, rows_choices=(1, 3, 8))]
        requests = generate_requests(
            sources, 200.0, 0.05, seed=2, integer_values=True
        )
        records = server.simulate(requests).metrics.request_records
        assert records
        handle = entry.handle.weights()
        for record in records:
            np.testing.assert_array_equal(
                record.output, entry.op.execute(record.request.a, handle)
            )

    def test_first_read_drops_the_dense_copy(self):
        copies = []
        plain = LayerSpec.plain

        def spy(name, op, k, n, draw):
            copies.append(weakref.ref(draw()))
            return plain(name, op, k, n, draw)

        weights = np.random.default_rng(9).standard_normal((96, 40))
        with mock.patch.object(LayerSpec, "plain", spy):
            entry = InferenceServer().register_model("m", weights, NMPATTERN)
        (copy,) = copies
        assert copy() is not None and copy() is not weights
        handle = entry.handle.weights()
        assert copy() is None
        assert entry.handle.weights() is handle


class TestLazyWeightsAreEager:
    @pytest.mark.parametrize("dtype", [np.float32, np.float64, np.int32])
    def test_caller_writes_stay_out(self, dtype):
        weights = (np.random.default_rng(3).standard_normal((96, 40)) * 4).astype(dtype)
        want = NMSpMM(NMPATTERN).prepare(weights.copy())
        spec = _modeled(weights, NMPATTERN)
        weights[:] = 0
        assert _bits(spec.weights()) == _bits(want)
        assert spec.compressed is spec.weights().compressed

    @pytest.mark.parametrize("mode", ["column", "row"])
    def test_shards(self, mode):
        weights = np.random.default_rng(4).standard_normal((96, 40)).astype(np.float32)
        want = shard_handle(NMSpMM(NMPATTERN).prepare(weights), 2, mode)
        got = _modeled(weights, NMPATTERN, devices=2, shard=mode)
        sharded = got.shard(2, mode)
        for lazy, eager in zip(sharded.shards, want.shards, strict=True):
            assert _bits(lazy.handle.weights()) == _bits(eager.handle)

    @pytest.mark.parametrize("integer_values", [False, True])
    def test_scenario_redraws_every_model(self, integer_values):
        lazy, _ = _scenario(integer_values=integer_values).build_server()
        eager, _ = _scenario(
            integer_values=integer_values, execute_numerics=True
        ).build_server()
        assert len(lazy.model_names) == 2
        for name in reversed(lazy.model_names):  # the second model first
            spec = lazy.model(name).handle
            assert isinstance(spec, LayerSpec)
            assert _bits(spec.weights()) == _bits(eager.model(name).handle.weights())


class TestModelModePlanCache:
    def test_default_capacity_holds_every_walk(self):
        scenario = ModelServingScenario(blocks=32, qps=40.0, duration_s=0.3)
        spec = scenario.build_spec()
        server, sources = scenario.build_server()
        assert server.plan_cache.capacity == scenario.plan_cache_size(spec) > 64
        report = server.simulate(_requests(scenario, sources))
        stats = report.plan_cache_stats
        assert stats["evictions"] == 0
        assert stats["misses"] % len(spec.layers) == 0

    def test_explicit_capacity_is_kept(self):
        scenario = ModelServingScenario(blocks=32, plan_cache_capacity=20)
        assert scenario.plan_cache_size(scenario.build_spec()) == 20
        assert scenario.build_server()[0].plan_cache.capacity == 20

    def test_small_models_keep_the_default(self):
        scenario = ModelServingScenario(blocks=1)
        assert scenario.plan_cache_size(scenario.build_spec()) == 64
