"""ModelExecutor: layer roster, numerics walk, byte footprints, and
modeled time — plus the DeviceMemoryModel accountant it feeds."""

import numpy as np
import pytest

from repro.errors import ServeError
from repro.nn.linear import NMSparseLinear
from repro.serve.batcher import BatchingPolicy
from repro.serve.model_exec import DeviceMemoryModel, ModelExecutor
from repro.serve.model_exec.executor import (
    BLOCK_LAYER_KINDS,
    HEAD_LAYER_KIND,
)
from repro.sparsity.config import NMPattern
from repro.workloads.llama import get_llama_model, llama_layer_shapes


@pytest.fixture(scope="module")
def executor() -> ModelExecutor:
    return ModelExecutor("llama-7b", scale=16, blocks=2)


class TestLayerRoster:
    def test_every_llama_shape_is_hosted(self, executor):
        model = get_llama_model("llama-7b").scaled(16)
        shapes = {kind: (k, n) for kind, n, k in llama_layer_shapes(model)}
        hosted_kinds = {spec.kind for spec in executor.layers}
        assert hosted_kinds == set(shapes)
        for spec in executor.layers:
            k, n = shapes[spec.kind]
            assert spec.layer.handle.k == k
            assert spec.layer.handle.n_logical == n

    def test_roster_order_and_names(self, executor):
        names = [spec.name for spec in executor.layers]
        expected = [
            f"block{b}/{kind}"
            for b in range(executor.blocks)
            for kind in BLOCK_LAYER_KINDS
        ] + [HEAD_LAYER_KIND]
        assert names == expected
        assert executor.layer("lm-head").block is None
        assert executor.layer("block1/mlp-down").block == 1

    def test_unknown_layer_rejected(self, executor):
        with pytest.raises(ServeError, match="hosts no layer"):
            executor.layer("block9/nope")

    def test_construction_validation(self):
        with pytest.raises(ServeError, match="blocks"):
            ModelExecutor("llama-7b", scale=16, blocks=0)
        with pytest.raises(ServeError, match="kv_dtype_bytes"):
            ModelExecutor("llama-7b", scale=16, kv_dtype_bytes=0)
        with pytest.raises(ServeError, match="seed must be an integer >= 0"):
            ModelExecutor("llama-7b", scale=16, seed=-1)
        with pytest.raises(ServeError, match="scale must be an integer >= 1"):
            ModelExecutor("llama-7b", scale=0)

    @pytest.mark.parametrize(
        "kwargs",
        [
            dict(blocks=2.5),
            dict(blocks=True),
            dict(kv_dtype_bytes=1.5),
            dict(kv_dtype_bytes=True),
            dict(seed=1.5),
            dict(seed=True),
            dict(scale=1.5),
            dict(scale=True),
        ],
    )
    def test_non_int_counts_rejected(self, kwargs):
        (name,) = kwargs
        with pytest.raises(ServeError, match=f"{name} must be an int"):
            ModelExecutor("llama-7b", **{"scale": 16, **kwargs})


class TestNumerics:
    def test_logits_shape_and_walk_order(self, executor):
        rng = np.random.default_rng(7)
        x = rng.standard_normal((3, executor.hidden)).astype(np.float32)
        logits = executor.logits(x)
        assert logits.shape == (3, executor.vocab)
        # Reproduce the walk by hand through the hosted layers: the
        # executor's forward must be exactly this composition.
        h = executor.hidden
        ref = x
        for b in range(executor.blocks):
            qkv = executor.layer(f"block{b}/attn-qkv-fused").layer(ref)
            ref = ref + executor.layer(f"block{b}/attn-qkvo").layer(
                qkv[:, :h]
            )
            up = executor.layer(f"block{b}/mlp-gate-up").layer(ref)
            ref = ref + executor.layer(f"block{b}/mlp-down").layer(
                np.maximum(up, 0.0)
            )
        ref = executor.layer(HEAD_LAYER_KIND).layer(ref)
        np.testing.assert_allclose(logits, ref, rtol=1e-5, atol=1e-5)

    def test_call_is_logits(self, executor):
        x = np.ones((2, executor.hidden), dtype=np.float32)
        np.testing.assert_array_equal(executor(x), executor.logits(x))

    def test_bad_activation_shape_rejected(self, executor):
        with pytest.raises(ServeError, match="activations"):
            executor.hidden_states(np.ones((2, 3), dtype=np.float32))

    @pytest.mark.parametrize(
        "bad",
        [
            "abc",
            np.full((2, 32), "x"),
            np.ones((2, 32), dtype=np.complex64),
            np.ones((2, 32), dtype=bool),
            np.empty((2, 32), dtype=object),
        ],
        ids=["str", "str-array", "complex", "bool", "object"],
    )
    def test_non_real_activations_rejected(self, executor, bad):
        """Validated before any float32 conversion: no NumPy parse
        error, no silent ComplexWarning truncation."""
        for call in (executor.hidden_states, executor.logits):
            with pytest.raises(ServeError, match="real numbers") as info:
                call(bad)
            assert "\n" not in str(info.value)

    def test_integer_activations_accepted(self, executor):
        x = np.ones((2, executor.hidden), dtype=np.int64)
        np.testing.assert_array_equal(
            executor.logits(x), executor.logits(x.astype(np.float32))
        )

    def test_seeded_weights_are_deterministic(self):
        a = ModelExecutor("llama-7b", scale=16, blocks=1, seed=3)
        b = ModelExecutor("llama-7b", scale=16, blocks=1, seed=3)
        c = ModelExecutor("llama-7b", scale=16, blocks=1, seed=4)
        x = np.ones((2, a.hidden), dtype=np.float32)
        np.testing.assert_array_equal(a.logits(x), b.logits(x))
        assert not np.array_equal(a.logits(x), c.logits(x))


class TestFootprints:
    def test_weight_bytes_sums_layers(self, executor):
        assert executor.weight_bytes == sum(
            spec.weight_bytes for spec in executor.layers
        )
        assert executor.weight_bytes > 0

    def test_kv_bytes_per_token_formula(self, executor):
        assert executor.kv_bytes_per_token == (
            2 * executor.blocks * executor.hidden * executor.kv_dtype_bytes
        )
        assert executor.kv_bytes(5) == 5 * executor.kv_bytes_per_token
        assert executor.kv_bytes(0) == 0
        with pytest.raises(ServeError, match="tokens"):
            executor.kv_bytes(-1)

    @pytest.mark.parametrize("tokens", [2.5, 3.0, True, "4", None])
    def test_kv_bytes_rejects_non_int_tokens(self, executor, tokens):
        with pytest.raises(ServeError, match="tokens must be an int"):
            executor.kv_bytes(tokens)

    def test_kv_bytes_accepts_numpy_ints(self, executor):
        assert executor.kv_bytes(np.int64(5)) == executor.kv_bytes(5)

    def test_denser_pattern_costs_more_bytes(self):
        sparse = ModelExecutor(
            "llama-7b", scale=16, blocks=1,
            pattern=NMPattern(2, 8, vector_length=8),
        )
        dense = ModelExecutor(
            "llama-7b", scale=16, blocks=1,
            pattern=NMPattern(4, 8, vector_length=8),
        )
        assert dense.weight_bytes > sparse.weight_bytes


class TestModeledTime:
    def test_stack_seconds_positive_and_memoized(self, executor):
        first = executor.stack_seconds(16)
        assert first > 0
        assert executor.stack_seconds(16) == first  # cached bucket
        with pytest.raises(ServeError, match="padded_rows"):
            executor.stack_seconds(0)

    def test_prefill_and_decode_walk_whole_stack(self, executor):
        assert executor.modeled_prefill_s(64) == executor.stack_seconds(64)
        with pytest.raises(ServeError, match="tokens"):
            executor.modeled_prefill_s(0)

    def test_policy_buckets_rows(self, executor):
        policy = BatchingPolicy()
        bucketed = policy.bucket_rows(5)
        assert executor.modeled_prefill_s(5, policy) == (
            executor.stack_seconds(bucketed)
        )

    def test_describe_reports_footprints(self, executor):
        info = executor.describe()
        assert info["layers"] == len(executor.layers)
        assert info["weight_bytes"] == executor.weight_bytes
        assert info["kv_bytes_per_token"] == executor.kv_bytes_per_token


class TestDeviceMemoryModel:
    def test_weights_then_kv_lifecycle(self):
        mem = DeviceMemoryModel(1000)
        mem.add_weights("m", 600, 0.0)
        assert mem.fits(400) and not mem.fits(401)
        mem.reserve_kv(1, 300, 1.0)
        mem.grow_kv([1], 100, 2.0)
        assert mem.resident_bytes == 1000 and mem.free_bytes == 0
        assert mem.kv_bytes_of(1) == 400
        assert mem.release_kv(1, 3.0) == 400
        assert mem.release_kv(1, 3.0) == 0  # idempotent
        assert mem.kv_bytes_of(1) == 0
        mem.assert_within_budget()
        assert mem.reconcile() == 600
        assert mem.peak_bytes == 1000

    def test_weights_over_budget_rejected(self):
        mem = DeviceMemoryModel(100)
        with pytest.raises(ServeError, match="does not fit"):
            mem.add_weights("m", 101, 0.0)

    def test_none_mode_overflows_instead_of_enforcing(self):
        mem = DeviceMemoryModel(100, admission="none")
        mem.add_weights("m", 90, 0.0)
        mem.reserve_kv(1, 50, 1.0)
        assert not mem.enforce
        assert mem.overflow_bytes == 40
        with pytest.raises(ServeError, match="exceeded"):
            mem.assert_within_budget()

    def test_released_excursion_still_fails_the_budget_check(self):
        # The check covers every instant, not just the state at the end.
        mem = DeviceMemoryModel(100, admission="none")
        mem.add_weights("m", 60, 0.0)
        mem.reserve_kv(1, 30, 1.0)
        mem.reserve_kv(2, 30, 2.0)  # 120 B resident: over budget
        mem.release_kv(2, 3.0)
        mem.release_kv(1, 4.0)
        assert mem.resident_bytes == 60 and mem.overflow_bytes == 0
        with pytest.raises(ServeError, match="120 exceeded .* at t=2.0"):
            mem.assert_within_budget()

    def test_shrinking_below_an_earlier_peak_fails_the_budget_check(self):
        mem = DeviceMemoryModel(1000)
        mem.add_weights("m", 600, 0.0)
        mem.reserve_kv(1, 300, 1.0)
        mem.release_kv(1, 2.0)
        mem.set_budget(800, 3.0)  # holds now, but 900 B were resident
        assert mem.fits(200)
        with pytest.raises(ServeError, match="900 exceeded"):
            mem.assert_within_budget()

    def test_grow_kv_grows_every_survivor(self):
        mem = DeviceMemoryModel(1000)
        mem.reserve_kv(1, 10, 0.0)
        mem.reserve_kv(2, 20, 0.0)
        mem.grow_kv([1, 2], 5, 1.0)
        assert (mem.kv_bytes_of(1), mem.kv_bytes_of(2)) == (15, 25)
        assert mem.kv.peak == mem.kv_bytes == 40
        assert (mem.peak_bytes, mem.peak_t_s) == (40, 1.0)
        mem.grow_kv([], 5, 2.0)  # no survivors: nothing moves
        assert (mem.peak_bytes, mem.peak_t_s) == (40, 1.0)

    def test_grow_kv_rejects_unknown_ids_and_shrinking(self):
        mem = DeviceMemoryModel(1000)
        mem.add_weights("m", 100, 0.0)
        mem.reserve_kv(1, 10, 0.0)
        with pytest.raises(ServeError, match="no entry for 9"):
            mem.grow_kv([1, 9], 5, 1.0)
        assert mem.kv.reconcile() == mem.kv_bytes_of(1) == 15
        with pytest.raises(ServeError, match=">= 0"):
            mem.grow_kv([1], -5, 2.0)
        assert mem.kv.reconcile() == 15
        mem.release_kv(1, 3.0)
        assert mem.reconcile() == 100

    def test_budget_shrink_counts(self):
        mem = DeviceMemoryModel(1000)
        mem.set_budget(500, 1.0)
        assert mem.budget_shrinks == 1 and mem.budget_bytes == 500
        with pytest.raises(ServeError, match="budget"):
            mem.set_budget(0, 2.0)

    def test_leaked_kv_fails_reconcile(self):
        mem = DeviceMemoryModel(1000)
        mem.add_weights("m", 100, 0.0)
        mem.reserve_kv(7, 10, 1.0)
        with pytest.raises(ServeError, match="leaked"):
            mem.reconcile()

    def test_bad_modes_rejected(self):
        with pytest.raises(ServeError, match="admission"):
            DeviceMemoryModel(100, admission="magic")
        with pytest.raises(ServeError, match="budget"):
            DeviceMemoryModel(0)

    @pytest.mark.parametrize(
        "budget", [0.5, 1000.0, float("nan"), float("inf"), True, "1000"]
    )
    def test_non_int_budgets_rejected(self, budget):
        # 0.5 used to truncate to a 0-byte pool, True to a 1-byte one,
        # and NaN/inf escaped as a raw ValueError/OverflowError.
        with pytest.raises(ServeError, match="HBM budget must be an int"):
            DeviceMemoryModel(budget)
        mem = DeviceMemoryModel(1000)
        with pytest.raises(ServeError, match="HBM budget must be an int"):
            mem.set_budget(budget, 1.0)
        assert mem.budget_bytes == 1000

    def test_numpy_int_budget_accepted(self):
        mem = DeviceMemoryModel(np.int64(1000))
        mem.set_budget(np.int32(500), 1.0)
        assert mem.budget_bytes == 500 and type(mem.budget_bytes) is int


def _row_major_walk(executor, x):
    """Frozen copy of the row-major walk the feature-major one replaced:
    every layer input made C-contiguous, as its ``as_f32`` did, so each
    layer runs the row-major kernel.  Returns ``(hidden, logits)``."""

    def call(name, a):
        return executor.layer(name).layer(np.ascontiguousarray(a))

    x = np.ascontiguousarray(x, dtype=np.float32)
    h = executor.hidden
    for b in range(executor.blocks):
        qkv = call(f"block{b}/attn-qkv-fused", x)
        x = x + call(f"block{b}/attn-qkvo", qkv[:, :h])
        up = call(f"block{b}/mlp-gate-up", x)
        x = x + call(f"block{b}/mlp-down", np.maximum(up, 0.0))
    return x, call(HEAD_LAYER_KIND, x)


class TestFeatureMajorWalk:
    """The feature-major walk gives the row-major walk's bits on the
    benchmark's executor (Llama-7B/8, 2 blocks, 2:8 with L=8)."""

    @pytest.fixture(scope="class", params=[0, 4242], ids=["seed0", "seed4242"])
    def bench_executor(self, request):
        return request.param, ModelExecutor(
            "llama-7b",
            scale=8,
            blocks=2,
            pattern=NMPattern(2, 8, vector_length=8),
            seed=request.param,
        )

    @pytest.mark.parametrize("m", [1, 4, 16, 256])
    def test_bitwise_equal_to_row_major_walk(self, bench_executor, m):
        seed, executor = bench_executor
        x = (
            np.random.default_rng([seed, m])
            .standard_normal((m, executor.hidden))
            .astype(np.float32)
        )
        hidden, logits = _row_major_walk(executor, x)
        for got, want in (
            (executor.hidden_states(x), hidden),
            (executor.logits(x), logits),
        ):
            assert got.flags["C_CONTIGUOUS"]
            assert got.shape == want.shape
            assert got.tobytes() == want.tobytes()

    def test_block_layers_see_feature_major_input(self, bench_executor, monkeypatch):
        """Every block layer is handed the F-ordered stream and hands
        back F-ordered output; the LM head runs row-major."""
        _, executor = bench_executor
        seen = []
        call = NMSparseLinear.__call__

        def spy(layer, x):
            out = call(layer, x)
            seen.append((x.flags["F_CONTIGUOUS"], out.flags["F_CONTIGUOUS"]))
            return out

        monkeypatch.setattr(NMSparseLinear, "__call__", spy)
        executor.logits(np.ones((16, executor.hidden), dtype=np.float32))
        blocks = len(executor.layers) - 1
        assert seen == [(True, True)] * blocks + [(False, False)]
