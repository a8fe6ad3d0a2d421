"""Tensor-parallel partitioners: legality, geometry, and the central
correctness claim — sharded execution equals single-device execute()
across every supported pattern, both modes, and uneven device counts.
"""

import numpy as np
import pytest

from repro.core.api import NMSpMM
from repro.distributed.shard import (
    shard_column,
    shard_extents,
    shard_handle,
    shard_row,
    shard_shapes,
)
from repro.distributed.sharded import sharded_execute
from repro.errors import ShardError
from repro.serve.model_exec.executor import ModelExecutor
from repro.sparsity.config import NMPattern
from repro.workloads.synthetic import random_dense

RTOL = 2e-5
ATOL = 2e-5

#: The library's supported-pattern grid (mirrors the cross-kernel
#: equivalence suite).
PATTERNS = [
    NMPattern(2, 4, vector_length=4),
    NMPattern(1, 4, vector_length=2),
    NMPattern(3, 8, vector_length=4),
    NMPattern(4, 8, vector_length=8),
    NMPattern(8, 32, vector_length=32),
    NMPattern(4, 32, vector_length=16),
    NMPattern(4, 4, vector_length=4),  # dense degenerate
]

#: Device counts chosen so window counts divide unevenly somewhere
#: (every pattern below yields >= 5 windows on both axes).
DEVICE_COUNTS = (2, 3, 5)


@pytest.fixture(scope="module")
def llama_executor():
    """The perfbench forward executor: Llama-7B/8, two blocks, 2:8 L=8."""
    return ModelExecutor(
        "llama-7b", scale=8, blocks=2, pattern=NMPattern(2, 8, vector_length=8)
    )


def _prepared(pattern, rng, *, k_windows=5, n_windows=7, m=9):
    """An operator + handle whose window counts (5 along k, 7 along n)
    are not divisible by 2, 3, or 5 — every shard count in the grid
    exercises the uneven path."""
    op = NMSpMM(pattern)
    k = k_windows * pattern.m
    n = n_windows * pattern.vector_length
    handle = op.prepare(random_dense(k, n, rng))
    a = random_dense(m, k, rng)
    return op, handle, a


class TestShardExtents:
    def test_even_split(self):
        assert shard_extents(8, 4) == [(0, 2), (2, 4), (4, 6), (6, 8)]

    def test_uneven_split_front_loads_remainder(self):
        assert shard_extents(7, 3) == [(0, 3), (3, 5), (5, 7)]

    def test_extents_partition_the_range(self):
        for windows in (5, 7, 12):
            for devices in (1, 2, 3, 5):
                extents = shard_extents(windows, devices)
                assert extents[0][0] == 0
                assert extents[-1][1] == windows
                for (_, end), (start, _) in zip(extents, extents[1:], strict=False):
                    assert end == start

    def test_more_devices_than_windows_rejected(self):
        with pytest.raises(ShardError, match="at least one"):
            shard_extents(3, 4)

    def test_invalid_devices_rejected(self):
        with pytest.raises(ShardError, match=">= 1"):
            shard_extents(4, 0)

    @pytest.mark.parametrize("devices", [True, 2.5, 2.0, "2"])
    def test_non_integer_devices_rejected(self, devices):
        with pytest.raises(ShardError, match="must be an integer"):
            shard_extents(4, devices)

    def test_numpy_integer_devices_accepted(self):
        assert shard_extents(7, np.int64(3)) == shard_extents(7, 3)


class TestShardLegality:
    """Every shard must itself be a legal N:M compressed matrix — the
    partitioners build real NMCompressedMatrix instances, whose
    constructor enforces the format invariants."""

    @pytest.mark.parametrize("pattern", PATTERNS, ids=lambda p: p.label())
    @pytest.mark.parametrize("devices", DEVICE_COUNTS)
    def test_column_shards_are_legal_and_cover_n(self, pattern, devices, rng):
        _, handle, _ = _prepared(pattern, rng)
        sharded = shard_column(handle, devices)
        assert sharded.devices == devices
        total_n = 0
        for shard in sharded.shards:
            comp = shard.handle.compressed
            assert comp.pattern == pattern
            assert comp.k == handle.k
            assert comp.n == shard.extent
            total_n += comp.n
        assert total_n == handle.n
        # Reassembling the shards' dense views recovers the weights.
        np.testing.assert_array_equal(
            np.hstack([s.handle.dense() for s in sharded.shards]),
            handle.dense(),
        )

    @pytest.mark.parametrize("pattern", PATTERNS, ids=lambda p: p.label())
    @pytest.mark.parametrize("devices", DEVICE_COUNTS)
    def test_row_shards_are_legal_and_cover_k(self, pattern, devices, rng):
        _, handle, _ = _prepared(pattern, rng)
        sharded = shard_row(handle, devices)
        total_k = 0
        for shard in sharded.shards:
            comp = shard.handle.compressed
            assert comp.pattern == pattern
            assert comp.n == handle.n
            assert comp.k == shard.extent
            assert comp.k % pattern.m == 0  # window-aligned cut
            total_k += comp.k
        assert total_k == handle.k
        np.testing.assert_array_equal(
            np.vstack([s.handle.dense() for s in sharded.shards]),
            handle.dense(),
        )

    def test_too_many_devices_rejected_with_context(self, pattern_2_4, rng):
        _, handle, _ = _prepared(pattern_2_4, rng)
        with pytest.raises(ShardError, match="column-parallel"):
            shard_column(handle, handle.compressed.q + 1)
        with pytest.raises(ShardError, match="row-parallel"):
            shard_row(handle, handle.compressed.num_windows_k + 1)

    def test_unknown_mode_rejected(self, pattern_2_4, rng):
        _, handle, _ = _prepared(pattern_2_4, rng)
        with pytest.raises(ShardError, match="unknown shard mode"):
            shard_handle(handle, 2, "diagonal")

    def test_bool_devices_rejected_past_the_memo(self, pattern_2_4, rng):
        """``True == 1`` as a memo key, so the check runs before it."""
        _, handle, _ = _prepared(pattern_2_4, rng)
        shard_handle(handle, 1, "column")
        with pytest.raises(ShardError, match="must be an integer"):
            shard_handle(handle, True, "column")

    def test_shard_handle_memoizes_on_the_handle(self, pattern_2_4, rng):
        _, handle, _ = _prepared(pattern_2_4, rng)
        first = shard_handle(handle, 2, "column")
        assert shard_handle(handle, 2, "column") is first
        assert shard_handle(handle, 2, "row") is not first

    def test_shard_shapes_match_real_shards(self, rng):
        """The shape-only helper the benchmark models with must agree
        exactly with the geometry the partitioners cut."""
        pattern = NMPattern(2, 8, vector_length=4)
        _, handle, _ = _prepared(pattern, rng)
        for mode in ("column", "row"):
            sharded = shard_handle(handle, 3, mode)
            shapes = shard_shapes(pattern, handle.n, handle.k, 3, mode)
            assert shapes == [
                (s.handle.n, s.handle.k) for s in sharded.shards
            ]


class TestShardedCorrectness:
    """Sharded execution against single-device execute(): the 7-pattern
    grid x {column, row} x uneven device counts.  Column shards run
    disjoint windows through the same kernel, so they give the fast
    bits exactly; row shards sum partials, so they match to rounding."""

    @pytest.mark.parametrize("pattern", PATTERNS, ids=lambda p: p.label())
    @pytest.mark.parametrize("mode", ["column", "row"])
    @pytest.mark.parametrize("devices", DEVICE_COUNTS)
    def test_matches_single_device(self, pattern, mode, devices, rng):
        op, handle, _ = _prepared(pattern, rng)
        sharded = shard_handle(handle, devices, mode)
        for m in (1, 9, 64):
            a = random_dense(m, handle.k, rng)
            gold = op.execute(a, handle, backend="fast")
            out = sharded_execute(a, sharded)
            if mode == "column":
                assert out.tobytes() == gold.tobytes(), m
            else:
                np.testing.assert_allclose(gold, out, rtol=RTOL, atol=ATOL)

    @pytest.mark.parametrize("m", [1, 256])
    @pytest.mark.parametrize("devices", [2, 3])
    def test_llama_layers_match_single_device(
        self, llama_executor, m, devices
    ):
        """Every layer of the Llama-7B/8 executor: column mode is
        bit-identical to the single-device fast path, row mode
        allclose."""
        rng = np.random.default_rng(m * 10 + devices)
        for spec in llama_executor.layers:
            op, handle = spec.layer.op, spec.layer.handle
            a = random_dense(m, handle.k, rng)
            gold = op.execute(a, handle, backend="fast")
            column = sharded_execute(a, shard_handle(handle, devices, "column"))
            assert column.tobytes() == gold.tobytes(), spec.name
            row = sharded_execute(a, shard_handle(handle, devices, "row"))
            np.testing.assert_allclose(gold, row, rtol=RTOL, atol=ATOL)

    @pytest.mark.parametrize("mode", ["column", "row"])
    def test_short_activation_reports_the_weights_k(
        self, pattern_2_4, mode, rng
    ):
        _, handle, a = _prepared(pattern_2_4, rng, k_windows=64)
        sharded = shard_handle(handle, 2, mode)
        with pytest.raises(ShardError, match=f"k={handle.k}"):
            sharded_execute(a[:, : handle.k // 2], sharded)

    @pytest.mark.parametrize("mode", ["column", "row"])
    def test_matches_dense_reference(self, mode, rng):
        pattern = NMPattern(2, 8, vector_length=4)
        op, handle, a = _prepared(pattern, rng)
        out = sharded_execute(a, shard_handle(handle, 3, mode))
        np.testing.assert_allclose(
            out, a @ handle.dense(), rtol=RTOL, atol=ATOL
        )

    def test_single_shard_is_exactly_fast(self, pattern_2_4, rng):
        """devices=1 degenerates to the unsharded fast path bit for
        bit (same kernel, same layout, no composition arithmetic)."""
        op, handle, a = _prepared(pattern_2_4, rng)
        out = sharded_execute(a, shard_handle(handle, 1, "column"))
        np.testing.assert_array_equal(
            out, op.execute(a, handle, backend="fast")
        )

    @pytest.mark.parametrize("pattern", PATTERNS, ids=lambda p: p.label())
    @pytest.mark.parametrize("devices", DEVICE_COUNTS)
    def test_fortran_ordered_a_column_mode_is_exactly_fast(
        self, pattern, devices, rng
    ):
        """Column shards run disjoint windows through the same kernel,
        so an F-ordered A (the feature-major walk's layout) gives the
        single-device fast bits."""
        op, handle, a = _prepared(pattern, rng)
        out = sharded_execute(
            np.asfortranarray(a), shard_handle(handle, devices, "column")
        )
        assert out.tobytes() == (
            np.ascontiguousarray(op.execute(a, handle, backend="fast")).tobytes()
        )

    @pytest.mark.parametrize("pattern", PATTERNS, ids=lambda p: p.label())
    @pytest.mark.parametrize("devices", DEVICE_COUNTS)
    def test_fortran_ordered_a_row_mode_keeps_its_bits(
        self, pattern, devices, rng
    ):
        """Row mode sums per-device partials, so it matches one device
        only to rounding; the order of A must not move a bit of it."""
        op, handle, a = _prepared(pattern, rng)
        sharded = shard_handle(handle, devices, "row")
        out = sharded_execute(np.asfortranarray(a), sharded)
        assert out.tobytes() == sharded_execute(a, sharded).tobytes()
        np.testing.assert_allclose(
            out, op.execute(a, handle, backend="fast"), rtol=RTOL, atol=ATOL
        )

    def test_combine_rejects_wrong_arity(self, pattern_2_4, rng):
        _, handle, a = _prepared(pattern_2_4, rng)
        sharded = shard_handle(handle, 2, "column")
        with pytest.raises(ShardError, match="per-device outputs"):
            sharded.combine([np.zeros((1, 1), dtype=np.float32)])

    def test_row_device_input_slices_k(self, pattern_2_4, rng):
        _, handle, a = _prepared(pattern_2_4, rng)
        sharded = shard_handle(handle, 3, "row")
        widths = [
            sharded.device_input(a, s.device).shape[1]
            for s in sharded.shards
        ]
        assert sum(widths) == handle.k
        # Column mode feeds every device the full block.
        col = shard_handle(handle, 3, "column")
        assert all(
            col.device_input(a, s.device) is a for s in col.shards
        )


class TestCollectiveChoice:
    def test_column_all_gathers_row_all_reduces(self, pattern_2_4, rng):
        from repro.distributed.topology import DeviceGroup

        _, handle, _ = _prepared(pattern_2_4, rng)
        group = DeviceGroup.build("A100", devices=3)
        m = 16
        column = shard_handle(handle, 3, "column").collective(group, m)
        row = shard_handle(handle, 3, "row").collective(group, m)
        assert column.collective == "all-gather"
        assert row.collective == "all-reduce"
        assert column.payload_bytes == row.payload_bytes == (
            m * handle.n * 4
        )
        # The all-reduce moves two ring passes' worth of bytes.
        assert row.seconds > column.seconds
