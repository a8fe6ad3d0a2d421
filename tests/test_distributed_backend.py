"""The ``sharded`` backend through the registry: selection, numerics,
composed traces, modeled steps, and the auto-selector race."""

import numpy as np
import pytest

from repro.backends import backend_names, get_backend, register_backend
from repro.core.api import NMSpMM
from repro.distributed import (
    DeviceGroup,
    ShardedBackend,
    modeled_shape_step,
    modeled_step,
    shard_handle,
)
from repro.errors import ShardError
from repro.kernels.blocked import KernelTrace
from repro.sparsity.config import NMPattern
from repro.workloads.synthetic import random_dense

RTOL = 2e-5
ATOL = 2e-5


def _prepared(rng, pattern=None, *, k_windows=4, n_windows=6, m=8):
    pattern = pattern or NMPattern(2, 8, vector_length=8)
    op = NMSpMM(pattern)
    handle = op.prepare(
        random_dense(k_windows * pattern.m, n_windows * pattern.vector_length, rng)
    )
    a = random_dense(m, handle.k, rng)
    return op, handle, a


class TestRegistration:
    def test_sharded_is_opt_in(self, registry_snapshot):
        """The default registry races host backends only; a caller
        opts in with one ``register_backend`` call."""
        assert "sharded" not in backend_names()
        backend = register_backend(ShardedBackend())
        assert get_backend("sharded") is backend
        assert backend.group.devices >= 2

    @pytest.mark.usefixtures("sharded_registered")
    def test_capabilities_describe_the_group(self):
        caps = get_backend("sharded").capabilities()
        assert "parallel" in caps["description"]
        assert not caps["needs_plan"]

    def test_invalid_mode_rejected(self):
        with pytest.raises(ShardError, match="unknown shard mode"):
            ShardedBackend(shard="diagonal")


@pytest.mark.usefixtures("sharded_registered")
class TestExecuteThroughFacade:
    def test_matches_fast(self, rng):
        op, handle, a = _prepared(rng)
        np.testing.assert_allclose(
            op.execute(a, handle, backend="sharded"),
            op.execute(a, handle, backend="fast"),
            rtol=RTOL,
            atol=ATOL,
        )

    def test_row_mode_backend(self, rng):
        register_backend(
            ShardedBackend(
                DeviceGroup.build("A100", devices=3), shard="row"
            ),
            replace=True,
        )
        op, handle, a = _prepared(rng)
        np.testing.assert_allclose(
            op.execute(a, handle, backend="sharded"),
            a @ handle.dense(),
            rtol=RTOL,
            atol=ATOL,
        )

    def test_logical_shapes_trimmed(self, rng):
        """Non-pattern-multiple weights pad internally; the facade
        trims the sharded output to logical n like any backend."""
        pattern = NMPattern(2, 8, vector_length=8)
        op = NMSpMM(pattern)
        handle = op.prepare(random_dense(30, 29, rng))
        a = random_dense(5, 30, rng)
        out = op.execute(a, handle, backend="sharded")
        assert out.shape == (5, 29)
        np.testing.assert_allclose(
            out, op.execute(a, handle, backend="fast"), rtol=RTOL, atol=ATOL
        )

    def test_unshardable_request_declined(self, rng):
        # One output window total: a 2-device column shard cannot cut.
        pattern = NMPattern(2, 4, vector_length=4)
        op, handle, a = _prepared(rng, pattern, n_windows=1)
        backend = get_backend("sharded")
        verdict = backend.supports(op.build_request(a, handle))
        assert isinstance(verdict, str) and "column-parallel" in verdict

    def test_row_mode_declines_single_window_k(self, rng):
        pattern = NMPattern(2, 4, vector_length=4)
        op, handle, a = _prepared(rng, pattern, k_windows=1)
        backend = ShardedBackend(
            DeviceGroup.build("A100", devices=2), shard="row"
        )
        verdict = backend.supports(op.build_request(a, handle))
        assert isinstance(verdict, str) and "row-parallel" in verdict


@pytest.mark.usefixtures("sharded_registered")
class TestComposedTraces:
    def test_trace_totals_match_single_device_invariants(self, rng):
        """Per-device analytic traces compose: the FMA total and the
        result write-back are partition-invariant."""
        op, handle, a = _prepared(rng)
        trace = KernelTrace()
        op.execute(a, handle, backend="sharded", trace=trace)
        assert trace.fma_ops == a.shape[0] * handle.n * handle.compressed.w
        assert trace.stg_bytes == a.shape[0] * handle.n * 4
        assert trace.blocks > 0

    def test_trace_tagged_sharded(self, rng):
        op, handle, a = _prepared(rng)
        trace = KernelTrace()
        op.execute(a, handle, backend="sharded", trace=trace)
        assert trace.backend == "sharded"

    def test_trace_carries_wire_bytes_comm_event(self, rng):
        """A sharded trace exposes its communication bill: the mode's
        collective lands in the trace as a comm event whose wire bytes
        and seconds match the modeled ring collective exactly."""
        op, handle, a = _prepared(rng)
        trace = KernelTrace()
        op.execute(a, handle, backend="sharded", trace=trace)
        backend = get_backend("sharded")
        sharded = shard_handle(handle, backend.group.devices, backend.shard)
        comm = sharded.collective(backend.group, a.shape[0])
        assert trace.comm_collectives == [comm.collective]
        assert trace.comm_payload_bytes == comm.payload_bytes > 0
        assert trace.comm_wire_bytes == comm.wire_bytes > 0
        assert trace.comm_seconds == pytest.approx(comm.seconds)

    def test_single_device_traces_carry_no_comm(self, rng):
        op, handle, a = _prepared(rng)
        trace = KernelTrace()
        op.execute(a, handle, backend="fast", trace=trace)
        assert trace.comm_collectives == []
        assert trace.comm_wire_bytes == 0 and trace.comm_seconds == 0.0

    def test_vocabulary_declared(self):
        from repro.backends.registry import backend_trace_vocabulary

        assert backend_trace_vocabulary("sharded") == (
            "device.compute", "comm.all-gather", "comm.all-reduce",
        )


class TestModeledSteps:
    def test_modeled_step_composes_compute_and_comm(self, rng):
        op, handle, _ = _prepared(rng)
        group = DeviceGroup.build("A100", devices=2)
        sharded = shard_handle(handle, 2, "column")
        step = modeled_step(sharded, group, 64)
        assert step.devices == 2
        assert step.seconds == pytest.approx(
            max(step.per_device_seconds) + step.comm.seconds
        )
        assert 0 < step.comm_fraction < 1

    def test_group_shard_mismatch_rejected(self, rng):
        _, handle, _ = _prepared(rng)
        sharded = shard_handle(handle, 2, "column")
        with pytest.raises(ShardError, match="sharded 2 ways"):
            modeled_step(sharded, DeviceGroup.build("A100", devices=4), 8)

    def test_shape_step_agrees_with_handle_step(self, rng):
        """The benchmark's shape-only path models the same seconds as
        the real-shard path (same geometry, same plans)."""
        op, handle, _ = _prepared(rng)
        group = DeviceGroup.build("A100", devices=3)
        sharded = shard_handle(handle, 3, "row")
        by_handle = modeled_step(sharded, group, 32)
        by_shape = modeled_shape_step(
            32, handle.n, handle.k, handle.pattern, group, "row"
        )
        assert by_shape.per_device_seconds == by_handle.per_device_seconds
        assert by_shape.comm == by_handle.comm


@pytest.mark.usefixtures("sharded_registered")
class TestAutoRace:
    def test_sharded_enters_the_cost_race(self, rng):
        op, handle, a = _prepared(rng)
        decision = op.selector.explain(op.build_request(a, handle))
        assert "sharded" in decision.costs
        assert decision.costs["sharded"] > 0

    def test_estimate_includes_the_collective(self, rng):
        """The communication term must be visible in the estimate: the
        same problem priced over a slower link costs strictly more."""
        op, handle, a = _prepared(rng)
        request = op.build_request(a, handle)
        nvlink = ShardedBackend(
            DeviceGroup.build("A100", devices=2, link="nvlink")
        )
        ethernet = ShardedBackend(
            DeviceGroup.build("A100", devices=2, link="ethernet")
        )
        assert ethernet.estimated_cost(request) > nvlink.estimated_cost(
            request
        )

    def test_small_problems_stay_single_device(self, rng):
        """On tiny serving shapes the ring latency dwarfs the compute
        saving, so auto keeps the single-device paths — the honest
        outcome for a simulated-collective backend."""
        op, handle, a = _prepared(rng, m=4)
        decision = op.selector.explain(op.build_request(a, handle))
        assert decision.backend != "sharded"
