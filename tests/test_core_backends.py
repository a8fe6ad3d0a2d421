"""Backend selection in NMSpMM.execute and its consumers.

Back-compat contract of the registry redesign: ``execute(backend=...)``
keeps working for "auto"/"fast"/"structural", auto still takes a fast
numerics path (never structural) without a trace and the structural
path with one, traces fill analytically off the structural path, and
plan caching, logical shapes, serving and nn compose with all of it.
"""

import numpy as np
import pytest

import repro.backends.fast as fast_backend_module
from repro.backends import backend_names
from repro.core.api import NMSpMM, nm_spmm
from repro.errors import ConfigurationError, ServeError
from repro.kernels.blocked import KernelTrace
from repro.nn.linear import Linear, NMSparseLinear
from repro.serve.loadgen import TrafficSource, generate_requests
from repro.serve.server import InferenceServer
from repro.sparsity.config import NMPattern
from repro.workloads.synthetic import random_dense

RTOL = 2e-5
ATOL = 2e-5


@pytest.fixture(scope="module", params=["packing", "non-packing"])
def op_handle(request):
    """One prepared operator per strategy: 2:8 (75% sparse) packs under
    V3, 4:8 (50%) does not."""
    pattern = (
        NMPattern(2, 8, vector_length=4)
        if request.param == "packing"
        else NMPattern(4, 8, vector_length=4)
    )
    rng = np.random.default_rng(7)
    b = random_dense(64, 48, rng)
    op = NMSpMM(pattern)
    handle = op.prepare(b)
    return op, handle


class TestBackendSelection:
    def test_unknown_backend_rejected(self, op_handle, rng):
        op, handle = op_handle
        a = random_dense(8, handle.k, rng)
        with pytest.raises(ConfigurationError, match="unknown backend"):
            op.execute(a, handle, backend="turbo")

    @pytest.mark.parametrize("backend", backend_names())
    def test_all_backends_agree_with_dense(self, op_handle, rng, backend):
        op, handle = op_handle
        a = random_dense(16, handle.k, rng)
        gold = a @ handle.dense()
        np.testing.assert_allclose(
            op.execute(a, handle, backend=backend), gold,
            rtol=RTOL, atol=ATOL,
        )

    def test_auto_runs_a_fast_numerics_path(self, op_handle, rng):
        """Auto without a trace never lands on the structural
        executors — it picks one of the fast numerics backends (which
        one depends on the handle's vector length)."""
        op, handle = op_handle
        a = random_dense(8, handle.k, rng)
        result = op.run(op.build_request(a, handle))
        assert result.backend in ("fast", "dense_scatter")
        assert result.decision is not None
        assert result.backend == result.decision.backend

    def test_auto_runs_fast_for_healthy_vector_length(
        self, rng, monkeypatch
    ):
        pattern = NMPattern(8, 32, vector_length=32)
        op = NMSpMM(pattern)
        handle = op.prepare(random_dense(64, 64, rng))
        a = random_dense(8, handle.k, rng)
        calls = []
        real_fast = fast_backend_module.nm_spmm_fast

        def spy(*args, **kwargs):
            calls.append(1)
            return real_fast(*args, **kwargs)

        monkeypatch.setattr(fast_backend_module, "nm_spmm_fast", spy)
        op.execute(a, handle)
        assert calls, "auto without a trace must take the fast path"

    def test_auto_with_trace_falls_back_to_structural(
        self, op_handle, rng, monkeypatch
    ):
        op, handle = op_handle
        a = random_dense(8, handle.k, rng)

        def boom(*args, **kwargs):  # pragma: no cover - must not run
            raise AssertionError("fast kernel must not run")

        monkeypatch.setattr(fast_backend_module, "nm_spmm_fast", boom)
        trace = KernelTrace()
        op.execute(a, handle, trace=trace)
        assert trace.fma_ops > 0

    def test_fast_skips_plan_construction(self, op_handle, rng, monkeypatch):
        op, handle = op_handle
        a = random_dense(8, handle.k, rng)

        def boom(*args, **kwargs):  # pragma: no cover - must not run
            raise AssertionError("fast without trace must not build a plan")

        monkeypatch.setattr(op, "plan_for", boom)
        op.execute(a, handle, backend="fast")


class TestAnalyticTraceThroughExecute:
    def test_fast_trace_matches_structural_trace(self, op_handle, rng):
        op, handle = op_handle
        a = random_dense(24, handle.k, rng)
        recorded, analytic = KernelTrace(), KernelTrace()
        op.execute(a, handle, trace=recorded, backend="structural")
        op.execute(a, handle, trace=analytic, backend="fast")
        # Event accounting identical; provenance tags distinguish the
        # recorded trace from the plan-derived one (excluded from ==).
        assert analytic == recorded
        assert recorded.backend == "structural"
        assert analytic.backend == "fast"

    def test_trace_accumulated_across_backends_tags_mixed(
        self, op_handle, rng
    ):
        """One trace fed two different origins is provenance-honest:
        it degrades to "mixed" instead of keeping the first tag."""
        op, handle = op_handle
        a = random_dense(8, handle.k, rng)
        trace = KernelTrace()
        op.execute(a, handle, trace=trace, backend="fast")
        assert trace.backend == "fast"
        op.execute(a, handle, trace=trace, backend="structural")
        assert trace.backend == "mixed"

    def test_fast_trace_accumulates(self, op_handle, rng):
        op, handle = op_handle
        a = random_dense(8, handle.k, rng)
        trace = KernelTrace()
        op.execute(a, handle, trace=trace, backend="fast")
        once = trace.fma_ops
        op.execute(a, handle, trace=trace, backend="fast")
        assert trace.fma_ops == 2 * once


class TestBackendPlanCacheInteraction:
    def test_explicit_plan_accepted_by_fast(self, op_handle, rng):
        op, handle = op_handle
        a = random_dense(16, handle.k, rng)
        plan = op.plan_for(16, handle)
        out = op.execute(a, handle, plan=plan, backend="fast")
        np.testing.assert_allclose(
            out, a @ handle.dense(), rtol=RTOL, atol=ATOL
        )

    def test_traceless_fast_skips_col_info(self, rng):
        """A packing plan from a serving cache must not trigger offline
        col_info preprocessing on the trace-less fast path."""
        pattern = NMPattern(2, 8, vector_length=8)
        op = NMSpMM(pattern)
        handle = op.prepare(random_dense(128, 64, rng))
        plan = op.plan_for(16, handle)
        assert plan.uses_packing
        a = random_dense(16, handle.k, rng)
        op.execute(a, handle, plan=plan)
        assert not handle._colinfo_cache
        trace = KernelTrace()
        op.execute(a, handle, plan=plan, trace=trace, backend="fast")
        assert handle._colinfo_cache and trace.fma_ops > 0


class TestFastLogicalShapes:
    def test_non_pattern_multiple_shapes_pad_and_trim(self, rng):
        pattern = NMPattern(2, 8, vector_length=4)
        b = random_dense(50, 45, rng)  # neither 8- nor 4-multiple
        op = NMSpMM(pattern)
        handle = op.prepare(b)
        a = random_dense(6, 50, rng)
        for backend in ("fast", "structural"):
            out = op.execute(a, handle, backend=backend)
            assert out.shape == (6, 45)
            np.testing.assert_allclose(
                out, a @ handle.dense()[:50, :45], rtol=RTOL, atol=ATOL
            )

    def test_decode_batch_m1(self, rng):
        pattern = NMPattern(2, 8, vector_length=4)
        b = random_dense(64, 32, rng)
        op = NMSpMM(pattern)
        handle = op.prepare(b)
        a = random_dense(1, 64, rng)
        out = op.execute(a, handle)
        assert out.shape == (1, 32)
        np.testing.assert_allclose(
            out, a @ handle.dense(), rtol=RTOL, atol=ATOL
        )

    def test_one_shot_backend_passthrough(self, rng):
        pattern = NMPattern(2, 4, vector_length=4)
        a = random_dense(8, 16, rng)
        b = random_dense(16, 8, rng)
        fast = nm_spmm(a, b, pattern, backend="fast")
        structural = nm_spmm(a, b, pattern, backend="structural")
        np.testing.assert_allclose(fast, structural, rtol=RTOL, atol=ATOL)


class TestServingBackend:
    def _run(self, backend):
        server = InferenceServer(backend=backend)
        server.register_model(
            "m", _WEIGHTS, NMPattern(2, 8, vector_length=8)
        )
        requests = generate_requests(
            [TrafficSource(model="m", k=_WEIGHTS.shape[0])],
            qps=50.0,
            duration_s=0.5,
            seed=3,
            synthesize_activations=True,
        )
        return server.simulate(requests)

    def test_unknown_backend_rejected(self):
        with pytest.raises(ServeError, match="unknown backend"):
            InferenceServer(backend="turbo")

    def test_backend_in_summary(self):
        report = self._run("fast")
        assert report.backend == "fast"
        assert report.summary()["backend"] == "fast"

    def test_fast_and_structural_agree(self):
        fast = self._run("fast")
        structural = self._run("structural")
        assert len(fast.request_records) == len(structural.request_records)
        for rf, rs in zip(
            fast.request_records, structural.request_records, strict=True
        ):
            np.testing.assert_allclose(
                rf.output, rs.output, rtol=RTOL, atol=ATOL
            )


_WEIGHTS = random_dense(64, 48, np.random.default_rng(11))


class TestLinearBackend:
    def test_layer_defaults_to_auto_and_agrees_with_structural(self, rng):
        layer = Linear(random_dense(30, 20, rng))
        pattern = NMPattern(2, 8, vector_length=4)
        sparse_fast = NMSparseLinear.from_dense(layer, pattern)
        assert sparse_fast.backend == "auto"
        sparse_structural = NMSparseLinear(
            sparse_fast.op,
            sparse_fast.handle,
            backend="structural",
        )
        x = random_dense(5, 30, rng)
        np.testing.assert_allclose(
            sparse_fast(x), sparse_structural(x), rtol=RTOL, atol=ATOL
        )


#: The library's supported-pattern grid (mirrors the kernel suites).
PATTERNS = [
    NMPattern(2, 4, vector_length=4),
    NMPattern(1, 4, vector_length=2),
    NMPattern(3, 8, vector_length=4),
    NMPattern(4, 8, vector_length=8),
    NMPattern(8, 32, vector_length=32),
    NMPattern(4, 32, vector_length=16),
    NMPattern(4, 4, vector_length=4),  # dense degenerate
]


@pytest.mark.parametrize("pattern", PATTERNS, ids=lambda p: p.label())
class TestInputOrder:
    """An F-ordered ``(m, k)`` A (a view of a row-major A^T) gives the
    bits of its C-ordered copy on the numerics backends, and ``fast``
    hands back the order it was given: F iff F-contiguous with m > 1."""

    MS = (1, 2, 5, 64)

    def _prepared(self, pattern, rng, *, trim=0):
        op = NMSpMM(pattern)
        # With ``trim`` columns short of a window multiple, execute()
        # trims the padding off the product.
        handle = op.prepare(
            random_dense(5 * pattern.m, 7 * pattern.vector_length - trim, rng)
        )
        return op, handle

    @pytest.mark.parametrize("backend", ["fast", "dense_scatter"])
    def test_same_bits_for_both_orders(self, pattern, backend, rng):
        op, handle = self._prepared(pattern, rng, trim=1)
        for m in self.MS:
            a = random_dense(m, handle.k, rng)
            c_out = op.execute(a, handle, backend=backend)
            f_out = op.execute(np.asfortranarray(a), handle, backend=backend)
            assert f_out.shape == c_out.shape == (m, handle.n_logical)
            assert (
                np.ascontiguousarray(f_out).tobytes()
                == np.ascontiguousarray(c_out).tobytes()
            )

    @pytest.mark.parametrize("trim", [0, 1], ids=["exact-n", "trimmed-n"])
    def test_fast_output_order_follows_input(self, pattern, trim, rng):
        op, handle = self._prepared(pattern, rng, trim=trim)
        for m in self.MS:
            a = random_dense(m, handle.k, rng)
            c_out = op.execute(a, handle, backend="fast")
            f_out = op.execute(np.asfortranarray(a), handle, backend="fast")
            # Row-major C stays row-major, and trimming the padded
            # columns off an F product keeps it F-contiguous.
            assert c_out.strides[1] == c_out.itemsize
            if m == 1:
                # Both orders at once: the row-major call runs.
                assert f_out.strides == c_out.strides
            else:
                assert f_out.flags["F_CONTIGUOUS"]
                assert not f_out.flags["C_CONTIGUOUS"]

    def test_fortran_input_is_not_copied(self, pattern, rng):
        op, handle = self._prepared(pattern, rng)
        a = np.asfortranarray(random_dense(4, handle.k, rng))
        assert op.build_request(a, handle).a is a
