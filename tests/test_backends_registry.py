"""The pluggable execution-backend registry and the builtin backends.

Covers registration/lookup semantics, the Backend protocol as seen by
third-party backends (usable end to end through execute(), the serving
runtime and the CLI without core edits), the new dense_scatter backend's
numerics against the Eq. 1 reference, and that the removed
EXECUTE_BACKENDS shims stay removed.
"""

import numpy as np
import pytest

from repro.backends import (
    Backend,
    DenseScatterBackend,
    ExecutionRequest,
    ExecutionResult,
    available_backends,
    backend_names,
    get_backend,
    register_backend,
    unregister_backend,
)
from repro.core.api import NMSpMM, SparseHandle
from repro.errors import ConfigurationError, PlanError, ServeError
from repro.kernels.blocked import KernelTrace
from repro.kernels.reference import nm_spmm_reference
from repro.serve.loadgen import TrafficSource, generate_requests
from repro.serve.server import InferenceServer
from repro.sparsity.compress import compress
from repro.sparsity.config import NMPattern
from repro.sparsity.pruning import prune_dense
from repro.workloads.synthetic import random_dense

RTOL = 2e-5
ATOL = 2e-5

#: The seven equivalence patterns every kernel is validated over.
PATTERNS = [
    NMPattern(2, 4, vector_length=4),
    NMPattern(1, 4, vector_length=2),
    NMPattern(3, 8, vector_length=4),
    NMPattern(4, 8, vector_length=8),
    NMPattern(8, 32, vector_length=32),
    NMPattern(4, 32, vector_length=16),
    NMPattern(4, 4, vector_length=4),  # dense degenerate
]


class ToyBackend:
    """Minimal protocol-satisfying backend used across these tests."""

    name = "toy"

    def supports(self, request):
        return True

    def run(self, request):
        return ExecutionResult(
            output=request.a @ request.handle.dense(), backend=self.name
        )


@pytest.fixture
def toy_backend():
    backend = register_backend(ToyBackend())
    yield backend
    unregister_backend(backend.name)


class TestRegistry:
    def test_builtins_registered_in_display_order(self):
        assert backend_names() == (
            "auto", "fast", "structural", "dense_scatter",
        )
        assert backend_names(include_auto=False) == (
            "fast", "structural", "dense_scatter",
        )
        assert [b.name for b in available_backends()] == [
            "fast", "structural", "dense_scatter",
        ]

    def test_get_backend_unknown_name(self):
        with pytest.raises(ConfigurationError, match="unknown backend"):
            get_backend("turbo")

    def test_get_backend_auto_is_not_a_backend(self):
        with pytest.raises(ConfigurationError, match="unknown backend"):
            get_backend("auto")

    def test_register_and_unregister(self, toy_backend):
        assert get_backend("toy") is toy_backend
        assert "toy" in backend_names()

    def test_duplicate_registration_rejected(self, toy_backend):
        with pytest.raises(ConfigurationError, match="already registered"):
            register_backend(ToyBackend())

    def test_replace_allows_reregistration(self, toy_backend):
        other = ToyBackend()
        assert register_backend(other, replace=True) is other
        assert get_backend("toy") is other

    def test_auto_name_reserved(self):
        bad = ToyBackend()
        bad.name = "auto"
        with pytest.raises(ConfigurationError, match="reserved"):
            register_backend(bad)

    def test_nameless_backend_rejected(self):
        class Nameless:
            def supports(self, request):
                return True

            def run(self, request):
                raise NotImplementedError

        with pytest.raises(ConfigurationError, match="nonempty string"):
            register_backend(Nameless())

    def test_backend_missing_run_rejected(self):
        class NoRun:
            name = "norun"

            def supports(self, request):
                return True

        with pytest.raises(ConfigurationError, match="`run"):
            register_backend(NoRun())

    def test_unregister_unknown(self):
        with pytest.raises(ConfigurationError, match="unknown backend"):
            unregister_backend("never-registered")

    def test_builtins_satisfy_protocol(self):
        for backend in available_backends():
            assert isinstance(backend, Backend)


class TestDeprecatedShims:
    """The ``EXECUTE_BACKENDS`` shims are gone; the registry
    (:func:`backend_names`) is the only enumeration."""

    def test_unknown_attribute_still_raises(self):
        import repro.constants as constants
        import repro.core.api as api

        with pytest.raises(AttributeError):
            constants.NO_SUCH_CONSTANT
        for module in (constants, api):
            with pytest.raises(AttributeError):
                module.EXECUTE_BACKENDS


@pytest.fixture(scope="module")
def op_handle():
    rng = np.random.default_rng(3)
    op = NMSpMM(NMPattern(2, 8, vector_length=4))
    handle = op.prepare(random_dense(64, 48, rng))
    return op, handle


class TestCustomBackendEndToEnd:
    def test_execute_dispatches_to_registered_backend(
        self, toy_backend, op_handle, rng
    ):
        op, handle = op_handle
        a = random_dense(8, handle.k, rng)
        out = op.execute(a, handle, backend="toy")
        np.testing.assert_allclose(
            out, a @ handle.dense(), rtol=RTOL, atol=ATOL
        )

    def test_run_reports_backend_provenance(
        self, toy_backend, op_handle, rng
    ):
        op, handle = op_handle
        request = op.build_request(
            random_dense(4, handle.k, rng), handle, backend="toy"
        )
        result = op.run(request)
        assert result.backend == "toy"
        assert result.decision is None  # named explicitly, not auto

    def test_builtin_run_times_and_explains(self, op_handle, rng):
        op, handle = op_handle
        request = op.build_request(random_dense(4, handle.k, rng), handle)
        result = op.run(request)
        assert result.backend == "fast"
        assert result.seconds > 0
        assert result.decision is not None
        assert result.decision.backend == "fast"

    def test_server_accepts_registered_backend(self, toy_backend):
        weights = random_dense(64, 48, np.random.default_rng(11))
        server = InferenceServer(backend="toy")
        server.register_model("m", weights, NMPattern(2, 8, vector_length=8))
        requests = generate_requests(
            [TrafficSource(model="m", k=weights.shape[0])],
            qps=50.0,
            duration_s=0.3,
            seed=3,
            synthesize_activations=True,
        )
        report = server.simulate(requests)
        assert report.backend == "toy"
        assert report.request_records

    def test_server_rejects_unregistered_backend(self):
        with pytest.raises(ServeError, match="unknown backend"):
            InferenceServer(backend="toy")  # not registered here


class TestSupportsVerdicts:
    def test_structural_reports_missing_plan(self, op_handle, rng):
        op, handle = op_handle
        bare = ExecutionRequest(
            a=random_dense(4, handle.k, rng), handle=handle
        )
        verdict = get_backend("structural").supports(bare)
        assert isinstance(verdict, str) and "plan" in verdict

    def test_fast_reports_missing_plan_only_with_trace(
        self, op_handle, rng
    ):
        op, handle = op_handle
        a = random_dense(4, handle.k, rng)
        assert get_backend("fast").supports(
            ExecutionRequest(a=a, handle=handle)
        ) is True
        verdict = get_backend("fast").supports(
            ExecutionRequest(a=a, handle=handle, trace=KernelTrace())
        )
        assert isinstance(verdict, str) and "plan" in verdict

    def test_run_surfaces_supports_reason(self, op_handle, rng):
        class Picky:
            name = "picky"

            def supports(self, request):
                return "never on Tuesdays"

            def run(self, request):  # pragma: no cover - unreachable
                raise AssertionError

        register_backend(Picky())
        try:
            op, handle = op_handle
            with pytest.raises(ConfigurationError, match="never on Tuesdays"):
                op.execute(random_dense(4, handle.k, rng), handle,
                           backend="picky")
        finally:
            unregister_backend("picky")

    def test_bare_request_plan_resolution_fails_clearly(
        self, op_handle, rng
    ):
        op, handle = op_handle
        bare = ExecutionRequest(
            a=random_dense(4, handle.k, rng), handle=handle
        )
        with pytest.raises(PlanError, match="no plan"):
            bare.resolve_plan()


@pytest.mark.parametrize("pattern", PATTERNS, ids=lambda p: p.label())
class TestDenseScatterEquivalence:
    """Acceptance: dense_scatter matches the Eq. 1 reference across all
    seven equivalence patterns."""

    def _setup(self, pattern, m=24, seed=0):
        rng = np.random.default_rng(seed)
        k = 2 * pattern.m
        n = 2 * pattern.padded_n(8)
        a = random_dense(m, k, rng)
        b = random_dense(k, n, rng)
        pruned, mask = prune_dense(pattern, b)
        comp = compress(pattern, pruned, mask)
        return a, comp

    def test_vs_reference(self, pattern):
        a, comp = self._setup(pattern)
        op = NMSpMM(pattern)
        handle = SparseHandle(compressed=comp)
        out = op.execute(a, handle, backend="dense_scatter")
        np.testing.assert_allclose(
            out, nm_spmm_reference(a, comp), rtol=RTOL, atol=ATOL
        )

    def test_vs_fast(self, pattern):
        a, comp = self._setup(pattern, seed=1)
        op = NMSpMM(pattern)
        handle = SparseHandle(compressed=comp)
        np.testing.assert_allclose(
            op.execute(a, handle, backend="dense_scatter"),
            op.execute(a, handle, backend="fast"),
            rtol=RTOL,
            atol=ATOL,
        )


class TestDenseScatterTraces:
    @pytest.mark.parametrize("strategy_pattern", [
        NMPattern(2, 8, vector_length=4),   # 75% sparse: packs under V3
        NMPattern(4, 8, vector_length=4),   # 50%: non-packing
    ], ids=["packing", "non-packing"])
    def test_trace_accounts_scatter_plus_sgemm(self, strategy_pattern, rng):
        """dense_scatter fills a trace from its *own* data movement —
        the scatter pass plus one dense SGEMM — so the FMA count is the
        full dense ``m*n*k``, not the structural path's ``m*n*w``."""
        op = NMSpMM(strategy_pattern)
        handle = op.prepare(random_dense(64, 48, rng))
        a = random_dense(16, handle.k, rng)
        trace = KernelTrace()
        op.execute(a, handle, trace=trace, backend="dense_scatter")
        comp = handle.compressed
        m, k, n = 16, comp.k, comp.n
        fp32 = 4
        assert trace.fma_ops == m * n * k
        assert trace.ldg_a_bytes == m * k * fp32
        assert trace.ldg_b_bytes == comp.values_bytes() + k * n * fp32
        assert trace.ldg_d_bytes == comp.indices_bytes()
        assert trace.stg_bytes == k * n * fp32 + m * n * fp32
        # No shared-memory staging on the scatter+SGEMM path.
        assert trace.sts_bytes == 0 and trace.lds_bytes == 0
        # Two logical launches: the scatter and the SGEMM.
        assert trace.blocks == 2
        assert trace.backend == "dense_scatter"

    def test_trace_differs_from_structural_recording(self, rng):
        """The backend pays dense FLOPs, so its trace must *not* match
        the structural executor's sparse recording (it did before this
        backend accounted its own events)."""
        pattern = NMPattern(2, 8, vector_length=4)
        op = NMSpMM(pattern)
        handle = op.prepare(random_dense(64, 48, rng))
        a = random_dense(16, handle.k, rng)
        recorded, own = KernelTrace(), KernelTrace()
        op.execute(a, handle, trace=recorded, backend="structural")
        op.execute(a, handle, trace=own, backend="dense_scatter")
        assert recorded.backend == "structural"
        assert own.backend == "dense_scatter"
        assert own.fma_ops > recorded.fma_ops  # dense vs 75%-sparse

    def test_capabilities_describe_the_backend(self):
        caps = DenseScatterBackend().capabilities()
        assert "scatter" in caps["traces"]
        assert caps["trace_vocabulary"] == ("scatter", "sgemm")
        assert not caps["needs_plan"]
        assert "SGEMM" in caps["description"]

    def test_logical_shapes_pad_and_trim(self, rng):
        pattern = NMPattern(2, 8, vector_length=4)
        op = NMSpMM(pattern)
        handle = op.prepare(random_dense(50, 45, rng))
        a = random_dense(6, 50, rng)
        out = op.execute(a, handle, backend="dense_scatter")
        assert out.shape == (6, 45)
        np.testing.assert_allclose(
            out, a @ handle.dense()[:50, :45], rtol=RTOL, atol=ATOL
        )
