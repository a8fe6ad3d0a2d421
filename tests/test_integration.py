"""End-to-end integration tests across the full stack.

These tie the functional layer, the planning layer, and the
performance model together the way a downstream user would.
"""

import importlib
import pkgutil

import numpy as np
import pytest

from repro import (
    NMPattern,
    NMSpMM,
    analyze,
    build_plan,
    compress,
    decompress,
    dense_gemm,
    nm_spmm,
    nm_spmm_functional,
    simulate_nm_spmm,
)
from repro.core.versions import OptimizationVersion
from repro.kernels.blocked import KernelTrace
from repro.model.baselines.cublas import simulate_cublas
from repro.sparsity.pruning import prune_dense
from repro.workloads.synthetic import random_dense


class TestPublicApiSurface:
    def test_top_level_exports(self):
        """Every name in ``__all__`` of ``repro`` and of each of its
        subpackages resolves (a stale re-export fails here)."""
        import repro

        packages = [repro] + [
            importlib.import_module(info.name)
            for info in pkgutil.walk_packages(repro.__path__, "repro.")
            if info.ispkg
        ]
        missing = [
            f"{package.__name__}.{name}"
            for package in packages
            for name in getattr(package, "__all__", ())
            if not hasattr(package, name)
        ]
        assert len(packages) > 10 and not missing, missing

    def test_version_string(self):
        import repro

        assert repro.__version__.count(".") == 2


class TestOfflineOnlineRoundTrip:
    def test_full_workflow(self, rng):
        """prune -> compress -> preprocess -> execute -> predict."""
        pattern = NMPattern(4, 16, vector_length=8)
        op = NMSpMM(pattern, gpu="A100", version="V3")
        w = random_dense(128, 64, rng)
        x = random_dense(32, 128, rng)

        handle = op.prepare(w)
        y = op.execute(x, handle)
        y_ref = x @ handle.dense()
        np.testing.assert_allclose(y, y_ref, rtol=2e-5, atol=2e-5)

        rep = op.predict(32, handle=handle)
        assert rep.seconds > 0
        assert rep.kernel == "NM-SpMM V3"

    def test_all_versions_same_numerics(self, rng):
        """V1/V2/V3 change the schedule, not the math."""
        pattern = NMPattern(2, 8, vector_length=4)
        w = random_dense(64, 32, rng)
        x = random_dense(16, 64, rng)
        outputs = []
        for version in ("V1", "V2", "V3"):
            op = NMSpMM(pattern, version=version)
            handle = op.prepare(w)
            outputs.append(op.execute(x, handle))
        np.testing.assert_allclose(outputs[0], outputs[1], rtol=1e-6)
        np.testing.assert_allclose(outputs[0], outputs[2], rtol=1e-6)

    def test_trace_consistent_with_plan(self, rng):
        """The executable trace must agree with the plan's geometry."""
        pattern = NMPattern(2, 8, vector_length=4)
        op = NMSpMM(pattern)
        w = random_dense(64, 64, rng)
        x = random_dense(64, 64, rng)
        handle = op.prepare(w)
        plan = op.plan_for(64, handle)
        trace = KernelTrace()
        op.execute(x, handle, trace=trace)
        from repro.utils.intmath import ceil_div

        expected_blocks = ceil_div(64, plan.params.ms) * ceil_div(
            64, plan.params.ns
        )
        assert trace.blocks == expected_blocks

    def test_dense_degenerate_pattern(self, rng):
        """N == M keeps everything: sparse product == dense product."""
        pattern = NMPattern(8, 8, vector_length=4)
        w = random_dense(32, 16, rng)
        x = random_dense(8, 32, rng)
        out = nm_spmm(x, w, pattern)
        np.testing.assert_allclose(out, dense_gemm(x, w), rtol=2e-5, atol=2e-5)


class TestAnalysisMatchesEngine:
    def test_bound_classification_consistent(self):
        """When the §III-A analysis says memory-bound (non-packed, high
        sparsity), the V1 engine must indeed be memory-limited."""
        pattern = NMPattern(4, 32, vector_length=32)
        res = analyze(pattern, 4096, 4096, 4096, "A100")
        assert res.recommend_packing
        v1 = simulate_nm_spmm(4096, 4096, 4096, pattern, "A100", version="V1")
        assert v1.stages.limiter == "memory"

    def test_packing_flips_limiter(self):
        pattern = NMPattern(4, 32, vector_length=32)
        v3 = simulate_nm_spmm(4096, 4096, 4096, pattern, "A100", version="V3")
        assert v3.stages.limiter == "compute"

    def test_plan_simulate_equals_engine(self):
        pattern = NMPattern(8, 32, vector_length=32)
        plan = build_plan(2048, 2048, 2048, pattern, "A100")
        via_plan = plan.simulate()
        direct = simulate_nm_spmm(
            2048, 2048, 2048, pattern, "A100", params=plan.params
        )
        assert via_plan.seconds == pytest.approx(direct.seconds)


class TestCompressionInterop:
    def test_compress_then_functional_then_decompress(self, rng):
        pattern = NMPattern(3, 8, vector_length=4)
        b = random_dense(64, 32, rng)
        pruned, mask = prune_dense(pattern, b)
        comp = compress(pattern, pruned, mask)
        a = random_dense(8, 64, rng)
        np.testing.assert_allclose(
            nm_spmm_functional(a, comp),
            a @ decompress(comp),
            rtol=2e-5,
            atol=2e-5,
        )


class TestEndToEndPaperStory:
    def test_deployment_decision(self):
        """The complete §III story for one deployment: at 87.5% the
        analysis recommends packing, the plan adopts it, and the
        modelled speedup beats cuBLAS by more than nmSPARSE does."""
        from repro.model.baselines.nmsparse import simulate_nmsparse

        pattern = NMPattern(4, 32, vector_length=32)
        m = n = k = 4096
        res = analyze(pattern, m, n, k, "A100")
        assert res.recommend_packing

        plan = build_plan(m, n, k, pattern, "A100")
        assert plan.uses_packing
        assert plan.version is OptimizationVersion.V3

        ours = plan.simulate()
        cub = simulate_cublas(m, n, k, "A100")
        theirs = simulate_nmsparse(m, n, k, pattern, "A100")
        assert cub.seconds / ours.seconds > cub.seconds / theirs.seconds > 1.0
