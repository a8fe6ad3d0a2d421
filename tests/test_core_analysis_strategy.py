"""Unit tests for the top-down analysis (Eq. 3) and strategy selection."""

import pytest

from repro.core.analysis import analyze, block_arithmetic_intensity
from repro.core.api import NMSpMM
from repro.core.strategy import LoadStrategy, packing_benefit, select_strategy
from repro.core.versions import OptimizationVersion
from repro.errors import ConfigurationError, PlanError
from repro.gpu.catalog import A100_80G
from repro.gpu.roofline import BoundKind
from repro.kernels.tiling import TABLE_I, MatrixSizeClass
from repro.model.calibration import DEFAULT_CALIBRATION
from repro.model.profiles import OverlapMode, profile_for_version
from repro.sparsity.config import NMPattern


def _params(pattern, k=4096):
    return TABLE_I[MatrixSizeClass.LARGE].with_ks(
        pattern, A100_80G.smem_bytes_per_sm, k
    )


def _profile(version: OptimizationVersion):
    return profile_for_version(version.value, DEFAULT_CALIBRATION, high_sparsity=True)


def _uses_double_buffering(version: OptimizationVersion) -> bool:
    """Only V3 runs the Listing-4 pipeline."""
    return _profile(version).overlap is OverlapMode.DOUBLE_BUFFER


def _prefetches_indices(version: OptimizationVersion) -> bool:
    """Only V3 prefetches Ds indices into registers, which cuts its
    index-handling instructions per step below V1/V2's."""
    return _profile(version).aux_instr_per_step < DEFAULT_CALIBRATION.aux_instr_per_step_v1v2


class TestEq3:
    def test_formula(self):
        """Check Eq. 3 against a hand computation."""
        pattern = NMPattern(16, 32, vector_length=32)
        params = _params(pattern)
        ws = params.ws(pattern)
        expected = (
            2 * params.ms * params.ns * ws
            / (params.ms * params.ks + ws * params.ns + 2 * params.ms * params.ns)
        )
        assert block_arithmetic_intensity(pattern, params) == pytest.approx(expected)

    def test_ai_decreases_with_sparsity(self):
        """§III-A: as sparsity increases, AI decreases (non-packed)."""
        ais = []
        for n in (16, 12, 8, 4):
            pattern = NMPattern(n, 32, vector_length=32)
            params = _params(pattern)
            # hold ks fixed across patterns for the pure Eq. 3 statement
            from dataclasses import replace

            params = replace(params, ks=1024)
            ais.append(block_arithmetic_intensity(pattern, params))
        assert ais == sorted(ais, reverse=True)

    def test_packing_raises_ai_at_high_sparsity(self):
        pattern = NMPattern(4, 32, vector_length=32)
        params = _params(pattern)
        assert block_arithmetic_intensity(
            pattern, params, packed=True
        ) > block_arithmetic_intensity(pattern, params, packed=False)

    def test_requires_resolved_ks(self):
        pattern = NMPattern(4, 32, vector_length=32)
        with pytest.raises(PlanError):
            block_arithmetic_intensity(pattern, TABLE_I[MatrixSizeClass.LARGE])


class TestAnalyze:
    def test_moderate_sparsity_compute_bound(self):
        """The §III-A claim: 50% sparsity at 4096^3 is compute bound on
        the A100."""
        res = analyze(NMPattern(16, 32, 32), 4096, 4096, 4096, "A100")
        assert res.bound is BoundKind.COMPUTE
        assert not res.recommend_packing

    def test_high_sparsity_memory_bound_unpacked(self):
        """87.5% without packing drops below the ridge -> memory bound
        (the transition motivating the packing strategy)."""
        pattern = NMPattern(4, 32, 32)
        params = _params(pattern)
        ai = block_arithmetic_intensity(pattern, params, packed=False) / 4.0
        from repro.gpu.roofline import Roofline

        roof = Roofline.for_gpu(A100_80G)
        assert roof.bound_kind(ai) is BoundKind.MEMORY

    def test_recommends_packing_above_threshold(self):
        res = analyze(NMPattern(4, 32, 32), 4096, 4096, 4096, "A100")
        assert res.recommend_packing

    def test_summary_text(self):
        res = analyze(NMPattern(8, 32, 32), 4096, 4096, 4096, "A100")
        assert "FLOP" in res.summary()

    def test_attainable_positive(self):
        res = analyze(NMPattern(8, 32, 32), 4096, 4096, 4096, "A100")
        assert 0 < res.attainable_tflops <= 14.8


class TestStrategy:
    def test_threshold_rule(self):
        """§III-A: <= 70% moderate (non-packing), > 70% high (packing)."""
        assert select_strategy(NMPattern(16, 32)) is LoadStrategy.NON_PACKING
        assert select_strategy(NMPattern(12, 32)) is LoadStrategy.NON_PACKING
        assert select_strategy(NMPattern(8, 32)) is LoadStrategy.PACKING
        assert select_strategy(NMPattern(4, 32)) is LoadStrategy.PACKING

    def test_custom_threshold(self):
        assert (
            select_strategy(NMPattern(16, 32), threshold=0.4)
            is LoadStrategy.PACKING
        )

    def test_packing_benefit_bounds(self):
        p = NMPattern(4, 32)
        assert 0 < packing_benefit(p, 4) < 1.0
        assert packing_benefit(p, 1) == pytest.approx(p.density)


class TestVersions:
    def test_parse(self):
        assert OptimizationVersion.parse("v2") is OptimizationVersion.V2
        assert (
            OptimizationVersion.parse(OptimizationVersion.V1)
            is OptimizationVersion.V1
        )

    @pytest.mark.parametrize(
        "build",
        [
            lambda: OptimizationVersion.parse("V9"),
            lambda: NMSpMM(NMPattern(2, 8), version="V9"),
        ],
        ids=["parse", "operator"],
    )
    def test_unknown_version_names_the_choices(self, build):
        with pytest.raises(ConfigurationError, match="V1, V2, V3"):
            build()

    def test_capabilities(self):
        assert not OptimizationVersion.V1.uses_packing
        assert OptimizationVersion.V2.uses_packing
        assert not _uses_double_buffering(OptimizationVersion.V2)
        assert _uses_double_buffering(OptimizationVersion.V3)
        assert _prefetches_indices(OptimizationVersion.V3)

    def test_strategy_for(self):
        hi = NMPattern(4, 32)
        assert OptimizationVersion.V1.strategy_for(hi) is LoadStrategy.NON_PACKING
        assert OptimizationVersion.V2.strategy_for(hi) is LoadStrategy.PACKING
        lo = NMPattern(16, 32)
        assert OptimizationVersion.V3.strategy_for(lo) is LoadStrategy.NON_PACKING

    def test_descriptions(self):
        for v in OptimizationVersion:
            assert v.description
