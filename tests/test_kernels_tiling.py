"""Unit tests for repro.kernels.tiling (TileParams, Table I, Eq. 4/5)."""

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.errors import ConfigurationError
from repro.kernels.tiling import (
    TABLE_I,
    MatrixSizeClass,
    TileParams,
    classify_matrix,
    cmar,
    max_ks_eq5,
    max_ks_listing1,
    params_for,
)
from repro.sparsity.config import NMPattern
from repro.workloads.cases import TABLE_II_CASES

A100_SMEM = 192 * 1024


def _smem_bytes_used(p: TileParams, pattern: NMPattern, packed: bool = False) -> int:
    """Shared-memory footprint of one buffer set per Eq. 4:
    ``4*(ks*ms + ws*ns + ws*qs)`` (As charged at packed width when
    ``packed``)."""
    ws = p.ws(pattern)
    qs = p.qs(pattern)
    a_cols = ws if packed else p.ks
    return 4 * (a_cols * p.ms + ws * p.ns + ws * qs)


class TestTableI:
    def test_small_row(self):
        p = TABLE_I[MatrixSizeClass.SMALL]
        assert (p.ms, p.ns, p.mr, p.nr, p.mt, p.nt) == (32, 32, 16, 32, 4, 4)

    def test_medium_row(self):
        p = TABLE_I[MatrixSizeClass.MEDIUM]
        assert (p.ms, p.ns, p.mr, p.nr, p.mt, p.nt) == (32, 64, 32, 32, 8, 4)

    def test_large_row(self):
        p = TABLE_I[MatrixSizeClass.LARGE]
        assert (p.ms, p.ns, p.mr, p.nr, p.mt, p.nt) == (64, 128, 64, 32, 8, 8)

    def test_all_have_32_thread_warps(self):
        for p in TABLE_I.values():
            rows, cols = p.threads_per_warp_grid
            assert rows * cols == 32


class TestClassification:
    def test_table_ii_assignment(self):
        """Table II: A/B small, C/D medium, E/F large (paper §IV-A)."""
        expected = {
            "A": MatrixSizeClass.SMALL,
            "B": MatrixSizeClass.SMALL,
            "C": MatrixSizeClass.MEDIUM,
            "D": MatrixSizeClass.MEDIUM,
            "E": MatrixSizeClass.LARGE,
            "F": MatrixSizeClass.LARGE,
        }
        for label, shape in TABLE_II_CASES.items():
            assert classify_matrix(shape.m, shape.n, shape.k) == expected[label], label

    def test_params_for_uses_class(self):
        assert params_for(512, 512, 512).ms == 32
        assert params_for(4096, 4096, 4096).ms == 64


class TestTileParamsValidation:
    def test_non_multiple_of_32_rejected(self):
        # §III-B1: ms and ns must be multiples of 32 (bank conflicts).
        with pytest.raises(ConfigurationError, match="multiples of 32"):
            TileParams(ms=48, ns=32, mr=16, nr=32, mt=4, nt=4)

    def test_warp_tile_must_divide_block(self):
        with pytest.raises(ConfigurationError):
            TileParams(ms=32, ns=32, mr=24, nr=32, mt=4, nt=4)

    def test_thread_tile_must_divide_warp(self):
        with pytest.raises(ConfigurationError):
            TileParams(ms=32, ns=32, mr=16, nr=32, mt=3, nt=4)

    def test_register_budget(self):
        # mt + nt + mt*nt <= 255 (§III-B2): 16x16 = 288 > 255.
        with pytest.raises(ConfigurationError, match="register"):
            TileParams(ms=64, ns=64, mr=64, nr=64, mt=16, nt=16)

    def test_warp_grid_not_32_rejected(self):
        with pytest.raises(ConfigurationError, match="32"):
            TileParams(ms=32, ns=32, mr=32, nr=32, mt=4, nt=4).threads_per_block


class TestDerivedStructure:
    def test_threads_per_block(self):
        assert TABLE_I[MatrixSizeClass.SMALL].threads_per_block == 64
        assert TABLE_I[MatrixSizeClass.MEDIUM].threads_per_block == 64
        assert TABLE_I[MatrixSizeClass.LARGE].threads_per_block == 128

    def test_accumulator_registers(self):
        p = TABLE_I[MatrixSizeClass.LARGE]
        assert p.accumulator_registers == 8 * 8 + 8 + 8

    def test_label(self):
        assert "ms32ns32" in TABLE_I[MatrixSizeClass.SMALL].label()


class TestCMAR:
    def test_eq6_lds128(self):
        # CMAR = (1/alpha) * mt*nt/(mt+nt); alpha=1 for LDS.128.
        assert cmar(8, 8, lds_width_floats=4) == pytest.approx(4.0)

    def test_eq6_lds32(self):
        assert cmar(8, 8, lds_width_floats=1) == pytest.approx(1.0)

    def test_larger_tiles_higher_cmar(self):
        assert cmar(8, 8) > cmar(4, 4)

    def test_bad_width_rejected(self):
        with pytest.raises(ConfigurationError):
            cmar(4, 4, lds_width_floats=3)

    @given(st.sampled_from([2, 4, 8, 16]), st.sampled_from([2, 4, 8, 16]))
    def test_monotone(self, mt, nt):
        assert cmar(mt * 2, nt) >= cmar(mt, nt)


class TestKsDerivation:
    def test_eq5_budget_respected(self):
        pattern = NMPattern(16, 32, vector_length=32)
        for params in TABLE_I.values():
            ks = max_ks_eq5(pattern, params.ms, params.ns, A100_SMEM, 4096)
            # Eq. 5: 8*ks*(ms + ns*N/M) <= SM_Size
            assert 8 * ks * (params.ms + params.ns * pattern.density) <= A100_SMEM + 1e-9

    def test_ks_multiple_of_m(self):
        pattern = NMPattern(4, 32, vector_length=32)
        ks = max_ks_eq5(pattern, 64, 128, A100_SMEM, 4096)
        assert ks % 32 == 0

    def test_ks_clamped_to_k(self):
        pattern = NMPattern(16, 32, vector_length=32)
        ks = max_ks_eq5(pattern, 32, 32, A100_SMEM, 64)
        assert ks == 64

    def test_ks_grows_with_sparsity(self):
        """Higher sparsity -> smaller ws*ns term -> deeper ks."""
        ks_50 = max_ks_eq5(NMPattern(16, 32), 64, 128, A100_SMEM, 100000)
        ks_875 = max_ks_eq5(NMPattern(4, 32), 64, 128, A100_SMEM, 100000)
        assert ks_875 > ks_50

    def test_listing1_admits_deeper_ks(self):
        """Listing 1 charges As at the packed width, so its ks bound is
        at least as large as Eq. 5's (equal only when N == M)."""
        pattern = NMPattern(16, 32, vector_length=32)
        eq5 = max_ks_eq5(pattern, 64, 128, A100_SMEM, 100000)
        l1 = max_ks_listing1(pattern, 64, 128, A100_SMEM, 100000)
        assert l1 >= eq5
        dense = NMPattern(32, 32, vector_length=32)
        assert max_ks_listing1(dense, 64, 128, A100_SMEM, 100000) == max_ks_eq5(
            dense, 64, 128, A100_SMEM, 100000
        )

    def test_with_ks(self):
        pattern = NMPattern(16, 32, vector_length=32)
        p = TABLE_I[MatrixSizeClass.LARGE].with_ks(pattern, A100_SMEM, 4096)
        assert p.ks > 0
        assert p.ws(pattern) == p.ks // 2
        assert p.qs(pattern) == 4

    def test_ws_requires_ks(self):
        pattern = NMPattern(16, 32, vector_length=32)
        with pytest.raises(ConfigurationError):
            TABLE_I[MatrixSizeClass.LARGE].ws(pattern)

    def test_smem_bytes_used(self):
        pattern = NMPattern(16, 32, vector_length=32)
        p = TABLE_I[MatrixSizeClass.LARGE].with_ks(pattern, A100_SMEM, 4096)
        used = _smem_bytes_used(p, pattern)
        assert used <= A100_SMEM  # Eq. 4 with the x0.5 margin folded in
        packed = _smem_bytes_used(p, pattern, packed=True)
        assert packed < used
