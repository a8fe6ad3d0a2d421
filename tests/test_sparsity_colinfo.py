"""Unit tests for repro.sparsity.colinfo (offline pre-processing)."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import CompressionError
from repro.sparsity.colinfo import (
    expected_packed_fraction,
    packed_fraction_bounds,
    preprocess_offline,
    query_col_info,
)
from repro.sparsity.compress import compress
from repro.sparsity.config import NMPattern
from repro.sparsity.pruning import prune_dense


def _compressed(pattern, k, n, seed=0):
    rng = np.random.default_rng(seed)
    b = rng.standard_normal((k, n)).astype(np.float32)
    pruned, mask = prune_dense(pattern, b)
    return compress(pattern, pruned, mask)


class TestExpectedFraction:
    def test_single_window(self):
        p = NMPattern(4, 32)
        assert expected_packed_fraction(p, 1) == pytest.approx(0.125)

    def test_multiple_windows(self):
        p = NMPattern(4, 32)
        assert expected_packed_fraction(p, 4) == pytest.approx(
            1 - 0.875**4
        )

    def test_dense_pattern(self):
        p = NMPattern(32, 32)
        assert expected_packed_fraction(p, 3) == 1.0

    def test_rejects_bad_qs(self):
        with pytest.raises(ValueError):
            expected_packed_fraction(NMPattern(2, 4), 0)

    @given(st.integers(1, 16))
    def test_monotone_in_qs(self, qs):
        p = NMPattern(4, 32)
        assert expected_packed_fraction(p, qs) <= expected_packed_fraction(
            p, qs + 1
        )

    @given(st.integers(1, 16))
    def test_within_bounds(self, qs):
        p = NMPattern(4, 32)
        best, worst = packed_fraction_bounds(p, qs)
        frac = expected_packed_fraction(p, qs)
        assert best - 1e-12 <= frac <= worst + 1e-12

    def test_bounds_paper_quotes(self):
        # §III-C1: identical patterns -> N/M; disjoint -> qs*N/M.
        p = NMPattern(4, 32)
        best, worst = packed_fraction_bounds(p, 4)
        assert best == pytest.approx(0.125)
        assert worst == pytest.approx(0.5)


class TestQueryColInfo:
    def test_cols_sorted_unique(self, pattern_2_4):
        comp = _compressed(pattern_2_4, 16, 12)
        cols, local = query_col_info(pattern_2_4, comp.indices[:4], 0)
        assert np.all(np.diff(cols) > 0)

    def test_local_indexes_cols(self, pattern_2_4):
        comp = _compressed(pattern_2_4, 16, 12)
        d_tile = comp.indices[:4]
        cols, local = query_col_info(pattern_2_4, d_tile, 0)
        # Reconstructed relative rows must equal the original gather rows.
        u = np.arange(4)[:, None]
        rel = (u // 2) * 4 + d_tile.astype(np.int64)
        assert np.array_equal(cols[local], rel)

    def test_unaligned_base_rejected(self, pattern_2_4):
        comp = _compressed(pattern_2_4, 16, 12)
        with pytest.raises(CompressionError):
            query_col_info(pattern_2_4, comp.indices[1:3], 1)


def _packed_widths(info):
    """``(k-blocks, n-blocks)`` packed A-tile column counts."""
    return np.array([[c.size for c in row] for row in info.cols])


class TestPreprocessOffline:
    def test_tile_grid_shape(self, pattern_2_4):
        comp = _compressed(pattern_2_4, 32, 16)  # w=16, q=4
        info = preprocess_offline(comp, ws=8, ns=8)
        assert info.num_k_blocks == 2
        assert len(info.cols[0]) == 2  # n-blocks

    def test_packed_width_bounds(self, pattern_2_4):
        comp = _compressed(pattern_2_4, 32, 16)
        info = preprocess_offline(comp, ws=8, ns=8)
        ks = 16  # 8 compressed rows * M/N
        widths = _packed_widths(info)
        assert widths.min() >= 8 and widths.max() <= ks  # >= ws, <= ks

    def test_max_and_mean(self, pattern_2_4):
        comp = _compressed(pattern_2_4, 32, 16)
        info = preprocess_offline(comp, ws=8, ns=8)
        widths = _packed_widths(info)
        assert widths.max() <= 16
        assert 0 < widths.mean() / 16 <= 1.0

    def test_overhead_small(self):
        # Paper: col_info adds 1-10% memory overhead.
        p = NMPattern(4, 32, vector_length=32)
        comp = _compressed(p, 256, 256)
        info = preprocess_offline(comp, ws=32, ns=128)
        assert info.col_info_bytes() / comp.values_bytes() < 0.5

    def test_ws_alignment_enforced(self, pattern_2_4):
        comp = _compressed(pattern_2_4, 32, 16)
        with pytest.raises(CompressionError):
            preprocess_offline(comp, ws=3, ns=8)

    def test_ns_alignment_enforced(self, pattern_2_4):
        comp = _compressed(pattern_2_4, 32, 16)
        with pytest.raises(CompressionError):
            preprocess_offline(comp, ws=8, ns=6)

    @settings(max_examples=15, deadline=None)
    @given(st.integers(0, 50))
    def test_identical_patterns_reach_lower_bound(self, seed):
        """When every window picks the same slots, packing reaches N/M."""
        p = NMPattern(2, 8, vector_length=4)
        k, n = 32, 16
        # Build B where only slots {1, 5} of every window are nonzero.
        b = np.zeros((k, n), dtype=np.float32)
        rng = np.random.default_rng(seed)
        for g in range(k // 8):
            b[g * 8 + 1] = rng.standard_normal(n)
            b[g * 8 + 5] = rng.standard_normal(n)
        comp = compress(p, b)
        info = preprocess_offline(comp, ws=8, ns=16)
        # packed width = ws exactly (identical patterns)
        assert _packed_widths(info).max() == 8
