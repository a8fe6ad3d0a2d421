"""Unit tests for repro.sparsity.config (NMPattern)."""

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.errors import PatternError
from repro.sparsity.config import NMPattern, sparsity_ratio


class TestSparsityRatio:
    def test_2_4(self):
        assert sparsity_ratio(2, 4) == 0.5

    def test_dense(self):
        assert sparsity_ratio(4, 4) == 0.0

    def test_rejects_n_gt_m(self):
        with pytest.raises(PatternError):
            sparsity_ratio(5, 4)


class TestNMPatternBasics:
    def test_fig1_example(self):
        p = NMPattern(2, 4, vector_length=4)
        assert p.sparsity == 0.5
        assert p.density == 0.5
        assert not p.is_high_sparsity

    def test_paper_patterns_sparsity(self):
        assert NMPattern(16, 32).sparsity == 0.5
        assert NMPattern(12, 32).sparsity == 0.625
        assert NMPattern(8, 32).sparsity == 0.75
        assert NMPattern(4, 32).sparsity == 0.875

    def test_high_sparsity_threshold(self):
        # §III-A: above 70% is high sparsity.
        assert not NMPattern(16, 32).is_high_sparsity
        assert not NMPattern(12, 32).is_high_sparsity  # 62.5%
        assert NMPattern(8, 32).is_high_sparsity  # 75%
        assert NMPattern(4, 32).is_high_sparsity

    def test_dense_pattern(self):
        p = NMPattern(32, 32)
        assert p.sparsity == 0.0
        assert p.ideal_speedup == 1.0

    def test_rejects_n_gt_m(self):
        with pytest.raises(PatternError):
            NMPattern(5, 4)

    def test_rejects_zero_n(self):
        with pytest.raises(Exception):
            NMPattern(0, 4)

    def test_index_bits(self):
        assert NMPattern(2, 4).index_bits == 2
        assert NMPattern(4, 32).index_bits == 5

    def test_ideal_speedup(self):
        assert NMPattern(8, 32).ideal_speedup == 4.0
        assert NMPattern(4, 32).ideal_speedup == 8.0

    def test_label(self):
        assert NMPattern(2, 4, 4).label() == "2:4xL4"

    def test_str(self):
        assert "50.0%" in str(NMPattern(2, 4))


class TestShapeArithmetic:
    def test_compressed_rows_exact(self):
        assert NMPattern(2, 4).compressed_rows(16) == 8

    def test_compressed_rows_padded(self):
        # k=18 pads to 20 windows of M=4 -> 5 windows * N=2 = 10.
        assert NMPattern(2, 4).compressed_rows(18) == 10

    def test_window_counts(self):
        p = NMPattern(2, 4, vector_length=4)
        assert p.window_count_k(16) == 4
        assert p.window_count_n(12) == 3
        assert p.window_count_n(13) == 4

    def test_padded_dims(self):
        p = NMPattern(2, 4, vector_length=4)
        assert p.padded_k(17) == 20
        assert p.padded_n(13) == 16

    @given(st.integers(1, 64), st.integers(1, 1024))
    def test_compressed_rows_bounds(self, m, k):
        p = NMPattern(max(1, m // 2), m)
        w = p.compressed_rows(k)
        # w is between density*k and density*(k+M)
        assert w >= p.density * k - 1e-9
        assert w <= p.density * (k + m)


class TestFromSparsity:
    def test_exact_construction(self):
        assert NMPattern.from_sparsity(0.875, m=32).n == 4
        assert NMPattern.from_sparsity(0.5, m=4).n == 2

    def test_rejects_unrepresentable(self):
        with pytest.raises(PatternError):
            NMPattern.from_sparsity(0.3, m=4)

    def test_rejects_total_sparsity(self):
        with pytest.raises(PatternError):
            NMPattern.from_sparsity(1.0, m=4)

    @given(st.sampled_from([4, 8, 16, 32]), st.integers(1, 32))
    def test_round_trip(self, m, n_raw):
        n = min(n_raw, m)
        p = NMPattern(n, m)
        p2 = NMPattern.from_sparsity(p.sparsity, m=m)
        assert p2.n == n


class TestHashabilityAndEquality:
    def test_frozen(self):
        p = NMPattern(2, 4)
        with pytest.raises(Exception):
            p.n = 3  # type: ignore[misc]

    def test_equality(self):
        assert NMPattern(2, 4, 4) == NMPattern(2, 4, 4)
        assert NMPattern(2, 4, 4) != NMPattern(2, 4, 8)

    def test_usable_as_dict_key(self):
        d = {NMPattern(2, 4): "x"}
        assert d[NMPattern(2, 4)] == "x"
