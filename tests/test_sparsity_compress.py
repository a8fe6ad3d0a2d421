"""Unit and property tests for repro.sparsity.compress."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.api import NMSpMM
from repro.errors import CompressionError, ShapeError
from repro.sparsity.compress import NMCompressedMatrix, compress, decompress
from repro.sparsity.config import NMPattern
from repro.sparsity.gather import build_gather_layout
from repro.sparsity.masks import random_nm_mask, vector_mask_to_element_mask
from repro.sparsity.pruning import magnitude_prune, prune_dense
from repro.utils.arrays import pad_to_multiple


def _compressed(pattern, k, n, seed=0):
    rng = np.random.default_rng(seed)
    b = rng.standard_normal((k, n)).astype(np.float32)
    pruned, mask = prune_dense(pattern, b)
    return pruned, compress(pattern, pruned, mask)


class TestCompressBasics:
    def test_shapes(self, pattern_2_4):
        _, comp = _compressed(pattern_2_4, 16, 12)
        assert comp.w == 8
        assert comp.n == 12
        assert comp.q == 3
        assert comp.k == 16
        assert comp.values.shape == (8, 12)
        assert comp.indices.shape == (8, 3)

    def test_index_dtype_narrow(self, pattern_2_4):
        _, comp = _compressed(pattern_2_4, 16, 12)
        assert comp.indices.dtype == np.uint8

    def test_padding(self, pattern_2_4, rng):
        b = rng.standard_normal((15, 11)).astype(np.float32)
        comp = compress(pattern_2_4, b)
        assert comp.k == 16
        assert comp.n == 12

    def test_no_pad_rejects(self, pattern_2_4, rng):
        b = rng.standard_normal((15, 11)).astype(np.float32)
        with pytest.raises(ShapeError):
            compress(pattern_2_4, b, pad=False)

    def test_auto_mask_from_magnitude(self, pattern_2_4, rng):
        b = rng.standard_normal((16, 12)).astype(np.float32)
        pruned, mask = prune_dense(pattern_2_4, b)
        auto = compress(pattern_2_4, b)  # derives the same mask
        explicit = compress(pattern_2_4, pruned, mask)
        assert np.array_equal(auto.indices, explicit.indices)
        assert np.array_equal(auto.values, explicit.values)


class TestRoundTrip:
    def test_exact(self, pattern_2_4):
        pruned, comp = _compressed(pattern_2_4, 16, 12)
        assert np.array_equal(decompress(comp), pruned)

    def test_to_dense_alias(self, pattern_2_4):
        pruned, comp = _compressed(pattern_2_4, 16, 12)
        assert np.array_equal(comp.to_dense(), pruned)

    @settings(max_examples=30, deadline=None)
    @given(
        st.sampled_from([(1, 4, 2), (2, 4, 4), (3, 8, 4), (4, 8, 2), (8, 8, 4)]),
        st.integers(1, 3),
        st.integers(1, 3),
        st.integers(0, 99),
    )
    def test_round_trip_property(self, nml, gk, gn, seed):
        n_, m_, ell = nml
        pattern = NMPattern(n_, m_, vector_length=ell)
        rng = np.random.default_rng(seed)
        k = gk * m_
        n = gn * ell
        b = rng.standard_normal((k, n)).astype(np.float32)
        mask = random_nm_mask(pattern, k, n, rng)
        pruned = b * vector_mask_to_element_mask(pattern, mask)
        comp = compress(pattern, pruned, mask)
        assert np.array_equal(decompress(comp), pruned)

    def test_values_preserve_window_order(self, pattern_2_4):
        # Construct a matrix whose values encode their row index.
        k, n = 8, 4
        b = np.tile(
            np.arange(k, dtype=np.float32)[:, None], (1, n)
        )
        mask = random_nm_mask(pattern_2_4, k, n, np.random.default_rng(3))
        pruned = b * vector_mask_to_element_mask(pattern_2_4, mask)
        comp = compress(pattern_2_4, pruned, mask)
        # Row u of B' must equal original row (u//N)*M + D[u].
        abs_rows = comp.absolute_rows()
        for u in range(comp.w):
            for jq in range(comp.q):
                col = jq * pattern_2_4.vector_length
                expected = pruned[abs_rows[u, jq], col]
                assert comp.values[u, col] == expected


class TestAccounting:
    def test_nnz(self, pattern_2_4):
        _, comp = _compressed(pattern_2_4, 16, 12)
        assert comp.nnz == 8 * 12

    def test_bytes(self, pattern_2_4):
        _, comp = _compressed(pattern_2_4, 16, 12)
        assert comp.values_bytes() == 8 * 12 * 4
        assert comp.indices_bytes() == 8 * 3
        # packed accounting: 2 bits per entry for M=4
        assert comp.indices_bytes(packed=True) == -(-8 * 3 * 2 // 8)

    def test_compression_ratio_gt_one(self, pattern_2_4):
        _, comp = _compressed(pattern_2_4, 16, 12)
        assert comp.compression_ratio() > 1.0

    def test_compression_ratio_approaches_m_over_n(self):
        p = NMPattern(4, 32, vector_length=32)
        _, comp = _compressed(p, 256, 256)
        # ratio should be close to M/N = 8 (minus index overhead)
        assert 6.0 < comp.compression_ratio() <= 8.0


class TestValidation:
    def test_wrong_w_rejected(self, pattern_2_4):
        _, comp = _compressed(pattern_2_4, 16, 12)
        with pytest.raises(CompressionError):
            NMCompressedMatrix(
                pattern=pattern_2_4,
                values=comp.values[:-1],
                indices=comp.indices[:-1],
                k=16,
            )

    def test_wrong_indices_shape_rejected(self, pattern_2_4):
        _, comp = _compressed(pattern_2_4, 16, 12)
        with pytest.raises(CompressionError):
            NMCompressedMatrix(
                pattern=pattern_2_4,
                values=comp.values,
                indices=comp.indices[:, :-1],
                k=16,
            )

    @pytest.mark.parametrize("k", [57, 63])
    def test_k_not_a_multiple_of_m_rejected(self, k):
        """``k`` is the padded row count: a k whose window count rounds
        up to the same w used to be accepted and failed later inside
        NumPy (to_dense) or with a misleading gather-row range."""
        pattern = NMPattern(2, 8, vector_length=8)
        _, comp = _compressed(pattern, 64, 32)
        with pytest.raises(CompressionError, match=f"k={k} is not a multiple of M=8") as info:
            NMCompressedMatrix(
                pattern=pattern, values=comp.values, indices=comp.indices, k=k
            )
        assert "\n" not in str(info.value)

    def test_window_major_storage(self, pattern_2_4):
        """B' is held window-major; the row-major view is assembled from
        it, and a window-major array is taken without a copy."""
        _, comp = _compressed(pattern_2_4, 16, 12)
        assert comp.blocks.shape == (comp.q, comp.w, 4)
        assert comp.blocks.flags["C_CONTIGUOUS"]
        for jq in range(comp.q):
            np.testing.assert_array_equal(
                comp.blocks[jq], comp.values[:, 4 * jq : 4 * jq + 4]
            )
        again = NMCompressedMatrix(
            pattern=pattern_2_4, values=comp.blocks, indices=comp.indices, k=16
        )
        assert again.blocks is comp.blocks
        rebuilt = NMCompressedMatrix(
            pattern=pattern_2_4, values=comp.values, indices=comp.indices, k=16
        )
        assert rebuilt.blocks.tobytes() == comp.blocks.tobytes()
        # With L=1 a plain reshape would hand back a strided view, and
        # BLAS sums some products over such operands in another order.
        narrow = compress(NMPattern(1, 2, vector_length=1), np.ones((4, 3), np.float32))
        for matrix in (comp, narrow):
            assert matrix.values.flags["C_CONTIGUOUS"]

    def test_element_mask_recovery(self, pattern_2_4):
        pruned, comp = _compressed(pattern_2_4, 16, 12)
        element = comp.element_mask()
        # every nonzero of pruned is inside the mask
        assert np.all((pruned != 0) <= element)

    def test_absolute_rows_in_range(self, pattern_2_4):
        _, comp = _compressed(pattern_2_4, 16, 12)
        abs_rows = comp.absolute_rows()
        assert abs_rows.min() >= 0
        assert abs_rows.max() < 16
        # monotone within each window group
        grouped = abs_rows.reshape(4, 2, 3)
        assert np.all(np.diff(grouped, axis=1) > 0)

    def test_repr(self, pattern_2_4):
        _, comp = _compressed(pattern_2_4, 16, 12)
        assert "2:4" in repr(comp)


# ----------------------------------------------------------------------
# Differential test: the one-selection offline path against the frozen
# two-pass chain it replaced (rank-trick mask -> pruned dense copy ->
# compress(pruned, mask) -> gather layout).
# ----------------------------------------------------------------------
def _reference_magnitude_prune(pattern, b):
    g, q = b.shape[0] // pattern.m, b.shape[1] // pattern.vector_length
    windows = b.reshape(g, pattern.m, q, pattern.vector_length)
    scores = np.square(windows.astype(np.float64)).sum(axis=3)
    if pattern.n == pattern.m:
        return np.ones_like(scores, dtype=bool)
    order = np.argsort(-scores, axis=1, kind="stable")
    ranks = np.argsort(order, axis=1, kind="stable")
    return ranks < pattern.n


def _reference_prepare(pattern, b):
    b = pad_to_multiple(b, pattern.m, pattern.vector_length)
    mask = _reference_magnitude_prune(pattern, b)
    pruned = b * vector_mask_to_element_mask(pattern, mask).astype(b.dtype)
    compressed = compress(pattern, pruned, mask)
    return compressed, build_gather_layout(compressed), mask


def _assert_bitwise(actual, expected):
    assert actual.dtype == expected.dtype
    assert actual.shape == expected.shape
    assert actual.tobytes() == expected.tobytes()


@st.composite
def _weights(draw):
    n_, m_, ell = draw(
        st.sampled_from(
            [(1, 4, 2), (2, 4, 4), (2, 8, 8), (3, 8, 2), (1, 8, 4), (4, 4, 2), (8, 32, 1)]
        )
    )
    pattern = NMPattern(n_, m_, vector_length=ell)
    # Shapes up to three windows either way, usually not pattern
    # multiples, so compression pads.
    k = draw(st.integers(1, 3 * m_ + 1))
    n = draw(st.integers(1, 3 * ell + 1))
    rng = np.random.default_rng(draw(st.integers(0, 2**16)))
    if draw(st.booleans()):
        # Few distinct magnitudes: many equal-energy vectors per window.
        b = rng.integers(-1, 2, size=(k, n)).astype(np.float32)
    else:
        b = rng.standard_normal((k, n)).astype(np.float32)
    rows = rng.random(k) < draw(st.sampled_from([0.0, 0.25, 0.5]))
    b[rows, :] = 0.0  # all-zero vectors
    if k >= 2 and draw(st.booleans()):
        b[1] = -b[0]  # a sign-flipped copy: an exact energy tie
    return pattern, b


class TestPrepareMatchesReference:
    @settings(max_examples=150, deadline=None)
    @given(_weights())
    def test_prepare_bitwise_equals_two_pass_chain(self, case):
        pattern, b = case
        handle = NMSpMM(pattern).prepare(b)
        expected, layout, mask = _reference_prepare(pattern, b)
        got = handle.compressed
        _assert_bitwise(got.values, expected.values)
        _assert_bitwise(got.indices, expected.indices)
        assert got.k == expected.k
        _assert_bitwise(handle.gather_layout().rows, layout.rows)
        _assert_bitwise(handle.gather_layout().values, layout.values)
        padded = pad_to_multiple(b, pattern.m, pattern.vector_length)
        np.testing.assert_array_equal(magnitude_prune(pattern, padded), mask)

    @settings(max_examples=40, deadline=None)
    @given(_weights())
    def test_pre_pruned_weights_compress_to_themselves(self, case):
        pattern, b = case
        pruned, _ = prune_dense(pattern, b)
        assert np.array_equal(decompress(NMSpMM(pattern).prepare(pruned).compressed), pruned)
