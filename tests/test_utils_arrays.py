"""Unit tests for repro.utils.arrays."""

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.utils.arrays import (
    as_f32,
    as_f32_any_order,
    iter_tiles,
    pad_to_multiple,
    split_into_windows,
    tile_count,
)


class TestAsF32:
    def test_converts_dtype(self):
        out = as_f32(np.zeros((2, 2), dtype=np.float64))
        assert out.dtype == np.float32

    def test_no_copy_when_ready(self):
        arr = np.zeros((2, 2), dtype=np.float32)
        assert as_f32(arr) is arr

    def test_makes_contiguous(self):
        arr = np.zeros((4, 4), dtype=np.float32)[::2]
        out = as_f32(arr)
        assert out.flags["C_CONTIGUOUS"]


class TestAsF32AnyOrder:
    def test_fortran_float32_is_not_copied(self):
        arr = np.asfortranarray(np.zeros((3, 4), dtype=np.float32))
        assert as_f32_any_order(arr) is arr

    def test_c_float32_is_not_copied(self):
        arr = np.zeros((3, 4), dtype=np.float32)
        assert as_f32_any_order(arr) is arr

    def test_fortran_other_dtype_converts_in_f_order(self):
        out = as_f32_any_order(np.asfortranarray(np.ones((3, 4))))
        assert out.dtype == np.float32
        assert out.flags["F_CONTIGUOUS"] and not out.flags["C_CONTIGUOUS"]

    def test_strided_input_becomes_c_contiguous(self):
        arr = np.zeros((4, 6), dtype=np.float32)[::2, ::2]
        out = as_f32_any_order(arr)
        assert out.flags["C_CONTIGUOUS"]
        np.testing.assert_array_equal(out, arr)


class TestPadToMultiple:
    def test_no_padding_needed(self):
        arr = np.ones((4, 8), dtype=np.float32)
        assert pad_to_multiple(arr, 4, 4) is arr

    def test_pads_rows_and_cols(self):
        arr = np.ones((3, 5), dtype=np.float32)
        out = pad_to_multiple(arr, 4, 4)
        assert out.shape == (4, 8)
        assert np.all(out[:3, :5] == 1)
        assert np.all(out[3:, :] == 0)
        assert np.all(out[:, 5:] == 0)

    def test_custom_fill(self):
        arr = np.ones((1, 1), dtype=np.float32)
        out = pad_to_multiple(arr, 2, 2, fill=7.0)
        assert out[1, 1] == 7.0

    @given(
        st.integers(1, 40),
        st.integers(1, 40),
        st.integers(1, 8),
        st.integers(1, 8),
    )
    def test_result_shape_property(self, r, c, rm, cm):
        arr = np.ones((r, c), dtype=np.float32)
        out = pad_to_multiple(arr, rm, cm)
        assert out.shape[0] % rm == 0
        assert out.shape[1] % cm == 0
        assert out.shape[0] - r < rm
        assert out.shape[1] - c < cm


class TestTiles:
    def test_tile_count(self):
        assert tile_count(10, 4) == 3
        assert tile_count(8, 4) == 2
        assert tile_count(0, 4) == 0

    def test_iter_tiles(self):
        assert list(iter_tiles(10, 4)) == [(0, 4), (4, 8), (8, 10)]

    def test_iter_tiles_exact(self):
        assert list(iter_tiles(8, 4)) == [(0, 4), (4, 8)]

    @given(st.integers(1, 200), st.integers(1, 50))
    def test_tiles_cover_exactly(self, extent, tile):
        spans = list(iter_tiles(extent, tile))
        assert spans[0][0] == 0
        assert spans[-1][1] == extent
        for (_a0, a1), (b0, _b1) in zip(spans, spans[1:], strict=False):
            assert a1 == b0
        assert len(spans) == tile_count(extent, tile)


class TestSplitIntoWindows:
    def test_axis0(self):
        arr = np.arange(12, dtype=np.float32).reshape(6, 2)
        out = split_into_windows(arr, 3, axis=0)
        assert out.shape == (2, 3, 2)
        assert np.array_equal(out[0], arr[:3])

    def test_axis1(self):
        arr = np.arange(12, dtype=np.float32).reshape(2, 6)
        out = split_into_windows(arr, 2, axis=1)
        assert out.shape == (3, 2, 2)
        assert np.array_equal(out[0], arr[:, :2])

    def test_rejects_indivisible(self):
        with pytest.raises(ValueError, match="divisible"):
            split_into_windows(np.zeros((5, 2)), 3, axis=0)

    def test_rejects_bad_axis(self):
        with pytest.raises(ValueError):
            split_into_windows(np.zeros((4, 2)), 2, axis=2)
