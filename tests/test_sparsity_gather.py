"""Unit tests for the fast backend's precomputed gather layout."""

import numpy as np
import pytest

from repro.errors import CompressionError
from repro.sparsity.compress import compress, decompress
from repro.sparsity.config import NMPattern
from repro.sparsity.gather import GatherLayout, build_gather_layout
from repro.sparsity.pruning import prune_dense
from repro.workloads.synthetic import random_dense

PATTERNS = [
    NMPattern(2, 4, vector_length=4),
    NMPattern(1, 4, vector_length=2),
    NMPattern(3, 8, vector_length=4),
    NMPattern(8, 32, vector_length=32),
    NMPattern(4, 4, vector_length=4),  # dense degenerate
]


def _compressed(pattern, k_windows=3, n_windows=2, seed=0):
    rng = np.random.default_rng(seed)
    k = k_windows * pattern.m
    n = n_windows * pattern.vector_length
    b = random_dense(k, n, rng)
    pruned, mask = prune_dense(pattern, b)
    return compress(pattern, pruned, mask)


@pytest.mark.parametrize("pattern", PATTERNS, ids=lambda p: p.label())
class TestBuildGatherLayout:
    def test_shapes(self, pattern):
        comp = _compressed(pattern)
        layout = build_gather_layout(comp)
        assert layout.rows.shape == (comp.q, comp.w)
        assert layout.values.shape == (
            comp.q, comp.w, pattern.vector_length
        )
        assert layout.k == comp.k
        assert layout.q == comp.q
        assert layout.w == comp.w
        assert layout.n == comp.n

    def test_contiguity_and_dtypes(self, pattern):
        layout = build_gather_layout(_compressed(pattern))
        assert layout.rows.flags["C_CONTIGUOUS"]
        assert layout.values.flags["C_CONTIGUOUS"]
        assert layout.values.dtype == np.float32

    def test_rows_match_absolute_rows(self, pattern):
        comp = _compressed(pattern)
        layout = build_gather_layout(comp)
        np.testing.assert_array_equal(layout.rows, comp.absolute_rows().T)

    def test_values_match_window_slices(self, pattern):
        comp = _compressed(pattern)
        layout = build_gather_layout(comp)
        ell = pattern.vector_length
        for jq in range(comp.q):
            np.testing.assert_array_equal(
                layout.values[jq],
                comp.values[:, jq * ell : (jq + 1) * ell],
            )

    def test_layout_reconstructs_dense(self, pattern):
        """Scattering values through the layout's rows recovers the
        pruned dense matrix, so the layout loses no information."""
        comp = _compressed(pattern)
        layout = build_gather_layout(comp)
        ell = pattern.vector_length
        dense = np.zeros((comp.k, comp.n), dtype=np.float32)
        for jq in range(layout.q):
            for u in range(layout.w):
                dense[layout.rows[jq, u], jq * ell : (jq + 1) * ell] += (
                    layout.values[jq, u]
                )
        np.testing.assert_array_equal(dense, decompress(comp))


class TestGatherLayoutValidation:
    def setup_method(self):
        self.pattern = NMPattern(2, 4, vector_length=4)
        self.comp = _compressed(self.pattern)
        self.layout = build_gather_layout(self.comp)

    def test_rejects_2d_values(self):
        with pytest.raises(CompressionError, match=r"\(q, w, L\)"):
            GatherLayout(
                pattern=self.pattern,
                rows=self.layout.rows,
                values=self.layout.values.reshape(self.layout.q, -1),
                k=self.comp.k,
            )

    def test_rejects_wrong_vector_length(self):
        with pytest.raises(CompressionError, match="vector"):
            GatherLayout(
                pattern=NMPattern(2, 4, vector_length=2),
                rows=self.layout.rows,
                values=self.layout.values,
                k=self.comp.k,
            )

    def test_rejects_mismatched_rows_shape(self):
        with pytest.raises(CompressionError, match="rows shape"):
            GatherLayout(
                pattern=self.pattern,
                rows=self.layout.rows[:, :-1],
                values=self.layout.values,
                k=self.comp.k,
            )

    def test_rejects_wrong_k(self):
        with pytest.raises(CompressionError, match="compressed rows"):
            GatherLayout(
                pattern=self.pattern,
                rows=self.layout.rows,
                values=self.layout.values,
                k=self.comp.k + self.pattern.m,
            )

    def test_rejects_non_float32_values(self):
        with pytest.raises(CompressionError, match="float32"):
            GatherLayout(
                pattern=self.pattern,
                rows=self.layout.rows,
                values=self.layout.values.astype(np.float64),
                k=self.comp.k,
            )

    def test_rejects_non_integer_rows(self):
        with pytest.raises(CompressionError, match="integer"):
            GatherLayout(
                pattern=self.pattern,
                rows=self.layout.rows.astype(np.float32),
                values=self.layout.values,
                k=self.comp.k,
            )

    def test_rejects_out_of_range_rows(self):
        bad = self.layout.rows.copy()
        bad[0, 0] = self.comp.k
        with pytest.raises(CompressionError, match="lie in"):
            GatherLayout(
                pattern=self.pattern,
                rows=bad,
                values=self.layout.values,
                k=self.comp.k,
            )

    def test_values_are_the_matrix_storage(self):
        """The layout holds B' once: its values are the compressed
        matrix's window-major storage, so caching a layout adds only
        the gather rows."""
        assert self.layout.values is self.comp.blocks
        assert self.layout.nbytes() == (
            self.comp.values_bytes() + self.layout.rows.nbytes
        )


class TestRowsDtype:
    """ROADMAP item: int32 gather rows halve the layout's index memory."""

    def test_rows_built_int32_when_k_fits(self):
        layout = build_gather_layout(
            _compressed(NMPattern(2, 8, vector_length=4))
        )
        assert layout.rows.dtype == np.int32
        assert layout.rows.nbytes == layout.rows.size * 4

    def test_int32_halves_index_bytes_vs_int64(self):
        comp = _compressed(NMPattern(2, 8, vector_length=4))
        narrow = build_gather_layout(comp)
        wide = GatherLayout(
            pattern=narrow.pattern,
            rows=narrow.rows.astype(np.int64),
            values=narrow.values,
            k=narrow.k,
        )
        assert narrow.rows.nbytes * 2 == wide.rows.nbytes
        assert narrow.nbytes() < wide.nbytes()

    def test_large_k_numerics_unchanged(self):
        """On a large-k problem the int32 layout gathers the same rows
        and produces bit-identical output to an int64 layout."""
        from repro.kernels.fast import nm_spmm_fast
        from repro.kernels.reference import nm_spmm_reference

        pattern = NMPattern(2, 8, vector_length=4)
        rng = np.random.default_rng(5)
        k, n = 4096, 16
        b = random_dense(k, n, rng)
        pruned, mask = prune_dense(pattern, b)
        comp = compress(pattern, pruned, mask)
        layout = build_gather_layout(comp)
        assert layout.rows.dtype == np.int32
        np.testing.assert_array_equal(
            layout.rows, comp.absolute_rows().T.astype(np.int64)
        )
        wide = GatherLayout(
            pattern=layout.pattern,
            rows=layout.rows.astype(np.int64),
            values=layout.values,
            k=layout.k,
        )
        a = random_dense(4, k, rng)
        out = nm_spmm_fast(a, layout)
        np.testing.assert_array_equal(out, nm_spmm_fast(a, wide))
        np.testing.assert_allclose(
            out, nm_spmm_reference(a, comp), rtol=5e-4, atol=5e-4
        )
