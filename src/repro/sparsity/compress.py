"""Compression of a pruned matrix B into the paper's ``(B', D)`` pair.

Fig. 1 of the paper: the N retained vectors of every pruning window are
stored contiguously in a compressed matrix ``B'[w][n]`` (``w = k*N/M``)
and the index matrix ``D[w][q]`` (``q = n/L``) records, for each
compressed row ``u`` and column window ``j``, which of the M slots the
vector came from.  The original row of compressed entry ``(u, j)`` is::

    row = (u // N) * M + D[u][j]

which is the ``u*M/N + D[u][j/L]`` indexing of Eq. 1.

Storage order: ``B'`` is held window-major, one C-contiguous
``(q, w, L)`` float32 array whose ``blocks[jq]`` is ``B'[:, jq*L:(jq+1)*L]``,
the operand order of the fast gather-GEMM: the
:class:`~repro.sparsity.gather.GatherLayout` uses this array, not a copy.
Row-major readers (the structural executors) take a temporary from
:attr:`NMCompressedMatrix.values`.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.constants import FP32_BYTES
from repro.errors import CompressionError, ShapeError
from repro.sparsity.config import NMPattern
from repro.sparsity.index_matrix import (
    absolute_rows,
    index_dtype_for,
    validate_index_matrix,
)
from repro.sparsity.masks import (
    vector_mask_to_element_mask,
    window_indices_from_mask,
)
from repro.sparsity.pruning import magnitude_indices
from repro.utils.arrays import as_f32, pad_to_multiple
from repro.utils.validation import check_matrix

__all__ = ["NMCompressedMatrix", "compress", "decompress"]


@dataclass(frozen=True, init=False)
class NMCompressedMatrix:
    """A vector-wise N:M compressed weight matrix (``B'`` + ``D``).

    ``values`` may be row-major ``(w, n)`` (copied into window-major
    storage) or window-major ``(q, w, L)`` (kept when C-contiguous).

    Attributes
    ----------
    pattern:
        The :class:`NMPattern` used for compression.
    blocks:
        ``B'`` window-major: ``(q, w, L)`` float32, ``blocks[jq]`` the
        retained vectors of column window ``jq`` in compressed-row order.
    indices:
        ``D`` of shape ``(w, q)`` in the narrowest unsigned dtype that
        holds values in ``[0, M)``.
    k:
        Row count of the original (padded) dense matrix, a multiple of M.
    """

    pattern: NMPattern
    blocks: np.ndarray
    indices: np.ndarray
    k: int
    _cache: dict = field(repr=False, compare=False)

    def __init__(
        self, pattern: NMPattern, values: np.ndarray, indices: np.ndarray, k: int
    ) -> None:
        ell = pattern.vector_length
        if np.ndim(values) != 3:
            w, n = check_matrix("values", values, dtype=np.float32).shape
            if n % ell != 0:
                raise CompressionError(f"values has n={n}, not a multiple of L={ell}")
            values = values.reshape(w, n // ell, ell).transpose(1, 0, 2)
        blocks = np.ascontiguousarray(values)
        if blocks.dtype != np.float32 or blocks.shape[2] != ell:
            raise CompressionError(
                f"values must be (q, w, L={ell}) float32, got {blocks.shape} {blocks.dtype}"
            )
        if k % pattern.m != 0:
            raise CompressionError(
                f"k={k} is not a multiple of M={pattern.m}; pad the dense "
                f"matrix to k={pattern.padded_k(k)} before compressing"
            )
        q, w, _ = blocks.shape
        expected_w = pattern.compressed_rows(k)
        if w != expected_w:
            raise CompressionError(
                f"values has {w} rows but pattern expects w={expected_w} for k={k}"
            )
        if indices.shape != (w, q):
            raise CompressionError(
                f"indices shape {indices.shape} != expected (w={w}, q={q})"
            )
        validate_index_matrix(pattern, indices)
        # Frozen: assign past the dataclass's __setattr__.
        vars(self).update(pattern=pattern, blocks=blocks, indices=indices, k=k, _cache={})

    # ------------------------------------------------------------------
    # Shape properties
    # ------------------------------------------------------------------
    @property
    def w(self) -> int:
        """Compressed row count ``k*N/M``."""
        return self.blocks.shape[1]

    @property
    def n(self) -> int:
        """Column count (shared with the dense original)."""
        return self.q * self.pattern.vector_length

    @property
    def q(self) -> int:
        """Pruning windows per row, ``n/L``."""
        return self.blocks.shape[0]

    @property
    def num_windows_k(self) -> int:
        """Pruning windows along the reduction dimension, ``k/M``."""
        return self.k // self.pattern.m

    @property
    def nnz(self) -> int:
        """Stored (retained) element count, ``w * n``."""
        return self.blocks.size

    # ------------------------------------------------------------------
    # Memory accounting (used by the traffic model and by Fig. 10's AI)
    # ------------------------------------------------------------------
    def values_bytes(self) -> int:
        """Bytes of B' (FP32)."""
        return self.nnz * FP32_BYTES

    def indices_bytes(self, packed: bool = False) -> int:
        """Bytes of D.  ``packed=True`` accounts at the theoretical
        ``ceil(log2 M)``-bit width of §III-B1 instead of the stored
        dtype width."""
        if packed:
            return -(-self.indices.size * self.pattern.index_bits // 8)
        return self.indices.size * self.indices.dtype.itemsize

    def total_bytes(self) -> int:
        """Total storage of the compressed representation."""
        return self.values_bytes() + self.indices_bytes()

    def compression_ratio(self) -> float:
        """Dense bytes divided by compressed bytes (> 1 is smaller)."""
        dense = self.k * self.n * FP32_BYTES
        return dense / self.total_bytes()

    # ------------------------------------------------------------------
    # Views
    # ------------------------------------------------------------------
    def window_indices(self) -> np.ndarray:
        """Indices reshaped to ``(g, N, q)``."""
        return self.indices.reshape(self.num_windows_k, self.pattern.n, self.q)

    def vector_mask(self) -> np.ndarray:
        """Recover the ``(g, M, q)`` vector mask."""
        if "vector_mask" not in self._cache:
            from repro.sparsity.masks import mask_from_indices

            self._cache["vector_mask"] = mask_from_indices(
                self.pattern, self.window_indices().astype(np.int64)
            )
        return self._cache["vector_mask"]

    def element_mask(self) -> np.ndarray:
        """Recover the ``(k, n)`` element mask."""
        return vector_mask_to_element_mask(self.pattern, self.vector_mask())

    def absolute_rows(self) -> np.ndarray:
        """``(w, q)`` original-row index of every compressed entry:
        ``(u // N) * M + D[u][j]`` (the gather rows of Eq. 1), computed
        afresh on each call."""
        return absolute_rows(self.pattern, self.indices)

    @property
    def values(self) -> np.ndarray:
        """C-contiguous row-major ``(w, n)`` ``B'``, assembled from the
        window-major storage: a new temporary on every access (a view of
        the storage when ``q == 1``, so not for writing)."""
        return np.ascontiguousarray(self.blocks.transpose(1, 0, 2)).reshape(
            self.w, self.n
        )

    def to_dense(self) -> np.ndarray:
        """Decompress back to the pruned dense ``(k, n)`` matrix."""
        return decompress(self)

    def __repr__(self) -> str:
        return (
            f"NMCompressedMatrix(pattern={self.pattern.label()}, "
            f"w={self.w}, n={self.n}, k={self.k})"
        )


def compress(
    pattern: NMPattern,
    b: np.ndarray,
    vector_mask: np.ndarray | None = None,
    *,
    pad: bool = True,
) -> NMCompressedMatrix:
    """Compress a dense matrix ``b`` under ``pattern``.

    When ``vector_mask`` is None, each window's N highest-energy
    vectors (:func:`repro.sparsity.pruning.magnitude_indices`) are
    gathered straight from ``b`` — pruning and compression in one
    selection.  An explicit ``(g, M, q)`` ``vector_mask`` keeps exactly
    the vectors it marks, whatever their values.
    """
    b = as_f32(check_matrix("b", b))
    if pad:
        b = pad_to_multiple(b, pattern.m, pattern.vector_length)
    k, n = b.shape
    if k % pattern.m != 0 or n % pattern.vector_length != 0:
        raise ShapeError(
            f"b shape {b.shape} not divisible by (M={pattern.m}, "
            f"L={pattern.vector_length}); pass pad=True"
        )
    if vector_mask is None:
        indices = magnitude_indices(pattern, b)  # (g, N, q)
    else:
        indices = window_indices_from_mask(pattern, vector_mask)
    g, _, q = indices.shape
    d = indices.reshape(g * pattern.n, q).astype(index_dtype_for(pattern.m))
    # Gather straight into the window-major (q, w, L) storage: entry
    # (jq, u) is the L-vector at row (u // N) * M + D[u, jq], window jq.
    blocks = b.reshape(k, q, pattern.vector_length)[
        absolute_rows(pattern, d).T, np.arange(q)[:, None]
    ]
    return NMCompressedMatrix(pattern=pattern, values=blocks, indices=d, k=k)


def decompress(compressed: NMCompressedMatrix) -> np.ndarray:
    """Expand ``(B', D)`` back to the pruned dense ``(k, n)`` matrix —
    the exact inverse of :func:`compress` on pruned input."""
    pattern = compressed.pattern
    g, q = compressed.num_windows_k, compressed.q
    # (q, w, L) storage viewed as (g, N, q, L): no copy of B'.
    values = compressed.blocks.reshape(
        q, g, pattern.n, pattern.vector_length
    ).transpose(1, 2, 0, 3)
    indices = compressed.window_indices().astype(np.int64)
    out = np.zeros((g, pattern.m, q, pattern.vector_length), dtype=np.float32)
    np.put_along_axis(out, indices[:, :, :, None], values, axis=1)
    return out.reshape(compressed.k, compressed.n)
