"""Precomputed gather layout for the fast execution backend.

Paper §III-B2: once the retained A columns of a column window are
gathered into ``Ar``, "the innermost computation for the thread
transforms into a general matrix multiplication".  The structural
executors re-derive the gather rows from ``D`` on every call; the fast
backend instead freezes them once, at :meth:`NMSpMM.prepare` time, into
a :class:`GatherLayout`:

* ``rows[jq]`` — the absolute A rows window ``jq`` gathers, laid out
  ``(q, w)`` so each window's index list is contiguous;
* ``values[jq]`` — the matching ``(w, L)`` slice of ``B'``, laid out
  ``(q, w, L)`` so the whole product is one batched GEMM over ``q``.

``values`` is the compressed matrix's own storage, not a copy:
:class:`~repro.sparsity.compress.NMCompressedMatrix` keeps ``B'``
window-major in exactly this order, so a layout adds only its gather
rows to the weights' resident bytes.

This is the same offline/online split VENOM-style libraries apply to
their sparse formats: pay the layout conversion once per weight matrix,
then execute every batch as dense-GEMM-shaped work.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.errors import CompressionError
from repro.sparsity.compress import NMCompressedMatrix
from repro.sparsity.config import NMPattern

__all__ = ["GatherLayout", "build_gather_layout"]


@dataclass(frozen=True)
class GatherLayout:
    """The fast backend's frozen view of a compressed matrix.

    Attributes
    ----------
    pattern:
        The :class:`NMPattern` the source matrix was compressed under.
    rows:
        ``(q, w)`` integer — absolute A-row index of every compressed
        entry, window-major (``rows[jq, u] == (u // N) * M + D[u, jq]``).
        Built int32 whenever ``k`` fits (every realistic problem),
        halving the layout's index memory versus int64.
    values:
        ``(q, w, L)`` float32 — ``B'`` per column window, so window
        ``jq``'s GEMM operand ``values[jq]`` is contiguous; the source
        matrix's :attr:`~NMCompressedMatrix.blocks`, shared.
    k:
        Padded reduction dimension of the source matrix.
    """

    pattern: NMPattern
    rows: np.ndarray
    values: np.ndarray
    k: int

    def __post_init__(self) -> None:
        if self.values.ndim != 3:
            raise CompressionError(
                f"values must be (q, w, L), got shape {self.values.shape}"
            )
        if self.values.dtype != np.float32:
            raise CompressionError(
                f"values must be float32 (the kernels' only dtype), got "
                f"{self.values.dtype}"
            )
        if not np.issubdtype(self.rows.dtype, np.integer):
            raise CompressionError(
                f"rows must be an integer dtype, got {self.rows.dtype}"
            )
        q, w, ell = self.values.shape
        if ell != self.pattern.vector_length:
            raise CompressionError(
                f"values blocks are {ell} wide but the pattern's vector "
                f"length is {self.pattern.vector_length}"
            )
        if self.rows.shape != (q, w):
            raise CompressionError(
                f"rows shape {self.rows.shape} != expected (q={q}, w={w})"
            )
        if w != self.pattern.compressed_rows(self.k):
            raise CompressionError(
                f"layout has w={w} compressed rows but the pattern "
                f"expects {self.pattern.compressed_rows(self.k)} for "
                f"k={self.k}"
            )
        if self.rows.size and (
            int(self.rows.min()) < 0 or int(self.rows.max()) >= self.k
        ):
            raise CompressionError(
                f"gather rows must lie in [0, k={self.k})"
            )

    # ------------------------------------------------------------------
    @property
    def q(self) -> int:
        """Column windows, ``n / L``."""
        return self.values.shape[0]

    @property
    def w(self) -> int:
        """Compressed rows, ``k * N / M``."""
        return self.values.shape[1]

    @property
    def n(self) -> int:
        """Output columns the layout produces."""
        return self.q * self.pattern.vector_length

    def nbytes(self) -> int:
        """Bytes the fast kernel reads: values + gather indices.  The
        values are the compressed matrix's, so caching a layout costs
        only ``rows.nbytes``."""
        return self.values.nbytes + self.rows.nbytes


def build_gather_layout(compressed: NMCompressedMatrix) -> GatherLayout:
    """Convert ``(B', D)`` into the fast backend's batched-GEMM layout.

    Runs once per prepared weight matrix; the result depends only on
    the compressed matrix, never on the activations.
    """
    pattern = compressed.pattern
    # Window-major (q, w) absolute rows, each window's gather list
    # contiguous for the fast kernel's per-group ``take``:
    # rows[jq, u] = (u // N) * M + D[u, jq].  Row indices live in
    # [0, k), so int32 suffices unless k overflows it; the narrower
    # dtype halves the layout's resident index bytes.
    rows_dtype = (
        np.int32 if compressed.k <= np.iinfo(np.int32).max else np.int64
    )
    rows = compressed.indices.T.astype(rows_dtype, order="C")
    rows += np.arange(compressed.w, dtype=rows_dtype) // pattern.n * pattern.m
    return GatherLayout(
        pattern=pattern, rows=rows, values=compressed.blocks, k=compressed.k
    )
