"""Persistence for compressed weights (deployment format).

A pruned model ships as its ``(B', D)`` pairs; this module stores an
:class:`NMCompressedMatrix` (plus its pattern) in a single ``.npz``
archive and restores it losslessly — the artifact an inference server
would load at startup, skipping the offline pruning pass.

Format (npz keys):

* ``values``   — ``B'`` float32 ``(w, n)``, row-major (in memory the
  matrix holds it window-major);
* ``indices``  — ``D`` unsigned ``(w, q)``;
* ``meta``     — int64 ``[n, m, vector_length, k, format_version]``.
"""

from __future__ import annotations

import io as _io
import pathlib

import numpy as np

from repro.errors import CompressionError
from repro.sparsity.compress import NMCompressedMatrix
from repro.sparsity.config import NMPattern

__all__ = ["save_compressed", "load_compressed", "FORMAT_VERSION"]

#: Bumped on any incompatible layout change.
FORMAT_VERSION = 1


def save_compressed(
    path: "str | pathlib.Path | _io.IOBase",
    compressed: NMCompressedMatrix,
) -> None:
    """Write a compressed matrix to ``path`` (``.npz``)."""
    meta = np.array(
        [
            compressed.pattern.n,
            compressed.pattern.m,
            compressed.pattern.vector_length,
            compressed.k,
            FORMAT_VERSION,
        ],
        dtype=np.int64,
    )
    np.savez_compressed(
        path,
        values=compressed.values,
        indices=compressed.indices,
        meta=meta,
    )


def load_compressed(
    path: "str | pathlib.Path | _io.IOBase",
) -> NMCompressedMatrix:
    """Read a compressed matrix written by :func:`save_compressed`.

    Validates the format version and every structural invariant (the
    constructor re-checks shapes and index ranges), so a corrupted or
    tampered archive fails loudly instead of producing wrong numerics.
    """
    with np.load(path) as archive:
        try:
            values = archive["values"]
            indices = archive["indices"]
            meta = archive["meta"]
        except KeyError as exc:
            raise CompressionError(f"archive is missing key {exc}") from exc
    if meta.shape != (5,):
        raise CompressionError(f"malformed meta block: shape {meta.shape}")
    n, m, ell, k, version = (int(v) for v in meta)
    if version != FORMAT_VERSION:
        raise CompressionError(
            f"unsupported format version {version} (expected {FORMAT_VERSION})"
        )
    pattern = NMPattern(n, m, vector_length=ell)
    return NMCompressedMatrix(
        pattern=pattern,
        values=np.ascontiguousarray(values, dtype=np.float32),
        indices=np.ascontiguousarray(indices),
        k=k,
    )
