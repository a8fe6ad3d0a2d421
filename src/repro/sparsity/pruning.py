"""Vector-wise magnitude pruning.

Given a dense weight matrix ``B[k][n]`` and an :class:`NMPattern`, keep
in every pruning window the N vectors with the largest importance and
zero the rest.  This is the standard one-shot magnitude criterion the
N:M literature uses (Mishra et al. 2021; paper §II-B) lifted to the
vector granularity of Fig. 1: a vector's importance is the sum of the
squared magnitudes of its L elements.

:func:`magnitude_indices` is the one place the selection is made (a
stable top-N: equal importance keeps the lower slot).
:func:`repro.sparsity.compress.compress` gathers ``B'`` straight from
those indices; :func:`magnitude_prune` and :func:`prune_dense` scatter
them into a mask and a pruned dense copy for callers that want the
dense view.
"""

from __future__ import annotations

import numpy as np

from repro.sparsity.config import NMPattern
from repro.sparsity.masks import mask_from_indices, vector_mask_to_element_mask
from repro.utils.arrays import as_f32, pad_to_multiple
from repro.utils.validation import check_matrix

__all__ = ["magnitude_indices", "magnitude_prune", "prune_dense", "vector_importance"]


#: Elements of ``b`` per chunk (1 MiB as float64): :func:`vector_importance`
#: widens that many at a time and :func:`magnitude_indices` sorts their
#: scores.  Whole-matrix float64 copies would be twice a weight's size.
CHUNK_ELEMENTS = 1 << 17


def vector_importance(pattern: NMPattern, b: np.ndarray) -> np.ndarray:
    """Per-vector importance scores of shape ``(g, M, q)``: the L2
    energy of each L-element vector, accumulated in float64 (``b`` is
    widened a few rows of windows at a time)."""
    b = check_matrix("b", b)
    k, n = b.shape
    g = k // pattern.m
    q = n // pattern.vector_length
    if g * pattern.m != k or q * pattern.vector_length != n:
        raise ValueError(
            f"b shape {b.shape} not divisible by (M={pattern.m}, L={pattern.vector_length})"
        )
    windows = b.reshape(g, pattern.m, q, pattern.vector_length)
    scores = np.empty((g, pattern.m, q), dtype=np.float64)
    step = max(1, CHUNK_ELEMENTS // max(1, pattern.m * n))
    for g0 in range(0, g, step):
        energy = windows[g0 : g0 + step].astype(np.float64)
        np.square(energy, out=energy)
        energy.sum(axis=3, out=scores[g0 : g0 + step])
    return scores


def magnitude_indices(pattern: NMPattern, b: np.ndarray) -> np.ndarray:
    """Ascending ``(g, N, q)`` slots of the N highest-energy vectors in
    every pruning window of ``b``; equal energies keep the lower slot.
    A read-only ``arange(M)`` view when ``N == M``."""
    scores = vector_importance(pattern, b)
    if pattern.n == pattern.m:
        return np.broadcast_to(np.arange(pattern.m)[:, None], scores.shape)
    np.negative(scores, out=scores)  # a stable ascending sort: ties keep the lower slot
    g, _, q = scores.shape
    top = np.empty((g, pattern.n, q), dtype=np.intp)
    step = max(1, CHUNK_ELEMENTS // max(1, pattern.m * b.shape[1]))
    for g0 in range(0, g, step):
        order = np.argsort(scores[g0 : g0 + step], axis=1, kind="stable")
        top[g0 : g0 + step] = np.sort(order[:, : pattern.n, :], axis=1)
    return top


def magnitude_prune(pattern: NMPattern, b: np.ndarray) -> np.ndarray:
    """Return the ``(g, M, q)`` vector mask keeping the N highest-energy
    vectors in every pruning window of ``b``."""
    return mask_from_indices(pattern, magnitude_indices(pattern, b))


def prune_dense(
    pattern: NMPattern, b: np.ndarray, *, pad: bool = True
) -> tuple[np.ndarray, np.ndarray]:
    """One-shot magnitude pruning of a dense matrix.

    Returns ``(pruned, vector_mask)`` where ``pruned`` is ``b`` (padded
    to window multiples when ``pad=True``) with dropped vectors zeroed,
    and ``vector_mask`` is the ``(g, M, q)`` boolean mask.
    """
    b = as_f32(check_matrix("b", b))
    if pad:
        b = pad_to_multiple(b, pattern.m, pattern.vector_length)
    mask = magnitude_prune(pattern, b)
    element_mask = vector_mask_to_element_mask(pattern, mask)
    return b * element_mask.astype(b.dtype), mask
