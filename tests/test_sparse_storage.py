"""The window-major ``B'`` storage against the row-major format it
replaced.

:class:`~repro.sparsity.compress.NMCompressedMatrix` holds ``B'`` as a
``(q, w, L)`` array that doubles as the gather layout's values.  The
property below draws N:M:L patterns, ``(k, n)`` shapes (usually padded)
and seeds, and checks for each example that

* ``decompress(compress(b))`` is the pruned dense ``prune_dense(b)``;
* column and row shards put back together are the unsharded dense;
* ``nm_spmm_fast``, ``nm_spmm_fast_t``, ``nm_spmm_functional`` and the
  blocked and packed executors give the bits they give on a frozen
  copy of the row-major ``compress`` and ``build_gather_layout``
  (``_frozen_compress`` / ``_frozen_layout``, kept here as the
  reference; the last three read its row-major ``B'`` in place of
  :attr:`~repro.sparsity.compress.NMCompressedMatrix.values`).

Tier-1 draws :data:`TIER1_EXAMPLES` examples; CI re-runs the file under
the ``serve-fuzz`` Hypothesis profile (``tests/conftest.py``).
"""

from __future__ import annotations

from unittest import mock

import numpy as np
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.core.api import NMSpMM
from repro.distributed.shard import shard_column, shard_row
from repro.kernels.blocked import nm_spmm_blocked
from repro.kernels.fast import nm_spmm_fast, nm_spmm_fast_t
from repro.kernels.functional import nm_spmm_functional
from repro.kernels.packed import nm_spmm_packed
from repro.kernels.tiling import TileParams
from repro.sparsity.compress import NMCompressedMatrix, decompress
from repro.sparsity.config import NMPattern
from repro.sparsity.gather import GatherLayout
from repro.sparsity.index_matrix import index_dtype_for
from repro.sparsity.pruning import prune_dense
from repro.utils.arrays import pad_to_multiple

TIER1_EXAMPLES = 15

EXAMPLES = (
    settings().max_examples
    if settings.get_current_profile_name() == "serve-fuzz"
    else TIER1_EXAMPLES
)


# ----------------------------------------------------------------------
# The frozen row-major format: B' as (w, n), the gather layout built
# from int64 absolute rows and a window-major copy of the values.
# ----------------------------------------------------------------------
def _frozen_compress(pattern, b):
    """Row-major ``(B', D, k)``: whole-matrix float64 scores, a stable
    top-N per window, the retained vectors gathered into ``(w, n)``."""
    b = pad_to_multiple(np.ascontiguousarray(b, dtype=np.float32), pattern.m, pattern.vector_length)
    k, n = b.shape
    g, q, ell = k // pattern.m, n // pattern.vector_length, pattern.vector_length
    windows = b.reshape(g, pattern.m, q, ell)
    scores = np.square(windows.astype(np.float64)).sum(axis=3)
    if pattern.n == pattern.m:
        indices = np.broadcast_to(np.arange(pattern.m)[:, None], scores.shape)
    else:
        order = np.argsort(-scores, axis=1, kind="stable")
        indices = np.sort(order[:, : pattern.n, :], axis=1)
    gathered = np.take_along_axis(windows, indices[:, :, :, None], axis=1)
    values = np.ascontiguousarray(gathered.reshape(g * pattern.n, n), dtype=np.float32)
    d = indices.reshape(g * pattern.n, q).astype(index_dtype_for(pattern.m))
    return values, d, k


def _frozen_layout(pattern, values, d, k):
    w = values.shape[0]
    u = np.arange(w, dtype=np.int64)[:, None]
    absolute = (u // pattern.n) * pattern.m + d.astype(np.int64)
    rows = np.ascontiguousarray(absolute.T, dtype=np.int32)
    blocks = np.ascontiguousarray(
        values.reshape(w, d.shape[1], pattern.vector_length).transpose(1, 0, 2)
    )
    return GatherLayout(pattern=pattern, rows=rows, values=blocks, k=k)


def _bits(x):
    return x.dtype, x.shape, x.tobytes()


@st.composite
def _cases(draw):
    m_ = draw(st.sampled_from([1, 2, 3, 4, 8, 16]))
    n_ = draw(st.integers(1, m_))
    ell = draw(st.sampled_from([1, 2, 4, 8, 16, 32]))
    pattern = NMPattern(n_, m_, vector_length=ell)
    k = draw(st.integers(1, 4 * m_ + 1))
    n = draw(st.integers(1, 3 * ell + 1))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    b = rng.standard_normal((k, n)).astype(np.float32)
    if draw(st.booleans()):
        b[rng.random(k) < 0.3] = 0.0  # all-zero vectors: equal energies
    m = draw(st.sampled_from([1, 3, 40]))
    a = rng.standard_normal((m, pattern.padded_k(k))).astype(np.float32)
    ks = pattern.m * draw(st.integers(1, 3))
    return pattern, b, a, ks, draw(st.data())


@settings(
    max_examples=EXAMPLES,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow, HealthCheck.data_too_large],
)
@given(_cases())
def test_window_major_storage_matches_row_major(case):
    pattern, b, a, ks, data = case
    handle = NMSpMM(pattern).prepare(b)
    comp = handle.compressed
    values, d, k = _frozen_compress(pattern, b)
    assert _bits(comp.values) == _bits(values)
    assert _bits(comp.indices) == _bits(d)
    assert comp.k == k

    # Round trip: the pruned dense matrix (dropped entries compared as
    # +0.0; prune_dense leaves -0.0 where it zeroed a negative).
    dense = decompress(comp)
    assert _bits(dense) == _bits(prune_dense(pattern, b)[0] + np.float32(0.0))

    # Shards put back together.
    columns = shard_column(handle, data.draw(st.integers(1, comp.q)))
    assert _bits(np.hstack([s.handle.dense() for s in columns.shards])) == _bits(dense)
    rows = shard_row(handle, data.draw(st.integers(1, comp.num_windows_k)))
    assert _bits(np.vstack([s.handle.dense() for s in rows.shards])) == _bits(dense)

    # Kernels: the same bits as on the frozen row-major format.
    frozen = _frozen_layout(pattern, values, d, k)
    layout = handle.gather_layout()
    assert _bits(layout.rows) == _bits(frozen.rows)
    assert _bits(nm_spmm_fast(a, layout)) == _bits(nm_spmm_fast(a, frozen))
    at = np.ascontiguousarray(a.T)
    assert _bits(nm_spmm_fast_t(at, layout)) == _bits(nm_spmm_fast_t(at, frozen))

    # The structural executors read row-major B' through ``values``;
    # the frozen run hands them the frozen array instead.
    params = TileParams(ms=32, ns=32, mr=16, nr=32, mt=4, nt=4, ks=ks)

    def structural():
        return [
            nm_spmm_functional(a, comp),
            nm_spmm_blocked(a, comp, params),
            nm_spmm_packed(a, comp, params),
        ]

    got = structural()
    with mock.patch.object(NMCompressedMatrix, "values", property(lambda self: values)):
        want = structural()
    assert [_bits(x) for x in got] == [_bits(x) for x in want]
