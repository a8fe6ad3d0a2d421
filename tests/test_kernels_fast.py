"""Equivalence and contract tests for the fast gather-GEMM kernel."""

import contextlib
import dataclasses
import multiprocessing
import os
import sys
import threading
import time
from concurrent.futures import ThreadPoolExecutor
from unittest import mock

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

import repro.kernels.fast as fast_module
from repro.errors import ShapeError
from repro.kernels.blocked import nm_spmm_blocked
from repro.kernels.fast import nm_spmm_fast, nm_spmm_fast_t
from repro.kernels.functional import nm_spmm_functional
from repro.kernels.packed import nm_spmm_packed
from repro.kernels.reference import nm_spmm_reference
from repro.kernels.tiling import TileParams
from repro.sparsity.compress import compress
from repro.sparsity.config import NMPattern
from repro.sparsity.gather import build_gather_layout
from repro.sparsity.pruning import prune_dense
from repro.workloads.synthetic import random_dense

RTOL = 2e-5
ATOL = 2e-5

PATTERNS = [
    NMPattern(2, 4, vector_length=4),
    NMPattern(1, 4, vector_length=2),
    NMPattern(3, 8, vector_length=4),
    NMPattern(4, 8, vector_length=8),
    NMPattern(8, 32, vector_length=32),
    NMPattern(4, 32, vector_length=16),
    NMPattern(4, 4, vector_length=4),  # dense degenerate
]


def _setup(pattern, m, n, k, seed=0):
    rng = np.random.default_rng(seed)
    a = random_dense(m, pattern.padded_k(k), rng)
    b = random_dense(pattern.padded_k(k), pattern.padded_n(n), rng)
    pruned, mask = prune_dense(pattern, b)
    comp = compress(pattern, pruned, mask)
    return a, comp, a @ pruned


@pytest.mark.parametrize("pattern", PATTERNS, ids=lambda p: p.label())
class TestFastEquivalence:
    def test_vs_dense(self, pattern):
        a, comp, gold = _setup(pattern, 24, 2 * pattern.padded_n(8), 2 * pattern.m)
        np.testing.assert_allclose(
            nm_spmm_fast(a, comp), gold, rtol=RTOL, atol=ATOL
        )

    def test_vs_reference(self, pattern):
        a, comp, _ = _setup(pattern, 24, 2 * pattern.padded_n(8), 2 * pattern.m)
        np.testing.assert_allclose(
            nm_spmm_fast(a, comp),
            nm_spmm_reference(a, comp),
            rtol=RTOL,
            atol=ATOL,
        )

    def test_vs_functional(self, pattern):
        a, comp, _ = _setup(pattern, 17, 3 * pattern.padded_n(8), 2 * pattern.m)
        np.testing.assert_allclose(
            nm_spmm_fast(a, comp),
            nm_spmm_functional(a, comp),
            rtol=RTOL,
            atol=ATOL,
        )

    def test_vs_blocked_and_packed(self, pattern):
        a, comp, _ = _setup(pattern, 40, 2 * pattern.padded_n(40), 3 * pattern.m)
        params = TileParams(ms=32, ns=32, mr=16, nr=32, mt=4, nt=4, ks=pattern.m)
        fast = nm_spmm_fast(a, comp)
        np.testing.assert_allclose(
            fast, nm_spmm_blocked(a, comp, params), rtol=RTOL, atol=ATOL
        )
        np.testing.assert_allclose(
            fast, nm_spmm_packed(a, comp, params), rtol=RTOL, atol=ATOL
        )

    def test_precomputed_layout_matches_on_the_fly(self, pattern):
        a, comp, _ = _setup(pattern, 8, 2 * pattern.padded_n(8), 2 * pattern.m)
        layout = build_gather_layout(comp)
        np.testing.assert_array_equal(
            nm_spmm_fast(a, layout), nm_spmm_fast(a, comp)
        )

    def test_rescale(self, pattern):
        a, comp, _ = _setup(pattern, 8, 2 * pattern.padded_n(8), 2 * pattern.m)
        scale = np.float32(pattern.m / pattern.n)
        np.testing.assert_allclose(
            nm_spmm_fast(a, comp, rescale=True),
            nm_spmm_reference(a, comp, rescale=True),
            rtol=RTOL,
            atol=ATOL,
        )
        np.testing.assert_allclose(
            nm_spmm_fast(a, comp, rescale=True),
            nm_spmm_fast(a, comp) * scale,
            rtol=RTOL,
            atol=ATOL,
        )

    def test_chunked_gather_identical(self, pattern, monkeypatch):
        """Forcing the window loop down to one-window chunks must give
        bitwise-identical output (chunking only bounds the gather
        buffer, never changes the per-window GEMMs)."""
        a, comp, _ = _setup(pattern, 24, 4 * pattern.padded_n(8), 2 * pattern.m)
        unchunked = nm_spmm_fast(a, comp)
        monkeypatch.setattr(fast_module, "GATHER_BUFFER_ELEMENTS", 1)
        np.testing.assert_array_equal(nm_spmm_fast(a, comp), unchunked)

    def test_decode_style_single_row(self, pattern):
        """m=1 (decode batches) must work — matmul broadcasting has no
        special case to fall into."""
        a, comp, gold = _setup(pattern, 1, 2 * pattern.padded_n(8), 2 * pattern.m)
        out = nm_spmm_fast(a, comp)
        assert out.shape == (1, comp.n)
        np.testing.assert_allclose(out, gold, rtol=RTOL, atol=ATOL)


#: (pattern, k, n) cases for the window-group bound.  Both have a q
#: the default group size does not divide at m=256, so the last group
#: is partial; the second is the perfbench prefill lm-head scale
#: (Llama-7B/8, k=512, 2:8 L=8) widened to q=501 windows.
BLOCKING_CASES = [
    (NMPattern(3, 8, vector_length=4), 24, 4 * 61),
    (NMPattern(2, 8, vector_length=8), 512, 8 * 501),
]


class TestWindowGroupBlocking:
    @pytest.mark.parametrize("m", [1, 256])
    @pytest.mark.parametrize(
        "pattern, k, n", BLOCKING_CASES, ids=["small", "prefill-scale"]
    )
    def test_bound_never_changes_the_bits(
        self, pattern, k, n, m, monkeypatch
    ):
        """One window per group, the default L2-sized groups and one
        group for the whole layer give bitwise-identical output: the
        bound only decides which windows share a batched matmul."""
        a, comp, _ = _setup(pattern, m, n, k)
        layout = build_gather_layout(comp)
        default_group = fast_module.GATHER_BUFFER_ELEMENTS // (layout.w * m)
        if m == 256:
            assert 1 < default_group < layout.q
            assert layout.q % default_group != 0
        blocked = nm_spmm_fast(a, layout)
        for bound in (1, 1 << 30):
            monkeypatch.setattr(fast_module, "GATHER_BUFFER_ELEMENTS", bound)
            np.testing.assert_array_equal(nm_spmm_fast(a, layout), blocked)


class TestFastShapeContract:
    def setup_method(self):
        self.pattern = NMPattern(2, 8, vector_length=4)
        self.a, self.comp, _ = _setup(self.pattern, 8, 16, 16)

    def test_undersized_a_rejected(self):
        with pytest.raises(ShapeError, match="expects"):
            nm_spmm_fast(self.a[:, :-1], self.comp)

    def test_oversized_a_rejected(self):
        padded = np.hstack(
            [self.a, np.zeros((self.a.shape[0], 8), dtype=np.float32)]
        )
        with pytest.raises(ShapeError, match="expects"):
            nm_spmm_fast(padded, self.comp)

    def test_output_dtype_and_contiguity(self):
        out = nm_spmm_fast(self.a, self.comp)
        assert out.dtype == np.float32
        assert out.flags["C_CONTIGUOUS"]


class TestFunctionalOversizeRegression:
    """`nm_spmm_functional` used to accept oversized A silently (the
    `<` vs `!=` bug also fixed in `execute()` by PR 1)."""

    def test_oversized_a_rejected(self):
        pattern = NMPattern(2, 8, vector_length=4)
        a, comp, _ = _setup(pattern, 8, 16, 16)
        oversized = np.hstack([a, np.ones((8, 8), dtype=np.float32)])
        with pytest.raises(ShapeError, match="expects"):
            nm_spmm_functional(oversized, comp)

    def test_undersized_a_still_rejected(self):
        pattern = NMPattern(2, 8, vector_length=4)
        a, comp, _ = _setup(pattern, 8, 16, 16)
        with pytest.raises(ShapeError, match="expects"):
            nm_spmm_functional(a[:, :-1], comp)

    def test_exact_k_accepted(self):
        pattern = NMPattern(2, 8, vector_length=4)
        a, comp, gold = _setup(pattern, 8, 16, 16)
        np.testing.assert_allclose(
            nm_spmm_functional(a, comp), gold, rtol=RTOL, atol=ATOL
        )


# ----------------------------------------------------------------------
# Differential test: the kernel against a frozen copy of the window-group
# loop that fancy-indexed the gather and set-item'd each group's product
# through a transposed view of the output.
# ----------------------------------------------------------------------
def _reference_group_loop(a, layout, bound):
    """Frozen fancy-index gather-GEMM: the bit oracle for the kernel."""
    a = np.asarray(a, dtype=np.float32)
    m_rows = a.shape[0]
    ell = layout.pattern.vector_length
    q, w = layout.q, layout.w
    at = np.ascontiguousarray(a.T)
    chunk_q = max(1, min(q, bound // max(1, w * m_rows)))
    out = np.empty((m_rows, q * ell), dtype=np.float32)
    out3 = out.reshape(m_rows, q, ell)
    for j0 in range(0, q, chunk_q):
        j1 = min(j0 + chunk_q, q)
        ar_t = at[layout.rows[j0:j1].reshape(-1)]
        prod = np.matmul(
            ar_t.reshape(j1 - j0, w, m_rows).transpose(0, 2, 1),
            layout.values[j0:j1],
        )
        out3[:, j0:j1] = prod.transpose(1, 0, 2)
    return out


def _assert_bitwise(actual, expected):
    assert actual.dtype == expected.dtype
    assert actual.shape == expected.shape
    assert actual.flags["C_CONTIGUOUS"]
    assert actual.tobytes() == expected.tobytes()


DIFFERENTIAL_MS = [0, 1, 3, 4, 16, 256]


def _differential_case(pattern, m):
    """A layer whose q the default group size does not divide at m=256,
    so the last window group there is partial."""
    k = 4 * pattern.m
    w = pattern.compressed_rows(k)
    chunk = fast_module.GATHER_BUFFER_ELEMENTS // (w * 256)
    q = chunk + chunk // 2 + 1
    a, comp, _ = _setup(pattern, max(m, 1), q * pattern.vector_length, k, seed=m)
    layout = build_gather_layout(comp)
    a = a[:m]  # m=0: an empty batch still returns an (0, n) product
    assert layout.q == q and 1 < chunk < q and q % chunk != 0
    return a, layout


@pytest.mark.parametrize("m", DIFFERENTIAL_MS)
@pytest.mark.parametrize("pattern", PATTERNS, ids=lambda p: p.label())
class TestMatchesFrozenGroupLoop:
    def test_bitwise(self, pattern, m):
        a, layout = _differential_case(pattern, m)
        _assert_bitwise(
            nm_spmm_fast(a, layout),
            _reference_group_loop(a, layout, fast_module.GATHER_BUFFER_ELEMENTS),
        )

    def test_fortran_ordered_a(self, pattern, m):
        a, layout = _differential_case(pattern, m)
        _assert_bitwise(
            nm_spmm_fast(np.asfortranarray(a), layout),
            _reference_group_loop(a, layout, fast_module.GATHER_BUFFER_ELEMENTS),
        )

    def test_int64_rows(self, pattern, m):
        a, layout = _differential_case(pattern, m)
        assert layout.rows.dtype == np.int32
        wide = dataclasses.replace(layout, rows=layout.rows.astype(np.int64))
        _assert_bitwise(
            nm_spmm_fast(a, wide),
            _reference_group_loop(a, layout, fast_module.GATHER_BUFFER_ELEMENTS),
        )

    @pytest.mark.parametrize("bound", [1, 1 << 30], ids=["one-window", "one-group"])
    def test_group_bounds(self, pattern, m, bound, monkeypatch):
        a, layout = _differential_case(pattern, m)
        monkeypatch.setattr(fast_module, "GATHER_BUFFER_ELEMENTS", bound)
        _assert_bitwise(
            nm_spmm_fast(a, layout), _reference_group_loop(a, layout, bound)
        )


@pytest.mark.parametrize("m", DIFFERENTIAL_MS)
@pytest.mark.parametrize("pattern", PATTERNS, ids=lambda p: p.label())
class TestFeatureMajorEntry:
    """``nm_spmm_fast_t`` runs the same group loop with the product
    transposed: its C^T is the frozen loop's C, bit for bit."""

    @pytest.mark.parametrize(
        "bound", [None, 1, 1 << 30], ids=["default", "one-window", "one-group"]
    )
    def test_transpose_of_frozen_loop(self, pattern, m, bound, monkeypatch):
        a, layout = _differential_case(pattern, m)
        if bound is not None:
            monkeypatch.setattr(fast_module, "GATHER_BUFFER_ELEMENTS", bound)
        ct = nm_spmm_fast_t(np.ascontiguousarray(a.T), layout)
        assert ct.flags["C_CONTIGUOUS"]
        assert ct.shape == (layout.n, m)
        _assert_bitwise(
            np.ascontiguousarray(ct.T),
            _reference_group_loop(a, layout, fast_module.GATHER_BUFFER_ELEMENTS),
        )


class TestFeatureMajorContract:
    def setup_method(self):
        self.pattern = NMPattern(2, 8, vector_length=4)
        self.a, self.comp, _ = _setup(self.pattern, 8, 16, 16)

    def test_wrong_k_rejected(self):
        with pytest.raises(ShapeError, match="expects"):
            nm_spmm_fast_t(np.ascontiguousarray(self.a.T)[:-1], self.comp)

    def test_rescale_matches_row_major(self):
        ct = nm_spmm_fast_t(self.a.T, self.comp, rescale=True)
        np.testing.assert_array_equal(
            ct.T, nm_spmm_fast(self.a, self.comp, rescale=True)
        )


# ----------------------------------------------------------------------
# Window spans over host cores: above ``SPLIT_MACS`` a call splits its
# windows into one contiguous span per CPU; the bits must not move.
# ----------------------------------------------------------------------
@contextlib.contextmanager
def _split_over(workers):
    """Split every call over ``workers`` spans, whatever its size."""
    with mock.patch.object(fast_module, "_cpus", return_value=workers), mock.patch.object(
        fast_module, "SPLIT_MACS", 0
    ):
        yield


def _span_case(pattern, m, q, seed):
    k = 3 * pattern.m
    a, comp, _ = _setup(pattern, m, q * pattern.vector_length, k, seed=seed)
    return a, build_gather_layout(comp)


def _run_kernel(a, layout, feature_major, rescale=False):
    """C (row-major) from either entry point."""
    if feature_major:
        ct = nm_spmm_fast_t(np.ascontiguousarray(a.T), layout, rescale=rescale)
        return np.ascontiguousarray(ct.T)
    return nm_spmm_fast(a, layout, rescale=rescale)


@st.composite
def _span_cases(draw):
    pattern = draw(st.sampled_from(PATTERNS))
    m = draw(st.sampled_from([1, 2, 5, 16]))
    chunk = draw(st.integers(2, 4))
    q = draw(st.integers(3, 25).map(lambda i: 2 * i + 1).filter(lambda q: q % chunk))
    return (
        pattern,
        m,
        q,
        chunk,
        draw(st.sampled_from([1, 2, 3])),
        draw(st.booleans()),
        draw(st.booleans()),
        draw(st.integers(0, 2**32 - 1)),
    )


@settings(max_examples=25, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(_span_cases())
def test_split_matches_frozen_group_loop(case):
    """Any worker count, an odd q and a q the group size does not
    divide: both orientations, with and without Eq. 1's prefactor, keep
    the frozen loop's bits."""
    pattern, m, q, chunk, workers, feature_major, rescale, seed = case
    a, layout = _span_case(pattern, m, q, seed)
    bound = chunk * layout.w * m
    expected = _reference_group_loop(a, layout, bound)
    if rescale:
        expected *= np.float32(pattern.m / pattern.n)
    with _split_over(workers), mock.patch.object(fast_module, "GATHER_BUFFER_ELEMENTS", bound):
        _assert_bitwise(_run_kernel(a, layout, feature_major, rescale), expected)


class TestWindowSpans:
    PATTERN = NMPattern(2, 8, vector_length=8)

    def test_concurrent_callers_get_single_thread_bits(self):
        a, layout = _span_case(self.PATTERN, 64, 41, seed=7)
        with _split_over(1):
            expected = {fm: _run_kernel(a, layout, fm) for fm in (False, True)}
        errors, results = [], []

        def caller(feature_major):
            try:
                for _ in range(20):
                    results.append(
                        _run_kernel(a, layout, feature_major).tobytes()
                        == expected[feature_major].tobytes()
                    )
            except Exception as exc:  # reported by the main thread
                errors.append(exc)

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            with _split_over(2):
                threads = [threading.Thread(target=caller, args=(fm,)) for fm in (False, True)]
                for t in threads:
                    t.start()
                for t in threads:
                    t.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
        assert not any(t.is_alive() for t in threads)
        assert errors == []
        assert results == [True] * 40

    def test_error_in_a_pool_span_waits_for_every_span_then_raises(self):
        a, layout = _span_case(self.PATTERN, 4, 9, seed=3)
        bad = dataclasses.replace(layout, rows=layout.rows.copy())
        bad.rows[4, 0] = layout.k  # out of range in the middle span only
        submitted = []
        with ThreadPoolExecutor(2) as pool:

            class SlowLastSpan:
                """Delays the last span, so a call that raised as soon
                as the middle span failed would leave it running."""

                def submit(self, fn, s0, s1):
                    def run():
                        if s1 == layout.q:
                            time.sleep(0.2)
                        fn(s0, s1)

                    submitted.append(pool.submit(run))
                    return submitted[-1]

            with _split_over(3), mock.patch.object(fast_module, "_span_pool", SlowLastSpan):
                with pytest.raises(IndexError):
                    nm_spmm_fast(a, bad)
                assert len(submitted) == 2
                assert all(f.done() for f in submitted)
                after = nm_spmm_fast(a, layout)
        with _split_over(1):
            _assert_bitwise(after, nm_spmm_fast(a, layout))

    def test_decode_never_reaches_the_pool(self, monkeypatch):
        from repro.serve.model_exec.executor import ModelExecutor

        executor = ModelExecutor(
            "llama-7b", scale=8, blocks=2, pattern=self.PATTERN, seed=0
        )
        calls = []
        factory = fast_module._span_pool
        monkeypatch.setattr(
            fast_module, "_span_pool", lambda: calls.append(1) or factory()
        )
        rng = np.random.default_rng(0)
        executor.logits(rng.standard_normal((1, executor.hidden)).astype(np.float32))
        assert calls == []
        # The same walk at prefill size does split, on a 2-core host.
        monkeypatch.setattr(fast_module, "_cpus", lambda: 2)
        executor.logits(rng.standard_normal((256, executor.hidden)).astype(np.float32))
        assert len(calls) == len(executor.layers)


def _split_call_in_child(a, layout, expected):
    with _split_over(2):
        ok = nm_spmm_fast(a, layout).tobytes() == expected.tobytes()
    os._exit(0 if ok else 1)


def test_forked_child_runs_split_calls():
    """A child forked after the pool started has none of its threads;
    its split calls must start a pool of its own instead of hanging."""
    a, layout = _span_case(NMPattern(2, 8, vector_length=8), 16, 21, seed=5)
    with _split_over(2):
        expected = nm_spmm_fast(a, layout)  # the parent's pool is running
    assert fast_module._pool is not None
    child = multiprocessing.get_context("fork").Process(
        target=_split_call_in_child, args=(a, layout, expected)
    )
    child.start()
    child.join(timeout=60)
    if child.is_alive():
        child.kill()
        child.join()
        pytest.fail("the forked child's split call hung")
    assert child.exitcode == 0
