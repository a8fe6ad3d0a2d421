"""Resident memory and bits of an executor's compressed weights.

Each layer holds ``B'`` once: window-major in its
:class:`~repro.sparsity.compress.NMCompressedMatrix`, and the fast
backend's :class:`~repro.sparsity.gather.GatherLayout` reads that same
array.  Building the executor draws and scores each weight in chunks,
so its temporaries stay near one layer's float32 weight.  The digests
pin every layer's row-major ``B'`` and ``D`` bytes, so neither the
storage order nor the chunked draw may move a bit.
"""

from __future__ import annotations

import hashlib
import json
import pathlib
import tracemalloc

import numpy as np
import pytest

from repro.serve.model_exec import ModelExecutor, long_context_summarization
from repro.sparsity.config import NMPattern

DIGESTS = json.loads(
    (
        pathlib.Path(__file__).parent / "fixtures" / "executor_weight_digests.json"
    ).read_text()
)


def _bench_executor(seed: int = 0) -> ModelExecutor:
    """The forward benchmark's executor: Llama-7B/8, 2 blocks, 2:8, L=8."""
    return ModelExecutor(
        "llama-7b",
        scale=8,
        blocks=2,
        pattern=NMPattern(2, 8, vector_length=8),
        seed=seed,
    )


def _serve_model_executor(seed: int) -> ModelExecutor:
    return long_context_summarization(seed=seed).build_executor()


def _layer_digests(executor: ModelExecutor) -> "dict[str, str]":
    out = {}
    for spec in executor.layers:
        compressed = spec.layer.handle.compressed
        h = hashlib.sha256(compressed.values.tobytes())
        h.update(compressed.indices.tobytes())
        out[spec.name] = h.hexdigest()[:16]
    return out


@pytest.mark.parametrize("seed", ["0", "4242"])
@pytest.mark.parametrize(
    "workload, build",
    [("forward", _bench_executor), ("serve-model", _serve_model_executor)],
)
def test_layer_weights_keep_their_bits(workload, build, seed):
    assert _layer_digests(build(int(seed))) == DIGESTS[workload][seed]


def test_each_layer_holds_its_values_once():
    executor = _bench_executor()
    for spec in executor.layers:
        compressed = spec.layer.handle.compressed
        layout = spec.layer.handle.gather_layout()
        assert np.shares_memory(layout.values, compressed.blocks), spec.name
        cached_rows = [
            value
            for value in compressed._cache.values()
            if isinstance(value, np.ndarray)
            and value.shape == (compressed.w, compressed.q)
        ]
        assert not cached_rows, spec.name


def test_resident_and_build_memory():
    """tracemalloc over one build of the bench executor: what stays is
    within 15% of the compressed bytes (values, ``D``, gather rows),
    and the build's temporaries stay under 1.75 LM-head dense fp32
    weights (a whole float64 draw of it alone was 2)."""
    ModelExecutor("llama-7b", scale=16, blocks=1)  # module-level set-up
    tracemalloc.start()
    try:
        executor = _bench_executor()
        resident, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    compressed_bytes = 0
    for spec in executor.layers:
        handle = spec.layer.handle
        compressed_bytes += (
            handle.compressed.values_bytes()
            + handle.compressed.indices_bytes()
            + handle.gather_layout().rows.nbytes
        )
    head = executor.layer("lm-head").layer.handle
    head_dense_bytes = head.k * head.n * 4
    assert resident <= 1.15 * compressed_bytes
    assert peak - resident <= 1.75 * head_dense_bytes
