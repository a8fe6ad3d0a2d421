"""Whole Llama models on the NM-SpMM stack: priced from shapes, run
from weights.

:class:`ModelSpec` describes every layer of a ``workloads.llama`` model
— the five :func:`~repro.workloads.llama.llama_layer_shapes` (fused
QKV, attention output, MLP gate/up, MLP down, LM head), repeated per
transformer block — as :class:`LayerSpec` records whose padded shapes
and compressed bytes are pattern arithmetic.  The paper's performance
model prices a launch from ``(m, n, k, N:M, GPU)`` alone, so serving
reads only these: :meth:`ModelSpec.stack_seconds` sums the per-layer
modeled seconds at a padded row count, and
:meth:`ModelSpec.modeled_prefill_s` (one walk at a sequence's token
count) is the continuous batcher's cost-of-recompute.

:class:`ModelExecutor` is the numerics class: a spec that also builds
every layer as an :class:`~repro.nn.linear.NMSparseLinear` (routed
through the backend registry, so format and backend can differ per
layer shape, as Shi et al. argue) and runs the NumPy forward walk.  A
packing plan's analytic trace reads ``D``, so a traced run builds its
spec's executor, from the same seed, on first use (:meth:`ModelSpec.built`).
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from functools import cache, cached_property, partial
from typing import Callable

import numpy as np

from repro.constants import FP32_BYTES
from repro.core.api import NMSpMM, SparseHandle
from repro.distributed.shard import DeviceShard, ShardedHandle, shard_handle, shard_shapes
from repro.errors import ServeError
from repro.nn.linear import Linear, NMSparseLinear
from repro.nn.mlp import relu
from repro.sparsity.compress import NMCompressedMatrix
from repro.sparsity.config import NMPattern
from repro.sparsity.index_matrix import index_dtype_for
from repro.utils.validation import check_int, check_real, check_type
from repro.workloads.llama import (
    LlamaModel,
    get_llama_model,
    llama_layer_shapes,
)

__all__ = ["LayerSpec", "ModelSpec", "ModelExecutor"]

#: Per-block layer kinds, in walk order (the LM head runs once at the
#: end of the stack, not per block).
BLOCK_LAYER_KINDS = ("attn-qkv-fused", "attn-qkvo", "mlp-gate-up", "mlp-down")
HEAD_LAYER_KIND = "lm-head"
#: Most transformer blocks a model may declare: three times Llama-65B's
#: 80, and few enough that the eagerly built layer roster stays small.
MAX_BLOCKS = 256
#: Float64 normals (1 MiB) drawn at a time per weight: row chunks drawn
#: back to back are one draw's stream, so the bits do not depend on it.
#: Of 64 KiB to 1 MiB, 1 MiB left the lowest peak RSS when serving.
DRAW_CHUNK_ELEMENTS = 1 << 17


@dataclass(frozen=True)
class LayerSpec:
    """One layer of a model's walk order, or a plain serving entry's
    weight matrix (:meth:`plain`).

    Pricing reads a spec as it reads a
    :class:`~repro.core.api.SparseHandle`: padded ``k``/``n``,
    ``pattern``, ``index_itemsize``, ``weight_bytes`` and ``col_info``;
    :meth:`shard` cuts it as :func:`shard_handle` cuts its weights.
    Numerics run on :attr:`weights`, the handle it prepares on first
    call.
    """

    #: Unique name, e.g. ``"block0/mlp-gate-up"`` or ``"lm-head"``.
    name: str
    #: The :func:`llama_layer_shapes` kind this layer instantiates (a
    #: plain entry's is its name).
    kind: str
    #: Transformer block index, or ``None`` for the LM head (and a
    #: plain entry).
    block: "int | None"
    pattern: NMPattern
    #: The dense weight's ``(k, n)``, before compression pads them.
    k_logical: int
    n_logical: int
    #: Builds the weights on first call (a packing trace reads ``D``).
    weights: "Callable[[], SparseHandle]" = field(repr=False, compare=False)
    #: The hosted N:M-sparse layer (a :class:`ModelExecutor`'s only).
    layer: "NMSparseLinear | None" = None
    #: The padded ``(k, n)``, set once: the engine reads ``k`` every step.
    k: int = field(init=False, repr=False, compare=False)
    n: int = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        object.__setattr__(self, "k", self.pattern.padded_k(self.k_logical))
        object.__setattr__(self, "n", self.pattern.padded_n(self.n_logical))

    @classmethod
    def plain(
        cls, name: str, op: NMSpMM, k: int, n: int, draw: "Callable[[], np.ndarray]"
    ) -> "LayerSpec":
        """A plain serving entry: one ``(k, n)`` weight matrix, which
        ``op`` prepares from ``draw()`` on first read.  The prepared
        handle then replaces ``draw``, and with it any dense copy that
        ``draw`` holds."""

        def prepare() -> SparseHandle:
            nonlocal draw
            handle = op.prepare(draw())
            draw = None
            return handle

        return cls(name, name, None, op.pattern, k, n, weights=cache(prepare))

    @property
    def index_itemsize(self) -> int:
        return index_dtype_for(self.pattern.m).itemsize

    @property
    def weight_bytes(self) -> int:
        """Compressed bytes: ``B'`` (fp32) and ``D``, ``w = k*N/M`` rows each."""
        w = self.pattern.compressed_rows(self.k)
        q = self.n // self.pattern.vector_length
        return w * (self.n * FP32_BYTES + q * self.index_itemsize)

    @property
    def compressed(self) -> NMCompressedMatrix:
        """The compressed weights (built on first read)."""
        return self.weights().compressed

    def col_info(self, ws: int, ns: int):
        return self.weights().col_info(ws, ns)

    def shard(self, devices: int, mode: str) -> ShardedHandle:
        """This layer cut as :func:`shard_handle` cuts its weights, by
        :func:`shard_shapes`: device ``d`` gets a spec of its
        ``(n_d, k_d)`` whose weights are shard ``d`` of this layer's."""
        pieces, start = [], 0
        shapes = shard_shapes(self.pattern, self.n, self.k, devices, mode)
        for d, (n_d, k_d) in enumerate(shapes):
            stop = start + (n_d if mode == "column" else k_d)
            piece = replace(
                self, k_logical=k_d, n_logical=n_d, layer=None,
                weights=lambda d=d: shard_handle(self.weights(), devices, mode).shards[d].handle,
            )
            pieces.append(DeviceShard(device=d, handle=piece, start=start, stop=stop))
            start = stop
        return ShardedHandle(
            mode=mode, pattern=self.pattern, shards=tuple(pieces), k=self.k, n=self.n
        )


class ModelSpec:
    """A whole Llama model as the serving engine prices it: one
    :class:`LayerSpec` per layer in walk order, and no weights.

    Parameters
    ----------
    model:
        A :class:`~repro.workloads.llama.LlamaModel` or a catalog name
        (``"llama-7b"`` etc.).
    scale:
        Down-scaling divisor applied via ``LlamaModel.scaled`` so the
        simulator runs at laptop sizes; ``1`` keeps paper dimensions.
    blocks:
        Transformer blocks (each has all four block-layer shapes).
    pattern:
        N:M pruning pattern shared by every layer.
    seed:
        Seeds the weights :meth:`built` synthesizes.
    kv_dtype_bytes:
        Bytes per cached element (2 ~= fp16 KV cache).
    """

    def __init__(
        self,
        model: "str | LlamaModel" = "llama-7b",
        *,
        scale: int = 16,
        blocks: int = 2,
        pattern: "NMPattern | None" = None,
        gpu: str = "A100",
        version: str = "V3",
        backend: str = "auto",
        seed: int = 0,
        kv_dtype_bytes: int = 2,
    ):
        check_int("scale", scale, 1, error=ServeError)
        check_int("seed", seed, 0, error=ServeError)
        # The layer roster is built eagerly, so bound it before building.
        check_int("blocks", blocks, 1, MAX_BLOCKS, error=ServeError)
        check_int("kv_dtype_bytes", kv_dtype_bytes, 1, error=ServeError)
        check_type("pattern", pattern, NMPattern, error=ServeError, optional=True)
        check_type("model", model, (str, LlamaModel), error=ServeError)
        base = get_llama_model(model) if isinstance(model, str) else model
        self.base_model = base
        self.model = base.scaled(scale) if scale != 1 else base
        self.blocks = blocks
        self.pattern = (
            pattern if pattern is not None else NMPattern(2, 8, vector_length=8)
        )
        self.gpu = gpu
        self.version = version
        self.backend = backend
        self.seed = seed
        self.kv_dtype_bytes = kv_dtype_bytes
        # A cached builder, not a method of self: the layers' weight
        # thunks hold it, and a cycle through self would keep a dropped
        # executor's weights alive until the next collection.
        self._build = cache(partial(
            ModelExecutor, base, scale=scale, blocks=blocks, pattern=self.pattern,
            gpu=gpu, version=version, backend=backend, seed=seed, kv_dtype_bytes=kv_dtype_bytes,
        ))
        self.layers = self._layers()
        self._by_name = {spec.name: spec for spec in self.layers}
        #: padded-row bucket -> summed per-layer modeled seconds.
        self._stack_seconds: dict[int, float] = {}

    # ------------------------------------------------------------------
    # Construction
    # ------------------------------------------------------------------
    def _layers(self) -> "tuple[LayerSpec, ...]":
        # llama_layer_shapes yields (kind, n, k): the layer computes
        # [m, k] @ [k, n], so the dense weight is (k, n).
        shapes = {kind: (k, n) for kind, n, k in llama_layer_shapes(self.model)}
        roster = [
            (f"block{b}/{kind}", kind, b) for b in range(self.blocks) for kind in BLOCK_LAYER_KINDS
        ]
        roster.append((HEAD_LAYER_KIND, HEAD_LAYER_KIND, None))
        build = self._build
        return tuple(
            LayerSpec(
                name, kind, block, self.pattern, *shapes[kind],
                weights=lambda name=name: build().layer(name).layer.handle,
            )
            for name, kind, block in roster
        )

    @cached_property
    def op(self) -> NMSpMM:
        """The operator every layer is priced with (built on first use)."""
        return NMSpMM(self.pattern, gpu=self.gpu, version=self.version)

    def built(self) -> "ModelExecutor":
        """The executor of this model, built on first call from the
        same arguments (so the same seed and the same weight bits)."""
        return self._build()

    def layer(self, name: str) -> LayerSpec:
        try:
            return self._by_name[name]
        except KeyError:
            raise ServeError(
                f"model hosts no layer {name!r}; "
                f"layers are {[s.name for s in self.layers]}"
            ) from None

    # ------------------------------------------------------------------
    # Footprints
    # ------------------------------------------------------------------
    @property
    def hidden(self) -> int:
        return self.model.hidden

    @property
    def vocab(self) -> int:
        return self.model.vocab

    @property
    def weight_bytes(self) -> int:
        """Compressed weights resident in HBM for the whole run."""
        return sum(spec.weight_bytes for spec in self.layers)

    @property
    def kv_bytes_per_token(self) -> int:
        """KV-cache bytes one sequence pins per cached token: K and V
        vectors of ``hidden`` elements, per block."""
        return 2 * self.blocks * self.model.hidden * self.kv_dtype_bytes

    def kv_bytes(self, tokens: int) -> int:
        """KV footprint of one sequence with ``tokens`` cached."""
        if isinstance(tokens, bool) or not isinstance(tokens, (int, np.integer)):
            raise ServeError(
                f"tokens must be an int, got {type(tokens).__name__}"
            )
        if tokens < 0:
            raise ServeError(f"tokens must be >= 0, got {tokens}")
        return tokens * self.kv_bytes_per_token

    # ------------------------------------------------------------------
    # Modeled time
    # ------------------------------------------------------------------
    def stack_seconds(self, padded_rows: int) -> float:
        """Summed per-layer modeled seconds for one walk of the whole
        stack at ``padded_rows`` activation rows (memoized per bucket;
        single-device — the server models sharded walks itself)."""
        if padded_rows < 1:
            raise ServeError(f"padded_rows must be >= 1, got {padded_rows}")
        cached = self._stack_seconds.get(padded_rows)
        if cached is not None:
            return cached
        total = 0.0
        for spec in self.layers:
            total += self.op.plan_for(padded_rows, spec).simulate().seconds
        self._stack_seconds[padded_rows] = total
        return total

    def modeled_prefill_s(self, tokens: int, policy=None) -> float:
        """Modeled seconds to (re)build a sequence's KV cache: one walk
        at ``tokens`` rows (bucketed by ``policy`` when given).  Also
        the preemption cost-of-recompute for a victim holding that many
        tokens."""
        if tokens < 1:
            raise ServeError(f"tokens must be >= 1, got {tokens}")
        rows = policy.bucket_rows(tokens) if policy is not None else tokens
        return self.stack_seconds(rows)

    def describe(self) -> dict:
        return {
            "model": self.model.name,
            "hidden": self.model.hidden,
            "ffn": self.model.ffn,
            "vocab": self.model.vocab,
            "blocks": self.blocks,
            "layers": len(self.layers),
            "pattern": str(self.pattern),
            "gpu": self.gpu,
            "version": self.version,
            "backend": self.backend,
            "weight_bytes": self.weight_bytes,
            "kv_bytes_per_token": self.kv_bytes_per_token,
        }


class ModelExecutor(ModelSpec):
    """A :class:`ModelSpec` that hosts every layer's weights: the
    numerics class.  The constructor (same arguments) synthesizes each
    dense weight from ``seed``, then prunes and compresses it into the
    layer's :class:`~repro.nn.linear.NMSparseLinear` (``spec.layer``);
    :meth:`hidden_states` / :meth:`logits` run the NumPy forward walk.
    """

    def _layers(self) -> "tuple[LayerSpec, ...]":
        rng = np.random.default_rng([self.seed, 0x11A])
        return tuple(self._host(spec, rng) for spec in super()._layers())

    def _host(self, spec: LayerSpec, rng: np.random.Generator) -> LayerSpec:
        k, n = spec.k_logical, spec.n_logical
        weight = np.empty((k, n), dtype=np.float32)
        step = max(1, DRAW_CHUNK_ELEMENTS // n)
        for r0 in range(0, k, step):
            rows = rng.standard_normal((min(step, k - r0), n))
            rows *= k**-0.5
            weight[r0 : r0 + len(rows)] = rows
        sparse = NMSparseLinear.from_dense(
            Linear(weight), self.pattern, gpu=self.gpu, version=self.version
        )
        sparse.backend = self.backend
        return replace(spec, layer=sparse, weights=lambda: sparse.handle)

    def built(self) -> "ModelExecutor":
        return self

    # ------------------------------------------------------------------
    # Numerics (the NumPy walk; modeled-time serving never calls this)
    # ------------------------------------------------------------------
    def _block_forward(self, x: np.ndarray, block: int) -> np.ndarray:
        h = self.model.hidden
        qkv = self._by_name[f"block{block}/attn-qkv-fused"].layer(x)
        # Single-token decode has no cross-token mixing to model in a
        # GEMM-level simulator; the Q projection slice stands in for
        # the attention read so the residual stream stays h-wide.
        attended = qkv[:, :h]
        x = x + self._by_name[f"block{block}/attn-qkvo"].layer(attended)
        up = self._by_name[f"block{block}/mlp-gate-up"].layer(x)
        x = x + self._by_name[f"block{block}/mlp-down"].layer(relu(up))
        return x

    def hidden_states(self, x: np.ndarray) -> np.ndarray:
        """Walk every transformer block: ``(m, hidden) -> (m, hidden)``.

        The residual stream is feature-major: the input is made
        F-ordered once, so every layer's fast kernel gathers the
        ``(hidden, m)`` A^T in place and hands back F-ordered output
        that the residual adds, ``relu`` and the ``qkv[:, :h]`` slice
        keep in F order.  The result is C-contiguous again.
        """
        # No dtype: validate before converting.
        x = check_real("activations", np.asarray(x), error=ServeError)
        if x.ndim != 2 or x.shape[1] != self.model.hidden:
            raise ServeError(
                f"activations must be (m, {self.model.hidden}), "
                f"got {x.shape}"
            )
        x = np.asfortranarray(x, dtype=np.float32)
        for b in range(self.blocks):
            x = self._block_forward(x, b)
        return np.ascontiguousarray(x)

    def logits(self, x: np.ndarray) -> np.ndarray:
        """Full forward: blocks then LM head, ``(m, vocab)`` logits."""
        return self._by_name[HEAD_LAYER_KIND].layer(self.hidden_states(x))

    __call__ = logits
