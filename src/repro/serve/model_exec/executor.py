"""Full-model execution on the NM-SpMM stack.

:class:`ModelExecutor` hosts every layer shape of a
``workloads.llama`` model — the five shapes
:func:`~repro.workloads.llama.llama_layer_shapes` derives (fused QKV,
attention output, MLP gate/up, MLP down, LM head) — as
:class:`~repro.nn.linear.NMSparseLinear` layers, repeated per
transformer block.  Each layer keeps its own compressed handle and
routes through the pluggable backend registry, so format/backend
choice can differ per layer shape (the customized-storage argument of
Shi et al.); the serving engine charges one gather-GEMM launch per
layer per step through the perf model.

The executor provides both views the simulator needs:

* *numerics* — :meth:`hidden_states` / :meth:`logits` run the actual
  NumPy forward walk (tests compare it against a dense reference);
* *modeled time* — :meth:`stack_seconds` sums the per-layer
  perf-model seconds at a padded row count, memoized per bucket, and
  :meth:`modeled_prefill_s` is one such walk at a sequence's token
  count: the continuous batcher's cost-of-recompute preemption model
  for the victim's restart.  The serving engine prices its own prefill
  and decode walks through its plan caches.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.errors import ServeError
from repro.nn.linear import Linear, NMSparseLinear
from repro.nn.mlp import relu
from repro.sparsity.config import NMPattern
from repro.utils.validation import check_real, is_int
from repro.workloads.llama import (
    LlamaModel,
    get_llama_model,
    llama_layer_shapes,
)

__all__ = ["LayerSpec", "ModelExecutor"]

#: Per-block layer kinds, in walk order (the LM head runs once at the
#: end of the stack, not per block).
BLOCK_LAYER_KINDS = ("attn-qkv-fused", "attn-qkvo", "mlp-gate-up", "mlp-down")
HEAD_LAYER_KIND = "lm-head"
#: Float64 normals (1 MiB) drawn at a time per weight: row chunks drawn
#: back to back are one draw's stream, so the bits do not depend on it.
#: Of 64 KiB to 1 MiB, 1 MiB left the lowest peak RSS when serving.
DRAW_CHUNK_ELEMENTS = 1 << 17


@dataclass(frozen=True)
class LayerSpec:
    """One resident layer of the executor's walk order."""

    #: Unique name, e.g. ``"block0/mlp-gate-up"`` or ``"lm-head"``.
    name: str
    #: The :func:`llama_layer_shapes` kind this layer instantiates.
    kind: str
    #: Transformer block index, or ``None`` for the LM head.
    block: "int | None"
    #: The hosted N:M-sparse layer (owns op + compressed handle).
    layer: NMSparseLinear

    @property
    def weight_bytes(self) -> int:
        """Compressed footprint (values + indices) of this layer."""
        compressed = self.layer.handle.compressed
        return int(compressed.values_bytes() + compressed.indices_bytes())


class ModelExecutor:
    """A whole Llama model hosted on the NM-SpMM serving stack.

    Parameters
    ----------
    model:
        A :class:`~repro.workloads.llama.LlamaModel` or a catalog name
        (``"llama-7b"`` etc.).
    scale:
        Down-scaling divisor applied via ``LlamaModel.scaled`` so the
        simulator runs at laptop sizes; ``1`` keeps paper dimensions.
    blocks:
        Transformer blocks to instantiate (each gets independent
        weights for all four block-layer shapes).
    pattern:
        N:M pruning pattern shared by every layer.
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
        if not is_int(scale):
            raise ServeError(f"scale must be an int, got {scale!r}")
        if scale < 1:
            raise ServeError(f"scale must be >= 1, got {scale}")
        if not is_int(seed):
            raise ServeError(f"seed must be an int, got {seed!r}")
        if seed < 0:
            raise ServeError(f"seed must be >= 0, got {seed}")
        if not is_int(blocks):
            raise ServeError(f"blocks must be an int, got {blocks!r}")
        if blocks < 1:
            raise ServeError(f"blocks must be >= 1, got {blocks}")
        if not is_int(kv_dtype_bytes):
            raise ServeError(
                f"kv_dtype_bytes must be an int, got {kv_dtype_bytes!r}"
            )
        if kv_dtype_bytes < 1:
            raise ServeError(
                f"kv_dtype_bytes must be >= 1, got {kv_dtype_bytes}"
            )
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
        self.layers = self._build_layers()
        self._by_name = {spec.name: spec for spec in self.layers}
        #: padded-row bucket -> summed per-layer modeled seconds.
        self._stack_seconds: dict[int, float] = {}

    # ------------------------------------------------------------------
    # Construction
    # ------------------------------------------------------------------
    def _build_layers(self) -> "tuple[LayerSpec, ...]":
        # llama_layer_shapes yields (kind, n, k): the layer computes
        # [m, k] @ [k, n], so the dense weight is (k, n).
        shapes = {
            kind: (k, n) for kind, n, k in llama_layer_shapes(self.model)
        }
        rng = np.random.default_rng([self.seed, 0x11A])
        specs: list[LayerSpec] = []

        def host(name: str, kind: str, block: "int | None") -> None:
            k, n = shapes[kind]
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
            specs.append(LayerSpec(name=name, kind=kind, block=block, layer=sparse))

        for b in range(self.blocks):
            for kind in BLOCK_LAYER_KINDS:
                host(f"block{b}/{kind}", kind, b)
        host(HEAD_LAYER_KIND, HEAD_LAYER_KIND, None)
        return tuple(specs)

    def layer(self, name: str) -> LayerSpec:
        try:
            return self._by_name[name]
        except KeyError:
            raise ServeError(
                f"executor hosts no layer {name!r}; "
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
            plan = spec.layer.op.plan_for(padded_rows, spec.layer.handle)
            total += plan.simulate().seconds
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
