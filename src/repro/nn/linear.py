"""Dense and N:M-sparse linear layers (NumPy forward pass only).

``NMSparseLinear`` holds its weights in the compressed ``(B', D)``
representation and computes forward passes with the NM-SpMM kernels,
so examples exercise the exact code path the paper accelerates.
"""

from __future__ import annotations

import numpy as np

from repro.core.api import NMSpMM, SparseHandle
from repro.errors import ShapeError
from repro.sparsity.config import NMPattern
from repro.utils.arrays import as_f32, as_f32_any_order
from repro.utils.validation import check_matrix, check_real

__all__ = ["Linear", "NMSparseLinear"]


class Linear:
    """A dense linear layer ``y = x @ W + b`` with ``W[k][n]``."""

    def __init__(self, weight: np.ndarray, bias: np.ndarray | None = None):
        self.weight = as_f32(check_real("weight", check_matrix("weight", weight)))
        if bias is not None:
            bias = np.ascontiguousarray(bias, dtype=np.float32)
            if bias.shape != (self.weight.shape[1],):
                raise ShapeError(
                    f"bias shape {bias.shape} != ({self.weight.shape[1]},)"
                )
        self.bias = bias

    @property
    def in_features(self) -> int:
        return self.weight.shape[0]

    @property
    def out_features(self) -> int:
        return self.weight.shape[1]

    def forward(self, x: np.ndarray) -> np.ndarray:
        x = as_f32(check_real("x", check_matrix("x", x)))
        y = x @ self.weight
        if self.bias is not None:
            y = y + self.bias
        return y

    __call__ = forward

    def parameter_count(self) -> int:
        count = self.weight.size
        if self.bias is not None:
            count += self.bias.size
        return count


class NMSparseLinear:
    """A linear layer with N:M-pruned, compressed weights.

    Built from a dense layer via :meth:`from_dense` (the
    prune->compress offline phase); forward passes run the NM-SpMM
    kernel selected by the layer's plan.
    """

    def __init__(
        self,
        op: NMSpMM,
        handle: SparseHandle,
        bias: np.ndarray | None = None,
        *,
        backend: str = "auto",
    ):
        self.op = op
        self.handle = handle
        self.bias = bias
        #: Execution backend forward passes run with — any registered
        #: name (:mod:`repro.backends`).  ``"auto"`` by default: layers
        #: never ask for traces, so the cost-aware selector picks the
        #: fastest numerics path for this layer's pattern (gather-GEMM,
        #: or scatter-to-dense below the vector-length crossover).
        self.backend = backend

    @classmethod
    def from_dense(
        cls,
        layer: Linear,
        pattern: NMPattern,
        gpu: str = "A100",
        version: str = "V3",
    ) -> "NMSparseLinear":
        """Prune and compress a dense layer's weights."""
        op = NMSpMM(pattern, gpu=gpu, version=version)
        return cls(op, op.prepare(layer.weight), layer.bias)

    @property
    def pattern(self) -> NMPattern:
        return self.op.pattern

    @property
    def in_features(self) -> int:
        return self.handle.k_logical

    @property
    def out_features(self) -> int:
        return self.handle.n_logical

    def forward(self, x: np.ndarray) -> np.ndarray:
        x = as_f32_any_order(check_real("x", check_matrix("x", x)))
        if x.shape[1] != self.in_features:
            raise ShapeError(
                f"input has {x.shape[1]} features, layer expects "
                f"{self.in_features}"
            )
        # execute() pads logical-k activations and trims the output to
        # the logical n itself.
        y = self.op.execute(x, self.handle, backend=self.backend)
        if self.bias is not None:
            y = y + self.bias
        return y

    __call__ = forward

    def parameter_count(self) -> int:
        """Stored parameters after compression (values only)."""
        count = self.handle.compressed.nnz
        if self.bias is not None:
            count += self.bias.size
        return count

    def compression_ratio(self) -> float:
        return self.handle.compressed.compression_ratio()
