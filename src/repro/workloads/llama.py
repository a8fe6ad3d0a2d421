"""The 100-point Llama dataset of §IV-A.

The paper: "Our dataset consists of 100 data points... extracted from
linear layers in Llama models.  In detail, the input sequence m ranges
from 2^8 to 2^12, yielding five distinct values.  Each value is
associated with 20 data points, where the tuples (n, k) are extracted
from the Llama model."

The first-generation Llama family has four public sizes whose linear
layers give exactly 20 distinct (n, k) tuples — five layer kinds per
model:

======== ======== ======= =========
model    hidden    ffn     vocab
======== ======== ======= =========
Llama-7B   4096    11008   32000
Llama-13B  5120    13824   32000
Llama-30B  6656    17920   32000
Llama-65B  8192    22016   32000
======== ======== ======= =========

Layer kinds (weight is ``k x n`` with activations ``m x k``):
attention q/k/v/o (h -> h), MLP gate and up (h -> ffn), MLP down
(ffn -> h), and the LM head (h -> vocab).  Gate and up share a shape,
so the five distinct tuples per model are: attention, gate/up, down,
head, and the attention-concatenated qkv projection (h -> 3h) used by
fused implementations.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.errors import ConfigurationError
from repro.model.workload import ProblemShape
from repro.utils.validation import check_int

__all__ = [
    "LlamaModel",
    "LLAMA_MODELS",
    "get_llama_model",
    "llama_layer_shapes",
    "llama_layer_shape",
    "LLAMA_LAYER_KINDS",
    "DataPoint",
    "build_paper_dataset",
    "PAPER_M_VALUES",
]

#: The five input-sequence lengths: m = 2^8 .. 2^12.
PAPER_M_VALUES: tuple[int, ...] = (256, 512, 1024, 2048, 4096)


@dataclass(frozen=True)
class LlamaModel:
    """Public geometry of one Llama checkpoint."""

    name: str
    hidden: int
    ffn: int
    vocab: int = 32000

    def __post_init__(self) -> None:
        check_int("hidden", self.hidden, 1)
        check_int("ffn", self.ffn, 1)
        check_int("vocab", self.vocab, 1)

    def scaled(self, factor: int) -> "LlamaModel":
        """A geometry-preserving shrink of this model: every dimension
        divided by ``factor`` (which must divide them all).  The serving
        simulator uses this so Llama-*shaped* traffic stays cheap enough
        for the NumPy kernels while keeping the layer aspect ratios.
        """
        check_int("factor", factor, 1)
        if (
            self.hidden % factor
            or self.ffn % factor
            or self.vocab % factor
        ):
            raise ConfigurationError(
                f"factor {factor} does not divide {self.name}'s dimensions "
                f"(hidden={self.hidden}, ffn={self.ffn}, vocab={self.vocab})"
            )
        return LlamaModel(
            name=f"{self.name}/{factor}x-scaled",
            hidden=self.hidden // factor,
            ffn=self.ffn // factor,
            vocab=self.vocab // factor,
        )


LLAMA_MODELS: tuple[LlamaModel, ...] = (
    LlamaModel("Llama-7B", hidden=4096, ffn=11008),
    LlamaModel("Llama-13B", hidden=5120, ffn=13824),
    LlamaModel("Llama-30B", hidden=6656, ffn=17920),
    LlamaModel("Llama-65B", hidden=8192, ffn=22016),
)


def get_llama_model(name: str) -> LlamaModel:
    """Look up a Llama checkpoint by name, case-insensitively
    (``"llama-7b"`` and ``"Llama-7B"`` both resolve).

    >>> get_llama_model("llama-7b").hidden
    4096
    """
    wanted = name.strip().lower()
    for model in LLAMA_MODELS:
        if model.name.lower() == wanted:
            return model
    known = ", ".join(m.name for m in LLAMA_MODELS)
    raise ConfigurationError(f"unknown Llama model {name!r}; known: {known}")


def llama_layer_shapes(model: LlamaModel) -> list[tuple[str, int, int]]:
    """The five distinct ``(layer, n, k)`` weight tuples of one model,
    where the linear layer computes ``[m, k] @ [k, n]``."""
    h, f, v = model.hidden, model.ffn, model.vocab
    return [
        ("attn-qkvo", h, h),
        ("attn-qkv-fused", 3 * h, h),
        ("mlp-gate-up", f, h),
        ("mlp-down", h, f),
        ("lm-head", v, h),
    ]


def llama_layer_shape(model: "str | LlamaModel", layer: str) -> tuple[int, int]:
    """The ``(n, k)`` weight shape of one named layer of one model
    (a keyed view of :func:`llama_layer_shapes`, for consumers that
    address a single layer — e.g. the distributed benchmark).

    >>> llama_layer_shape("llama-7b", "attn-qkvo")
    (4096, 4096)
    """
    if isinstance(model, str):
        model = get_llama_model(model)
    for name, n, k in llama_layer_shapes(model):
        if name == layer:
            return n, k
    raise ConfigurationError(
        f"unknown layer {layer!r}; known: {sorted(LLAMA_LAYER_KINDS)}"
    )


#: The five layer kinds every Llama checkpoint exposes — derived from
#: :func:`llama_layer_shapes` so there is a single source of truth for
#: consumers that need the names without a model (e.g. CLI choices).
LLAMA_LAYER_KINDS: tuple[str, ...] = tuple(
    name for name, _, _ in llama_layer_shapes(LLAMA_MODELS[0])
)


@dataclass(frozen=True)
class DataPoint:
    """One of the 100 benchmark points."""

    index: int
    model: str
    layer: str
    shape: ProblemShape

    def label(self) -> str:
        return f"#{self.index:03d} {self.model}/{self.layer} {self.shape.label()}"


def build_paper_dataset() -> list[DataPoint]:
    """The full 100-point dataset: 5 values of m x 20 (n, k) tuples,
    ordered by m then model then layer (the paper's data-point index
    axis of Fig. 9)."""
    points: list[DataPoint] = []
    index = 0
    for m in PAPER_M_VALUES:
        for model in LLAMA_MODELS:
            for layer, n, k in llama_layer_shapes(model):
                points.append(
                    DataPoint(
                        index=index,
                        model=model.name,
                        layer=layer,
                        shape=ProblemShape(m=m, n=n, k=k),
                    )
                )
                index += 1
    if len(points) != 100:
        raise AssertionError(f"dataset must have 100 points, got {len(points)}")
    return points
