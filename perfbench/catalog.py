"""Workloads and metrics, read from ``BENCHMARK.json`` at the repository
root; only the split of per-layer names between the forward and the
serving workloads lives here."""

from __future__ import annotations

import json
from pathlib import Path

__all__ = [
    "FORWARD_KINDS",
    "PICK_BACKENDS",
    "WORKLOADS",
    "END_TO_END",
    "PER_LAYER",
    "RUN_SECONDS",
    "FORWARD_LAYER_METRICS",
    "SERVE_LAYER_METRICS",
]

#: Executor layer kinds, in walk order.
FORWARD_KINDS = ("attn-qkv-fused", "attn-qkvo", "mlp-gate-up", "mlp-down", "lm-head")

#: Builtin backends whose per-forward pick counts are reported.  A
#: backend a later change removes keeps reporting 0.
PICK_BACKENDS = ("fast", "dense_scatter", "sharded", "structural")

_SPEC = json.loads((Path(__file__).resolve().parent.parent / "BENCHMARK.json").read_text())

RUN_SECONDS: int = _SPEC["run_seconds"]
#: name -> why
WORKLOADS: "dict[str, str]" = {w["name"]: w["why"] for w in _SPEC["workloads"]}
#: name -> (unit, better, bound)
END_TO_END: "dict[str, tuple[str, str, float]]" = {
    m["name"]: (m["unit"], m["better"], m["bound"]) for m in _SPEC["end_to_end"]
}
#: name -> (unit, better).  Each traced run emits all of them; a layer
#: a workload does not exercise reports 0.
PER_LAYER: "dict[str, tuple[str, str]]" = {
    m["name"]: (m["unit"], m["better"]) for m in _SPEC["per_layer"]
}

# Layers only the forward workloads measure, and those both measure.
_FORWARD_LAYERS = ("nn.", "core.", "backends.", "kernels.")
_SHARED_LAYERS = ("sparsity.", "bench.")

#: Per-layer names each workload family actually measures.
FORWARD_LAYER_METRICS = tuple(
    name for name in PER_LAYER if name.startswith(_FORWARD_LAYERS + _SHARED_LAYERS)
)
SERVE_LAYER_METRICS = tuple(name for name in PER_LAYER if not name.startswith(_FORWARD_LAYERS))
