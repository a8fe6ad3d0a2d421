"""End-to-end model serving: full-model execution + device memory.

This subpackage turns the per-matmul serving engine into an LLM
inference simulator:

* :class:`~repro.serve.model_exec.executor.ModelSpec` holds every layer
  shape of a ``workloads.llama`` model, and no weights; the engine walks
  prefill and per-token decode over it — one gather-GEMM launch per
  layer per step, each priced through the perf model.
  :class:`~repro.serve.model_exec.executor.ModelExecutor` (a spec with
  weights) runs the numerics.
* :class:`~repro.serve.model_exec.memory.DeviceMemoryModel` tracks a
  simulated HBM budget (compressed weights + per-sequence KV cache
  that grows every decode step) and caps continuous-batch residency:
  admission refuses sequences that would overflow, and memory pressure
  becomes an eviction trigger alongside priority.
* :class:`~repro.serve.model_exec.scenarios.ModelServingScenario`
  bundles the canned workloads (``prefill_heavy_chat``,
  ``long_context_summarization``, ``agentic_short_decodes``).
"""

from repro.serve.model_exec.executor import LayerSpec, ModelExecutor, ModelSpec
from repro.serve.model_exec.memory import DeviceMemoryModel

#: Lazily re-exported from :mod:`repro.serve.model_exec.scenarios` —
#: that module needs the fully built serving engine, while
#: :mod:`repro.serve.server` imports this package for the model spec, so
#: an eager import here would be circular.
_SCENARIO_EXPORTS = (
    "ModelServingScenario",
    "prefill_heavy_chat",
    "long_context_summarization",
    "agentic_short_decodes",
)


def __getattr__(name: str):
    if name in _SCENARIO_EXPORTS:
        from repro.serve.model_exec import scenarios

        return getattr(scenarios, name)
    raise AttributeError(
        f"module {__name__!r} has no attribute {name!r}"
    )


__all__ = [
    "LayerSpec",
    "ModelSpec",
    "ModelExecutor",
    "DeviceMemoryModel",
    "ModelServingScenario",
    "prefill_heavy_chat",
    "long_context_summarization",
    "agentic_short_decodes",
]
