"""Canned model-serving scenarios: whole Llama models under load.

Shared by ``python -m repro serve-sim --model-mode``,
``benchmarks/bench_model_serving.py``, and the test suite, so the CLI
demo, the tracked benchmark, and the properties all run the identical
setup: one :class:`~repro.serve.model_exec.executor.ModelSpec` per
requested checkpoint (priced from its layer shapes; no weights are
built) registered on an
:class:`~repro.serve.server.InferenceServer`, model-mode traffic
(``prompt_len``/``max_new_tokens``), and a simulated HBM budget sized
in *KV tokens* of headroom above the compressed weights — the knob
that makes the memory-constrained regimes reproducible at laptop
scale.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.errors import ServeError
from repro.serve.batcher import BatchingPolicy
from repro.serve.loadgen import TrafficSource, check_counts
from repro.serve.model_exec.executor import MAX_BLOCKS, ModelExecutor, ModelSpec
from repro.serve.model_exec.memory import KV_ADMISSION_MODES
from repro.serve.scenarios import ServingScenario, TrafficTier
from repro.serve.server import InferenceServer
from repro.utils.validation import check_choice, check_int, check_type

__all__ = [
    "ModelServingScenario",
    "prefill_heavy_chat",
    "long_context_summarization",
    "agentic_short_decodes",
]


@dataclass(kw_only=True)
class ModelServingScenario(ServingScenario):
    """One reproducible end-to-end model-serving experiment.

    Parameters
    ----------
    model:
        Llama checkpoint name registered as one model.
    blocks / kv_dtype_bytes:
        Model construction knobs (see
        :class:`~repro.serve.model_exec.executor.ModelSpec`).
    prompt_len_choices / max_new_tokens_choices:
        Per-request prompt and generation lengths (uniform draw).
    slo_ms:
        The SLO of the one source served when ``tiers`` is empty.
    hbm_tokens:
        HBM budget expressed as KV headroom: the budget is the
        model's compressed ``weight_bytes`` plus this many tokens of
        KV cache.  ``None`` leaves ``hbm_bytes`` (or the GPU catalog
        spec) in charge.
    hbm_bytes:
        Explicit byte budget override (mutually exclusive with
        ``hbm_tokens``).
    kv_admission:
        ``"kv-aware"`` (budget-respecting admission/eviction) or
        ``"none"`` (the thrashing baseline).
    """

    model: str = "llama-7b"
    blocks: int = 2
    kv_dtype_bytes: int = 2
    qps: float = 100.0
    duration_s: float = 2.0
    #: ``None`` sizes each plan cache to the run (see
    #: :meth:`plan_cache_size`).
    plan_cache_capacity: "int | None" = None
    prompt_len_choices: tuple[int, ...] = (64, 128, 256)
    max_new_tokens_choices: tuple[int, ...] = (8, 16)
    slo_ms: "float | None" = None
    hbm_tokens: "int | None" = None
    hbm_bytes: "int | None" = None
    kv_admission: str = "kv-aware"
    #: Host-link bandwidth the ``none`` baseline pages spilled KV over.
    #: The scaled-down geometry shrinks every byte count by ~scale^2,
    #: so the canned scenarios shrink the link the same way to keep the
    #: thrash-to-compute ratio representative.
    host_link_bytes_per_s: float = 16e9

    def __post_init__(self) -> None:
        super().__post_init__()
        check_int("blocks", self.blocks, 1, MAX_BLOCKS, error=ServeError)
        if self.hbm_tokens is not None and self.hbm_bytes is not None:
            raise ServeError("pass hbm_tokens or hbm_bytes, not both")
        check_int("hbm_tokens", self.hbm_tokens, 1, error=ServeError, optional=True)
        check_int("hbm_bytes", self.hbm_bytes, 1, error=ServeError, optional=True)
        check_choice("kv admission mode", self.kv_admission, KV_ADMISSION_MODES, error=ServeError)
        check_type("policy", self.policy, BatchingPolicy, error=ServeError)
        check_counts("prompt_len_choices", self.prompt_len_choices)
        check_counts("max_new_tokens_choices", self.max_new_tokens_choices)

    # ------------------------------------------------------------------
    def build_spec(self) -> ModelSpec:
        """The served model's layer shapes (no weights)."""
        return ModelSpec(
            self.model,
            scale=self.scale,
            blocks=self.blocks,
            pattern=self.pattern,
            gpu=self.gpu,
            version=self.version,
            backend=self.backend,
            seed=self.seed,
            kv_dtype_bytes=self.kv_dtype_bytes,
        )

    def build_executor(self) -> ModelExecutor:
        """The served model with its weights, for numerics."""
        return self.build_spec().built()

    def budget_bytes(self, spec: "ModelSpec | None" = None) -> "int | None":
        """The explicit HBM budget this scenario runs under, or
        ``None`` to defer to the GPU catalog spec."""
        if self.hbm_bytes is not None:
            return self.hbm_bytes
        if self.hbm_tokens is None:
            return None
        spec = spec if spec is not None else self.build_spec()
        return spec.weight_bytes + self.hbm_tokens * spec.kv_bytes_per_token

    def plan_cache_size(self, spec: ModelSpec) -> int:
        """The plan-cache capacity: ``plan_cache_capacity`` if set,
        else room for every layer at every row bucket a walk can take
        (a decode batch up to ``max_batch_rows``, a (re)prefill up to
        the longest prompt plus its new tokens), and at least 64."""
        if self.plan_cache_capacity is not None:
            return self.plan_cache_capacity
        prefill = max(self.prompt_len_choices) + max(self.max_new_tokens_choices)
        top = max(self.policy.max_batch_rows, prefill)
        buckets, rows = 0, 1
        while rows <= top:  # one step per bucket: each one buckets to itself
            rows = self.policy.bucket_rows(rows) + 1
            buckets += 1
        return max(64, len(spec.layers) * buckets)

    def build_server(self) -> "tuple[InferenceServer, list[TrafficSource]]":
        """Register the model (priced from its layer shapes) and return
        the server plus the scenario's traffic sources."""
        spec = self.build_spec()
        server = self._server(
            plan_cache_capacity=self.plan_cache_size(spec),
            execute_numerics=False,
            continuous_batching=True,
            hbm_bytes=self.budget_bytes(spec),
            kv_admission=self.kv_admission,
            host_link_bytes_per_s=self.host_link_bytes_per_s,
        )
        registered = self.model.lower()
        server.register_executor(registered, spec)
        untiered = TrafficTier(priority=0, slo_ms=self.slo_ms)
        return server, self._sources(registered, spec.hidden, untiered)

    def _traffic(self, tier: TrafficTier) -> dict:
        return {
            "prompt_len_choices": self.prompt_len_choices,
            "max_new_tokens_choices": self.max_new_tokens_choices,
        }

    def _describe_models(self) -> str:
        return f"model={self.model} scale=1/{self.scale} blocks={self.blocks}"

    def _describe_options(self) -> str:
        text = f" kv={self.kv_admission}"
        if self.hbm_tokens is not None:
            text += f" hbm_tokens={self.hbm_tokens}"
        elif self.hbm_bytes is not None:
            text += f" hbm_bytes={self.hbm_bytes}"
        return text


# ----------------------------------------------------------------------
# Canned scenarios (shared by bench_model_serving.py and the tests)
# ----------------------------------------------------------------------
def prefill_heavy_chat(**overrides) -> ModelServingScenario:
    """Chat traffic: medium prompts, short decodes, healthy KV headroom
    — compute-bound, the memory model barely intervenes."""
    defaults = dict(
        qps=60.0,
        duration_s=2.0,
        prompt_len_choices=(64, 128, 256),
        max_new_tokens_choices=(4, 8),
        slo_ms=250.0,
        hbm_tokens=20_000,
    )
    defaults.update(overrides)
    return ModelServingScenario(**defaults)


def long_context_summarization(**overrides) -> ModelServingScenario:
    """Long prompts, long decodes, *tight* KV headroom — the
    memory-constrained regime where kv-aware admission beats the
    no-memory-model baseline on SLO attainment (the tracked benchmark
    comparison runs exactly this scenario under both modes)."""
    defaults = dict(
        qps=80.0,
        duration_s=2.0,
        prompt_len_choices=(256, 384, 512),
        max_new_tokens_choices=(16, 32),
        slo_ms=400.0,
        hbm_tokens=2_000,
        # Per-launch host cost stretches steps so sequences genuinely
        # overlap (same trick as LlamaServingScenario.priority_tiered);
        # the link shrinks with the geometry so paging spilled KV
        # costs what it would at paper scale.
        host_overhead_s=2e-3,
        host_link_bytes_per_s=250e6,
    )
    defaults.update(overrides)
    return ModelServingScenario(**defaults)


def agentic_short_decodes(**overrides) -> ModelServingScenario:
    """Agent loops: tiny prompts, bursty arrivals, short decodes —
    scheduling-dominated, lots of small steps."""
    defaults = dict(
        qps=120.0,
        duration_s=2.0,
        arrival="bursty",
        prompt_len_choices=(8, 16, 32),
        max_new_tokens_choices=(8, 16),
        slo_ms=150.0,
        hbm_tokens=10_000,
    )
    defaults.update(overrides)
    return ModelServingScenario(**defaults)
