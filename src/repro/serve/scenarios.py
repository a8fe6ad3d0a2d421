"""Canned serving scenarios: Llama-shaped models under synthetic load.

Shared by ``python -m repro serve-sim`` and
``benchmarks/bench_serving.py`` so the CLI demo and the tracked
benchmark run the identical setup: each requested Llama checkpoint is
shrunk by ``scale`` (geometry-preserving), one linear layer's weight
matrix is registered on the server (priced from its shape, synthesized
from the seed and prepared on first read), and a
:class:`~repro.serve.loadgen.TrafficSource` is attached to it.
:class:`ServingScenario` is what this scenario and the whole-model one
(:mod:`repro.serve.model_exec.scenarios`) share.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import partial

import numpy as np

from repro.core.api import NMSpMM
from repro.errors import ConfigurationError, ServeError
from repro.serve.batcher import BatchingPolicy
from repro.serve.loadgen import (
    DEFAULT_ROWS_CHOICES,
    TrafficSource,
    check_trace,
    generate_requests,
)
from repro.serve.model_exec.executor import LayerSpec
from repro.serve.scheduling import SchedulingPolicy
from repro.serve.server import (
    DEFAULT_HOST_OVERHEAD_S,
    InferenceServer,
    ServingReport,
)
from repro.sparsity.config import NMPattern
from repro.utils.validation import check_choice, check_int, check_type
from repro.workloads.llama import get_llama_model, llama_layer_shapes

__all__ = ["parse_pattern", "TrafficTier", "ServingScenario", "LlamaServingScenario"]


def _draw(seed: int, shapes: "tuple[tuple[int, int], ...]", integer_values: bool) -> np.ndarray:
    """The weights of the last of ``shapes``: one seeded stream draws
    every model's weights in turn, so the earlier ones are replayed."""
    rng = np.random.default_rng(seed)
    for shape in shapes:
        if integer_values:
            weights = rng.integers(-4, 5, size=shape)
        else:
            weights = rng.standard_normal(shape)
    return weights.astype(np.float32)


def parse_pattern(spec: str, vector_length: int = 8) -> NMPattern:
    """Parse an ``"N:M"`` pattern spec (e.g. ``"2:8"``).

    >>> parse_pattern("2:8").sparsity
    0.75
    """
    parts = spec.strip().split(":")
    if len(parts) != 2:
        raise ConfigurationError(
            f"bad pattern spec {spec!r}; expected 'N:M' like '2:8'"
        )
    try:
        n, m = int(parts[0]), int(parts[1])
    except ValueError:
        raise ConfigurationError(
            f"bad pattern spec {spec!r}; N and M must be integers"
        ) from None
    return NMPattern(n, m, vector_length=vector_length)


@dataclass(frozen=True)
class TrafficTier:
    """One priority tier of a tiered traffic mix.

    Every registered model gets one :class:`TrafficSource` per tier,
    tagged with the tier's priority/SLO and carrying ``share`` of the
    model's traffic.
    """

    priority: int
    slo_ms: "float | None" = None
    share: float = 1.0
    decode_fraction: "float | None" = None

    def label(self) -> str:
        text = f"pri{self.priority}"
        if self.slo_ms is not None:
            text += f"/slo{self.slo_ms:g}ms"
        return text


@dataclass(kw_only=True)
class ServingScenario:
    """What the canned serving experiments share.  A subclass adds its
    fields and defaults for ``qps``, ``duration_s`` and
    ``plan_cache_capacity``, registers its models (``build_server()``),
    shapes a tier's requests (``_traffic(tier)``) and names its models
    (``_describe_models()``, ``_describe_options()``).

    Parameters
    ----------
    scale:
        Geometry-preserving shrink factor applied to every dimension so
        the NumPy kernels stay fast; 1 serves the true shapes.
    qps / duration_s / arrival / seed:
        Load-generation knobs (see :mod:`repro.serve.loadgen`).
    scheduling:
        Scheduler policy: ``"fifo"``, ``"priority"``, or ``"slo-edf"``.
    tiers:
        Priority tiers of the traffic mix; empty serves one source per
        model.
    devices / shard / link:
        Simulated multi-GPU topology: shard every registered model
        ``devices``-way (``"column"`` or ``"row"`` tensor parallel)
        over the named interconnect.  ``devices=1`` is the
        single-GPU server.
    """

    qps: float
    duration_s: float
    plan_cache_capacity: "int | None"
    scale: int = 16
    pattern: NMPattern = field(
        default_factory=lambda: NMPattern(2, 8, vector_length=8)
    )
    gpu: str = "A100"
    version: str = "V3"
    backend: str = "auto"
    arrival: str = "poisson"
    seed: int = 0
    scheduling: str = SchedulingPolicy.FIFO.value
    policy: BatchingPolicy = field(default_factory=BatchingPolicy)
    tiers: tuple[TrafficTier, ...] = ()
    devices: int = 1
    shard: str = "column"
    link: str = "nvlink"
    #: Optional :class:`~repro.obs.tracer.Tracer` threaded into the
    #: server — the scenario's seeded run then records a full span
    #: tree and metrics (``serve-sim --trace`` builds one here).
    tracer: "object | None" = None
    #: Per-launch host cost.  The scaled-down NumPy shapes make modeled
    #: GPU time microseconds, so scheduling studies that need real
    #: contention raise this instead of serving impractical QPS.
    host_overhead_s: float = DEFAULT_HOST_OVERHEAD_S
    #: Chaos schedule: a :class:`~repro.faults.FaultPlan`, a fault-spec
    #: string (``"devfail:device=1,at=0.5"``...), or ``None`` for a
    #: healthy run.
    faults: "object | str | None" = None
    #: Resilience machinery: a
    #: :class:`~repro.serve.resilience.ResiliencePolicy`, ``True`` for
    #: the defaults, or ``None``/``False`` to serve without retries,
    #: timeouts, re-sharding, or shedding.
    resilience: "object | bool | None" = None

    def __post_init__(self) -> None:
        check_int("scale", self.scale, 1, error=ServeError)
        check_trace(self.qps, self.duration_s, self.seed, self.arrival)
        check_type("tiers", self.tiers, (tuple, list), error=ServeError)
        for tier in self.tiers:
            check_type("tiers entry", tier, TrafficTier, error=ServeError)
        SchedulingPolicy.parse(self.scheduling)  # fail fast on typos

    # ------------------------------------------------------------------
    def _server(self, **options) -> InferenceServer:
        """A server with this scenario's shared settings plus the
        subclass's ``options``."""
        return InferenceServer(
            policy=self.policy,
            backend=self.backend,
            scheduling=self.scheduling,
            host_overhead_s=self.host_overhead_s,
            devices=self.devices,
            shard=self.shard,
            link=self.link,
            tracer=self.tracer,
            faults=self.faults,
            resilience=self.resilience,
            **options,
        )

    def _sources(self, model: str, k: int, untiered: TrafficTier) -> "list[TrafficSource]":
        """``model``'s traffic: one source per tier of the mix, or one
        ``untiered`` source when the mix has no tiers."""
        return [
            TrafficSource(
                model=model,
                k=k,
                share=tier.share,
                priority=tier.priority,
                slo_ms=tier.slo_ms,
                **self._traffic(tier),
            )
            for tier in self.tiers or (untiered,)
        ]

    def _activations(self) -> dict:
        """How :meth:`run` synthesizes activations (none by default)."""
        return {"synthesize_activations": False}

    def run(self) -> ServingReport:
        """Build the server, generate the seeded trace, simulate."""
        server, sources = self.build_server()
        trace = generate_requests(
            sources,
            self.qps,
            self.duration_s,
            seed=self.seed,
            arrival=self.arrival,
            **self._activations(),
        )
        return server.simulate(trace)

    def describe(self) -> str:
        text = (
            f"{self._describe_models()} pattern={self.pattern.label()} "
            f"gpu={self.gpu} {self.version} qps={self.qps:g} "
            f"duration={self.duration_s:g}s arrival={self.arrival} "
            f"seed={self.seed} sched={self.scheduling}"
            f"{self._describe_options()}"
        )
        if self.tiers:
            text += " tiers=" + ",".join(t.label() for t in self.tiers)
        if self.devices > 1:
            text += (
                f" devices={self.devices} shard={self.shard} "
                f"link={self.link}"
            )
        if self.faults is not None:
            spec = (
                self.faults
                if isinstance(self.faults, str)
                else self.faults.describe()
            )
            text += f" faults=[{spec}]"
        if self.resilience:
            text += " resilience"
        return text


@dataclass(kw_only=True)
class LlamaServingScenario(ServingScenario):
    """One reproducible serving experiment.

    Parameters
    ----------
    models:
        Llama checkpoint names (``"llama-7b"``...), each registered as
        one serving model.
    layer:
        Which linear layer's shape to serve (a name from
        :func:`~repro.workloads.llama.llama_layer_shapes`).
    continuous:
        Enable continuous batching (decode-shaped requests join the
        rolling in-flight batch instead of the cut-and-wait batcher).
    decode_fraction:
        When set, that fraction of every source's traffic is emitted
        decode-shaped (1-4 rows, multi-step); ignored by tiers that set
        their own fraction.
    """

    models: tuple[str, ...] = ("llama-7b",)
    layer: str = "attn-qkvo"
    qps: float = 200.0
    duration_s: float = 5.0
    rows_choices: tuple[int, ...] = DEFAULT_ROWS_CHOICES
    plan_cache_capacity: int = 64
    execute_numerics: bool = True
    integer_values: bool = False
    continuous: bool = False
    decode_fraction: "float | None" = None

    def __post_init__(self) -> None:
        check_type("models", self.models, (tuple, list), error=ServeError)
        if not self.models or not all(isinstance(name, str) for name in self.models):
            raise ServeError(f"models must be a nonempty tuple of names, got {self.models!r}")
        super().__post_init__()

    # ------------------------------------------------------------------
    def build_server(self) -> "tuple[InferenceServer, list[TrafficSource]]":
        """Register every model and return the server plus its traffic
        sources.  Each model is priced from its shape; its weights are
        drawn from the seed and prepared on first read."""
        server = self._server(
            plan_cache_capacity=self.plan_cache_capacity,
            execute_numerics=self.execute_numerics,
            continuous_batching=self.continuous,
        )
        sources: list[TrafficSource] = []
        weight_shapes: list[tuple[int, int]] = []  # this model's and every earlier one's
        for model_name in self.models:
            base = get_llama_model(model_name)
            scaled = base.scaled(self.scale) if self.scale > 1 else base
            shapes = {
                layer: (n, k) for layer, n, k in llama_layer_shapes(scaled)
            }
            n, k = shapes[check_choice("layer", self.layer, shapes)]
            weight_shapes.append((k, n))
            registered = f"{model_name.lower()}/{self.layer}"
            draw = partial(_draw, self.seed, tuple(weight_shapes), self.integer_values)
            op = NMSpMM(self.pattern, gpu=self.gpu, version=self.version)
            server.register_handle(registered, op, LayerSpec.plain(registered, op, k, n, draw))
            sources += self._sources(registered, k, TrafficTier(priority=0))
        return server, sources

    def _traffic(self, tier: TrafficTier) -> dict:
        fraction = tier.decode_fraction
        return {
            "rows_choices": self.rows_choices,
            "decode_fraction": self.decode_fraction if fraction is None else fraction,
        }

    def _activations(self) -> dict:
        return {
            "integer_values": self.integer_values,
            "synthesize_activations": self.execute_numerics,
        }

    def _describe_models(self) -> str:
        return (
            f"models={','.join(self.models)} layer={self.layer} "
            f"scale=1/{self.scale}"
        )

    def _describe_options(self) -> str:
        text = " continuous" if self.continuous else ""
        if self.decode_fraction is not None:
            text += f" decode={self.decode_fraction:g}"
        return text

    # ------------------------------------------------------------------
    # Canned scenarios (shared by bench_serving.py and the tests)
    # ------------------------------------------------------------------
    @classmethod
    def mixed_prefill_decode(cls, **overrides) -> "LlamaServingScenario":
        """Mixed prefill/decode traffic through the continuous batcher:
        60% decode-shaped multi-step sequences (1-4 rows), the rest
        prefill chunks on the dynamic path."""
        defaults = dict(
            models=("llama-7b",),
            qps=200.0,
            duration_s=2.0,
            continuous=True,
            decode_fraction=0.6,
            execute_numerics=False,
        )
        defaults.update(overrides)
        return cls(**defaults)

    @classmethod
    def priority_tiered(
        cls, scheduling: str = SchedulingPolicy.SLO_EDF.value, **overrides
    ) -> "LlamaServingScenario":
        """Priority-tiered traffic with per-tier SLOs: a small
        latency-sensitive interactive tier sharing the GPU with a bulk
        backlog.  Run once with ``scheduling="fifo"`` and once with
        ``"slo-edf"`` to measure what SLO-aware scheduling buys."""
        defaults = dict(
            models=("llama-7b",),
            qps=3000.0,
            duration_s=2.0,
            arrival="bursty",
            tiers=(
                TrafficTier(priority=2, slo_ms=5.0, share=0.2),
                TrafficTier(priority=0, slo_ms=100.0, share=0.8),
            ),
            policy=BatchingPolicy(max_batch_rows=64),
            host_overhead_s=2e-3,
            execute_numerics=False,
        )
        defaults.update(overrides)
        return cls(scheduling=scheduling, **defaults)
