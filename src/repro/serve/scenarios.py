"""Canned serving scenarios: Llama-shaped models under synthetic load.

Shared by ``python -m repro serve-sim`` and
``benchmarks/bench_serving.py`` so the CLI demo and the tracked
benchmark run the identical setup: each requested Llama checkpoint is
shrunk by ``scale`` (geometry-preserving), one linear layer's weight
matrix is registered on the server (synthesized from the seed when the
server reads weights, else priced from its shape and synthesized on
first read), and a :class:`~repro.serve.loadgen.TrafficSource` is
attached to it.
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
    check_rate,
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
from repro.utils.validation import check_non_negative_int
from repro.workloads.llama import get_llama_model, llama_layer_shapes

__all__ = ["parse_pattern", "TrafficTier", "LlamaServingScenario"]


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


@dataclass
class LlamaServingScenario:
    """One reproducible serving experiment.

    Parameters
    ----------
    models:
        Llama checkpoint names (``"llama-7b"``...), each registered as
        one serving model.
    layer:
        Which linear layer's shape to serve (a name from
        :func:`~repro.workloads.llama.llama_layer_shapes`).
    scale:
        Geometry-preserving shrink factor applied to every dimension so
        the NumPy kernels stay fast; 1 serves the true shapes.
    pattern:
        N:M sparsity pattern for every registered model.
    qps / duration_s / arrival / seed:
        Load-generation knobs (see :mod:`repro.serve.loadgen`).
    scheduling:
        Scheduler policy: ``"fifo"``, ``"priority"``, or ``"slo-edf"``.
    continuous:
        Enable continuous batching (decode-shaped requests join the
        rolling in-flight batch instead of the cut-and-wait batcher).
    decode_fraction:
        When set, that fraction of every source's traffic is emitted
        decode-shaped (1-4 rows, multi-step); ignored by tiers that set
        their own fraction.
    tiers:
        Priority tiers of the traffic mix; empty serves one untagged
        source per model (the legacy behaviour).
    devices / shard / link:
        Simulated multi-GPU topology: shard every registered model
        ``devices``-way (``"column"`` or ``"row"`` tensor parallel)
        over the named interconnect.  ``devices=1`` is the
        single-GPU server.
    """

    models: tuple[str, ...] = ("llama-7b",)
    layer: str = "attn-qkvo"
    scale: int = 16
    pattern: NMPattern = field(
        default_factory=lambda: NMPattern(2, 8, vector_length=8)
    )
    gpu: str = "A100"
    version: str = "V3"
    qps: float = 200.0
    duration_s: float = 5.0
    arrival: str = "poisson"
    seed: int = 0
    rows_choices: tuple[int, ...] = DEFAULT_ROWS_CHOICES
    policy: BatchingPolicy = field(default_factory=BatchingPolicy)
    plan_cache_capacity: int = 64
    execute_numerics: bool = True
    integer_values: bool = False
    backend: str = "auto"
    scheduling: str = SchedulingPolicy.FIFO.value
    continuous: bool = False
    decode_fraction: "float | None" = None
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
        if not self.models:
            raise ServeError("scenario needs at least one model")
        if self.scale < 1:
            raise ConfigurationError(
                "scale must be >= 1 (1 serves the true shapes), got "
                f"{self.scale}"
            )
        check_rate(self.qps, self.duration_s)
        check_non_negative_int("seed", self.seed)
        SchedulingPolicy.parse(self.scheduling)  # fail fast on typos

    # ------------------------------------------------------------------
    def build_server(self) -> "tuple[InferenceServer, list[TrafficSource]]":
        """Register every model and return the server plus one traffic
        source per model.  Weights are drawn (and prepared) now only
        if the server reads them."""
        server = InferenceServer(
            policy=self.policy,
            plan_cache_capacity=self.plan_cache_capacity,
            execute_numerics=self.execute_numerics,
            backend=self.backend,
            scheduling=self.scheduling,
            continuous_batching=self.continuous,
            host_overhead_s=self.host_overhead_s,
            devices=self.devices,
            shard=self.shard,
            link=self.link,
            tracer=self.tracer,
            faults=self.faults,
            resilience=self.resilience,
        )
        sources: list[TrafficSource] = []
        weight_shapes: list[tuple[int, int]] = []  # this model's and every earlier one's
        for model_name in self.models:
            base = get_llama_model(model_name)
            scaled = base.scaled(self.scale) if self.scale > 1 else base
            shapes = {
                layer: (n, k) for layer, n, k in llama_layer_shapes(scaled)
            }
            if self.layer not in shapes:
                raise ConfigurationError(
                    f"unknown layer {self.layer!r}; known: "
                    f"{sorted(shapes)}"
                )
            n, k = shapes[self.layer]
            weight_shapes.append((k, n))
            registered = f"{model_name.lower()}/{self.layer}"
            draw = partial(_draw, self.seed, tuple(weight_shapes), self.integer_values)
            if server.reads_weights:
                server.register_model(
                    registered, draw(), self.pattern, gpu=self.gpu, version=self.version
                )
            else:
                op = NMSpMM(self.pattern, gpu=self.gpu, version=self.version)
                spec = LayerSpec.plain(registered, op, k, n, draw)
                server.register_handle(registered, op, spec)
            if self.tiers:
                for tier in self.tiers:
                    sources.append(
                        TrafficSource(
                            model=registered,
                            k=k,
                            rows_choices=self.rows_choices,
                            share=tier.share,
                            priority=tier.priority,
                            slo_ms=tier.slo_ms,
                            decode_fraction=(
                                tier.decode_fraction
                                if tier.decode_fraction is not None
                                else self.decode_fraction
                            ),
                        )
                    )
            else:
                sources.append(
                    TrafficSource(
                        model=registered,
                        k=k,
                        rows_choices=self.rows_choices,
                        decode_fraction=self.decode_fraction,
                    )
                )
        return server, sources

    def run(self) -> ServingReport:
        """Build the server, generate the seeded trace, simulate."""
        server, sources = self.build_server()
        trace = generate_requests(
            sources,
            self.qps,
            self.duration_s,
            seed=self.seed,
            arrival=self.arrival,
            integer_values=self.integer_values,
            synthesize_activations=self.execute_numerics,
        )
        return server.simulate(trace)

    def describe(self) -> str:
        text = (
            f"models={','.join(self.models)} layer={self.layer} "
            f"scale=1/{self.scale} pattern={self.pattern.label()} "
            f"gpu={self.gpu} {self.version} qps={self.qps:g} "
            f"duration={self.duration_s:g}s arrival={self.arrival} "
            f"seed={self.seed} sched={self.scheduling}"
        )
        if self.continuous:
            text += " continuous"
        if self.decode_fraction is not None:
            text += f" decode={self.decode_fraction:g}"
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
