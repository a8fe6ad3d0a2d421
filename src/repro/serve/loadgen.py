"""Seeded load generation: arrival processes and request synthesis.

Arrivals are generated ahead of time on the simulated clock (Poisson or
bursty on/off-modulated Poisson), so a ``(seed, qps, duration)`` triple
always produces the identical request trace — serving curves reproduce
bit-for-bit with no wall-clock flakiness.

Request shapes are Llama-flavoured: each :class:`TrafficSource` targets
one registered weight matrix (e.g. a scaled Llama linear layer from
:mod:`repro.workloads.llama`) and draws its activation row count from a
decode-heavy distribution (mostly 1-8 rows, the occasional larger
prefill chunk).  Sources can *tag* their streams — a priority tier, an
SLO deadline, and a decode fraction that splits the stream into
decode-shaped multi-step sequences vs. single-step prefill chunks — so
one trace can mix interactive and bulk tiers for the scheduler to
separate.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.errors import ServeError
from repro.serve.request import InferenceRequest
from repro.utils.validation import check_choice, check_float, check_int, check_type

__all__ = [
    "poisson_arrivals",
    "bursty_arrivals",
    "TrafficSource",
    "generate_requests",
    "check_rate",
    "check_trace",
    "check_counts",
    "ARRIVALS",
    "DECODE_ROWS_CHOICES",
    "DEFAULT_DECODE_STEPS_CHOICES",
]

#: Default decode-heavy request row distribution: mostly single-token
#: decode steps, a tail of small prefill chunks.
DEFAULT_ROWS_CHOICES: tuple[int, ...] = (1, 2, 4, 8, 16)
DEFAULT_ROWS_WEIGHTS: tuple[float, ...] = (0.45, 0.25, 0.15, 0.10, 0.05)

#: Row counts of an explicitly decode-shaped request (m = 1..4 rows per
#: request, the regime the continuous batcher exists for) and the step
#: counts of the decode sequences it emits.
DECODE_ROWS_CHOICES: tuple[int, ...] = (1, 2, 4)
DEFAULT_DECODE_STEPS_CHOICES: tuple[int, ...] = (2, 4, 8)

#: Most arrivals a trace may expect (``qps * duration_s``): far above
#: any canned scenario's 6,000, and low enough that the arrival loop
#: and the trace it builds stay bounded.
MAX_EXPECTED_ARRIVALS = 1_000_000

#: The arrival processes :func:`generate_requests` draws from.
ARRIVALS = ("poisson", "bursty")


def check_rate(qps: float, duration_s: float) -> None:
    """Reject a rate or a horizon that is not a finite number > 0 (an
    infinite one would never end the arrival loop), or whose product
    expects more than :data:`MAX_EXPECTED_ARRIVALS` arrivals."""
    check_float("qps", qps, gt=0, error=ServeError)
    check_float("duration_s", duration_s, gt=0, error=ServeError)
    if qps * duration_s > MAX_EXPECTED_ARRIVALS:
        raise ServeError(
            f"qps * duration_s expects {qps * duration_s:g} arrivals, "
            f"more than {MAX_EXPECTED_ARRIVALS:,}"
        )


def check_trace(qps: float, duration_s: float, seed: int, arrival: str) -> None:
    """Reject what :func:`generate_requests` would: a bad rate or
    horizon (:func:`check_rate`), a negative or non-int seed, or an
    unknown arrival process."""
    check_rate(qps, duration_s)
    check_int("seed", seed, 0, error=ServeError)
    check_choice("arrival process", arrival, ARRIVALS, error=ServeError)


def check_counts(name: str, values) -> None:
    """A choice list of counts: a nonempty tuple or list of ints >= 1."""
    if not isinstance(values, (tuple, list)) or not values:
        raise ServeError(f"{name} must be a nonempty tuple, got {values!r}")
    for value in values:
        check_int(f"{name} entry", value, 1, error=ServeError)


def poisson_arrivals(
    qps: float, duration_s: float, rng: np.random.Generator
) -> list[float]:
    """Homogeneous Poisson arrivals at ``qps`` over ``[0, duration_s)``
    (i.i.d. exponential gaps)."""
    check_rate(qps, duration_s)
    times: list[float] = []
    t = float(rng.exponential(1.0 / qps))
    while t < duration_s:
        times.append(t)
        t += float(rng.exponential(1.0 / qps))
    return times


def bursty_arrivals(
    qps: float,
    duration_s: float,
    rng: np.random.Generator,
    *,
    burst_factor: float = 4.0,
    burst_fraction: float = 0.25,
    cycle_s: float = 0.25,
) -> list[float]:
    """On/off-modulated Poisson arrivals with mean rate ``qps``.

    Each ``cycle_s`` window starts with a burst phase lasting
    ``burst_fraction`` of the cycle at ``burst_factor * qps``; the off
    phase rate is chosen so the long-run mean stays ``qps``.  Within
    each phase, arrival counts are Poisson and positions uniform (the
    standard conditional-uniformity construction), keeping the trace a
    pure function of the seed.
    """
    check_rate(qps, duration_s)
    check_float("burst_factor", burst_factor, ge=1, error=ServeError)
    check_float("burst_fraction", burst_fraction, gt=0, lt=1, error=ServeError)
    check_float("cycle_s", cycle_s, gt=0, error=ServeError)
    if burst_factor * burst_fraction > 1:
        raise ServeError(
            f"burst_factor={burst_factor} with burst_fraction="
            f"{burst_fraction} would need a negative off-phase rate to "
            "keep the mean at qps; require burst_factor <= "
            f"{1.0 / burst_fraction:g}"
        )
    rate_on = qps * burst_factor
    rate_off = qps * (1.0 - burst_fraction * burst_factor) / (
        1.0 - burst_fraction
    )
    times: list[float] = []
    t0 = 0.0
    while t0 < duration_s:
        for rate, t_start, t_end in (
            (rate_on, t0, t0 + burst_fraction * cycle_s),
            (rate_off, t0 + burst_fraction * cycle_s, t0 + cycle_s),
        ):
            t_end = min(t_end, duration_s)
            span = t_end - t_start
            if span <= 0 or rate <= 0:
                continue
            count = int(rng.poisson(rate * span))
            if count:
                times.extend(
                    sorted(t_start + span * rng.random(count))
                )
        t0 += cycle_s
    return times


@dataclass(frozen=True)
class TrafficSource:
    """One stream of Llama-shaped requests against a registered model.

    Parameters
    ----------
    model:
        Registered model name the requests target.
    k:
        Activation width — must equal the registered handle's ``k``.
    rows_choices / rows_weights:
        Distribution of the per-request activation row count.
    share:
        Relative traffic share when several sources mix.
    priority:
        Priority tier tagged onto every request this source emits.
    slo_ms:
        Latency objective tagged onto every request this source emits
        (drives ``slo-edf`` scheduling and the attainment metric).
    decode_fraction:
        When set, this fraction of the source's requests is emitted
        decode-shaped — rows drawn from ``DECODE_ROWS_CHOICES`` and a
        multi-step sequence length from ``decode_steps_choices`` — and
        the rest prefill-shaped (``rows_choices``, a single step).
        ``None`` keeps the legacy single-distribution behaviour.
    decode_steps_choices:
        Sequence lengths (engine steps) of the decode-shaped requests.
    prompt_len_choices:
        When set, the source emits *model-mode* requests instead: one
        sequence per request (rows=1, metadata-only) with a prompt
        length drawn here and a generation length drawn from
        ``max_new_tokens_choices``.  The target model must be
        registered via ``register_executor``.
    max_new_tokens_choices:
        Generation lengths of model-mode requests (ignored unless
        ``prompt_len_choices`` is set).
    """

    model: str
    k: int
    rows_choices: tuple[int, ...] = DEFAULT_ROWS_CHOICES
    rows_weights: "tuple[float, ...] | None" = DEFAULT_ROWS_WEIGHTS
    share: float = 1.0
    priority: int = 0
    slo_ms: "float | None" = None
    decode_fraction: "float | None" = None
    decode_steps_choices: tuple[int, ...] = DEFAULT_DECODE_STEPS_CHOICES
    prompt_len_choices: "tuple[int, ...] | None" = None
    max_new_tokens_choices: tuple[int, ...] = (8, 16)

    def __post_init__(self) -> None:
        # Every field a request copies takes the request's own rule.
        if not self.model:
            raise ServeError("request needs a model name")
        check_int("k", self.k, 1, error=ServeError)
        check_int("priority", self.priority, 0, error=ServeError)
        check_float("slo_ms", self.slo_ms, gt=0, error=ServeError, optional=True)
        check_float("share", self.share, gt=0, error=ServeError)
        check_float(
            "decode_fraction", self.decode_fraction, ge=0, le=1, error=ServeError,
            optional=True,
        )
        check_counts("rows_choices", self.rows_choices)
        check_counts("decode_steps_choices", self.decode_steps_choices)
        check_counts("max_new_tokens_choices", self.max_new_tokens_choices)
        # The decode-heavy default weights only fit the default choices;
        # custom rows_choices fall back to uniform unless the caller
        # supplies matching weights explicitly.
        if (
            self.rows_weights is DEFAULT_ROWS_WEIGHTS
            and len(self.rows_choices) != len(DEFAULT_ROWS_WEIGHTS)
        ):
            object.__setattr__(self, "rows_weights", None)
        weights = self.rows_weights
        if weights is not None:
            if not isinstance(weights, (tuple, list)) or len(weights) != len(self.rows_choices):
                raise ServeError(f"rows_weights must pair with rows_choices, got {weights!r}")
            for weight in weights:
                check_float("rows_weights entry", weight, ge=0, error=ServeError)
            if not sum(weights):
                raise ServeError(f"rows_weights must not all be 0, got {weights!r}")
        if self.prompt_len_choices is not None:
            check_counts("prompt_len_choices", self.prompt_len_choices)
            if self.decode_fraction is not None:
                raise ServeError(
                    "prompt_len_choices (model mode) and decode_fraction "
                    "(decode-shaped GEMM mode) are mutually exclusive"
                )


def generate_requests(
    sources: "list[TrafficSource] | tuple[TrafficSource, ...]",
    qps: float,
    duration_s: float,
    *,
    seed: int = 0,
    arrival: str = "poisson",
    integer_values: bool = False,
    synthesize_activations: bool = True,
    burst_factor: float = 4.0,
    burst_fraction: float = 0.25,
    cycle_s: float = 0.25,
) -> list[InferenceRequest]:
    """A full seeded request trace, sorted by arrival time.

    ``integer_values`` fills activations with small integers (exactly
    representable in float32), which makes batched-vs-individual
    execution *bitwise* comparable regardless of BLAS accumulation
    order — the correctness tests rely on it.

    ``synthesize_activations=False`` emits metadata-only requests
    (``a=None``, just ``(rows, k)``) for scheduling-only runs with
    numerics off — no point drawing and storing activation data the
    engine never reads.
    """
    check_type("sources", sources, (tuple, list), error=ServeError)
    if not sources or not all(isinstance(s, TrafficSource) for s in sources):
        raise ServeError(f"sources must be a nonempty list of TrafficSource, got {sources!r}")
    check_trace(qps, duration_s, seed, arrival)
    rng = np.random.default_rng(seed)
    if arrival == "poisson":
        times = poisson_arrivals(qps, duration_s, rng)
    else:
        times = bursty_arrivals(
            qps,
            duration_s,
            rng,
            burst_factor=burst_factor,
            burst_fraction=burst_fraction,
            cycle_s=cycle_s,
        )

    shares = np.array([s.share for s in sources], dtype=np.float64)
    shares /= shares.sum()
    rows_weights_by_source: "list[np.ndarray | None]" = []
    for src in sources:
        if src.rows_weights is None:
            rows_weights_by_source.append(None)
        else:
            weights = np.array(src.rows_weights, dtype=np.float64)
            rows_weights_by_source.append(weights / weights.sum())
    requests: list[InferenceRequest] = []
    for i, t in enumerate(times):
        src_index = int(rng.choice(len(sources), p=shares))
        src = sources[src_index]
        if src.prompt_len_choices is not None:
            # Model mode: one sequence, metadata-only (the engine runs
            # modeled-time full-model walks, never the numerics).
            requests.append(
                InferenceRequest(
                    request_id=i,
                    model=src.model,
                    a=None,
                    arrival_s=float(t),
                    shape=(1, src.k),
                    priority=src.priority,
                    slo_ms=src.slo_ms,
                    prompt_len=int(rng.choice(src.prompt_len_choices)),
                    max_new_tokens=int(
                        rng.choice(src.max_new_tokens_choices)
                    ),
                )
            )
            continue
        steps = 1
        if src.decode_fraction is not None and (
            rng.random() < src.decode_fraction
        ):
            rows = int(rng.choice(DECODE_ROWS_CHOICES))
            steps = int(rng.choice(src.decode_steps_choices))
        else:
            rows = int(
                rng.choice(
                    src.rows_choices, p=rows_weights_by_source[src_index]
                )
            )
        tags = dict(priority=src.priority, slo_ms=src.slo_ms, steps=steps)
        if not synthesize_activations:
            requests.append(
                InferenceRequest(
                    request_id=i,
                    model=src.model,
                    a=None,
                    arrival_s=float(t),
                    shape=(rows, src.k),
                    **tags,
                )
            )
            continue
        if integer_values:
            a = rng.integers(-4, 5, size=(rows, src.k)).astype(np.float32)
        else:
            a = rng.standard_normal((rows, src.k)).astype(np.float32)
        requests.append(
            InferenceRequest(
                request_id=i, model=src.model, a=a, arrival_s=float(t), **tags
            )
        )
    return requests
