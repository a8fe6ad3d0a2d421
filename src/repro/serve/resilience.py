"""Resilience policy of the serving runtime.

One frozen :class:`ResiliencePolicy` bundles every knob the serving
engine uses to survive injected faults (:mod:`repro.faults`):

* **retries** — a failed launch re-queues its requests with
  exponential backoff plus seeded jitter on the simulated clock, up to
  ``max_retries`` attempts per request;
* **timeouts** — a request whose deadline passes is cancelled wherever
  it lives (queued, waiting out a backoff, or resident in the rolling
  decode batch), with queue and continuous-batch accounting unwound;
* **circuit breaking** — ``breaker_threshold`` consecutive attributed
  launch failures open a device's circuit.  With a
  ``breaker_cooldown_s`` the circuit is *half-open*: the device sits
  out the cooldown (models touching it hold their launches) and then
  rejoins — the right response to a transient failure storm.  With
  ``breaker_cooldown_s=None`` an opened circuit is permanent: the
  device is treated as fail-stopped and (when re-sharding is enabled)
  its models move to the survivors;
* **re-sharding** — on device fail-stop the affected tensor-parallel
  models are re-partitioned onto the surviving devices via
  :func:`~repro.distributed.shard.shard_handle` and serving continues
  at reduced throughput (the recovery pause models re-distributing
  the compressed weights over the group link);
* **load shedding** — admission control: when a model's queue already
  holds ``shed_queue_rows`` rows, new requests below
  ``shed_protect_priority`` are rejected at admission instead of
  blowing every queued request's SLO.

``ResiliencePolicy()`` is the sensible-defaults "resilience on"
configuration; ``None`` (the server default) disables all of it —
requests fail on first fault, nothing is shed, nothing re-shards —
which is exactly the baseline the resilience benchmark compares
against.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from repro.errors import ServeError
from repro.serve.request import InferenceRequest
from repro.utils.validation import is_int

__all__ = ["ResiliencePolicy"]


@dataclass(frozen=True)
class ResiliencePolicy:
    """Tunables of the serving engine's fault handling.

    Parameters
    ----------
    max_retries:
        Launch-failure retries per request (0 = fail on first fault).
    backoff_base_s / backoff_multiplier / backoff_jitter:
        Retry ``i`` (1-based) waits ``base * multiplier**(i-1) *
        (1 + jitter * u)`` simulated seconds before re-queueing, with
        ``u`` uniform in ``[0, 1)`` from the run's seeded stream.
    timeout_slo_multiplier:
        A request carrying an SLO times out ``slo_ms * multiplier``
        after arrival; ``None`` disables SLO-derived timeouts.
    default_timeout_ms:
        Timeout for requests without an SLO; ``None`` means they never
        time out.
    breaker_threshold:
        Consecutive attributed launch failures that open a device's
        circuit; ``None`` disables the breaker.
    breaker_cooldown_s:
        Half-open recovery: an opened circuit closes again after this
        many simulated seconds (launches on the device's models hold
        until then).  ``None`` makes an opened circuit permanent —
        the device fail-stops and its models re-shard.
    reshard:
        Re-shard distributed models onto surviving devices on device
        fail-stop (plan-scheduled or breaker-opened).
    shed_queue_rows:
        Admission threshold: a request is shed when its target queue
        already holds at least this many activation rows; ``None``
        disables shedding.
    shed_protect_priority:
        Requests at or above this priority tier are never shed.
    """

    max_retries: int = 3
    backoff_base_s: float = 2e-3
    backoff_multiplier: float = 2.0
    backoff_jitter: float = 0.1
    timeout_slo_multiplier: "float | None" = 10.0
    default_timeout_ms: "float | None" = None
    breaker_threshold: "int | None" = 5
    breaker_cooldown_s: "float | None" = 0.25
    reshard: bool = True
    shed_queue_rows: "int | None" = None
    shed_protect_priority: int = 1

    def __post_init__(self) -> None:
        for name in ("max_retries", "shed_protect_priority"):
            if not is_int(getattr(self, name)):
                raise ServeError(
                    f"{name} must be an int, got {getattr(self, name)!r}"
                )
        for name in ("breaker_threshold", "shed_queue_rows"):
            value = getattr(self, name)
            if value is not None and not is_int(value):
                raise ServeError(
                    f"{name} must be an int or None, got {value!r}"
                )
        if self.max_retries < 0:
            raise ServeError(
                f"max_retries must be >= 0, got {self.max_retries}"
            )
        if not 0 <= self.backoff_base_s < math.inf:
            raise ServeError(
                "backoff_base_s must be finite >= 0, got "
                f"{self.backoff_base_s}"
            )
        if not 1 <= self.backoff_multiplier < math.inf:
            raise ServeError(
                "backoff_multiplier must be finite >= 1, got "
                f"{self.backoff_multiplier}"
            )
        if not 0 <= self.backoff_jitter < math.inf:
            raise ServeError(
                "backoff_jitter must be finite >= 0, got "
                f"{self.backoff_jitter}"
            )
        if self.timeout_slo_multiplier is not None and not (
            self.timeout_slo_multiplier > 0
            and math.isfinite(self.timeout_slo_multiplier)
        ):
            raise ServeError(
                "timeout_slo_multiplier must be finite > 0, got "
                f"{self.timeout_slo_multiplier}"
            )
        if self.default_timeout_ms is not None and not (
            self.default_timeout_ms > 0
            and math.isfinite(self.default_timeout_ms)
        ):
            raise ServeError(
                "default_timeout_ms must be finite > 0, got "
                f"{self.default_timeout_ms}"
            )
        if self.breaker_threshold is not None and self.breaker_threshold < 1:
            raise ServeError(
                f"breaker_threshold must be >= 1, got "
                f"{self.breaker_threshold}"
            )
        if self.breaker_cooldown_s is not None and not (
            self.breaker_cooldown_s > 0
            and math.isfinite(self.breaker_cooldown_s)
        ):
            raise ServeError(
                "breaker_cooldown_s must be finite > 0, got "
                f"{self.breaker_cooldown_s}"
            )
        if self.shed_queue_rows is not None and self.shed_queue_rows < 1:
            raise ServeError(
                f"shed_queue_rows must be >= 1, got {self.shed_queue_rows}"
            )
        if self.shed_protect_priority < 0:
            raise ServeError(
                "shed_protect_priority must be >= 0, got "
                f"{self.shed_protect_priority}"
            )

    # ------------------------------------------------------------------
    def timeout_s(self, request: InferenceRequest) -> "float | None":
        """The request's cancellation timeout in seconds, or ``None``
        when it never times out."""
        if request.slo_ms is not None and self.timeout_slo_multiplier:
            return request.slo_ms * self.timeout_slo_multiplier * 1e-3
        if self.default_timeout_ms is not None:
            return self.default_timeout_ms * 1e-3
        return None

    def deadline_s(self, request: InferenceRequest) -> "float | None":
        """Absolute cancellation deadline on the simulated clock."""
        timeout = self.timeout_s(request)
        if timeout is None:
            return None
        return request.arrival_s + timeout

    def backoff_s(self, attempt: int, u: float) -> float:
        """Backoff before retry ``attempt`` (1-based); ``u`` in
        ``[0, 1)`` supplies the jitter draw."""
        if attempt < 1:
            raise ServeError(f"attempt must be >= 1, got {attempt}")
        base = self.backoff_base_s * self.backoff_multiplier ** (attempt - 1)
        return base * (1.0 + self.backoff_jitter * u)

    def shed(self, request: InferenceRequest, queued_rows: int) -> bool:
        """Whether admission control rejects ``request`` given its
        target queue's current row backlog."""
        if self.shed_queue_rows is None:
            return False
        if request.priority >= self.shed_protect_priority:
            return False
        return queued_rows >= self.shed_queue_rows

    def describe(self) -> str:
        parts = [f"retries={self.max_retries}"]
        if self.timeout_slo_multiplier is not None:
            parts.append(f"timeout={self.timeout_slo_multiplier:g}x-slo")
        if self.default_timeout_ms is not None:
            parts.append(f"default-timeout={self.default_timeout_ms:g}ms")
        if self.breaker_threshold is not None:
            cooldown = (
                "permanent"
                if self.breaker_cooldown_s is None
                else f"{self.breaker_cooldown_s * 1e3:g}ms"
            )
            parts.append(f"breaker={self.breaker_threshold}/{cooldown}")
        if self.reshard:
            parts.append("reshard")
        if self.shed_queue_rows is not None:
            parts.append(
                f"shed>={self.shed_queue_rows}rows"
                f"(protect>={self.shed_protect_priority})"
            )
        return ",".join(parts)
