"""Request and completion records of the serving runtime.

An :class:`InferenceRequest` is one user call against a registered
model: a dense activation block ``A_i`` of shape ``(rows, k)`` plus a
simulated arrival timestamp.  The runtime stacks many requests into one
NM-SpMM launch (the online phase of Fig. 2 amortized over a batch) and
returns a :class:`RequestRecord` per request carrying the timing
decomposition the metrics layer aggregates.

All timestamps are seconds on the *simulated* clock — the runtime never
reads the wall clock, which keeps throughput/latency curves exactly
reproducible for a given seed.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.errors import ServeError
from repro.utils.arrays import as_f32
from repro.utils.validation import check_float, check_int, check_matrix, check_real, is_int

__all__ = ["InferenceRequest", "RequestRecord"]


@dataclass(frozen=True)
class InferenceRequest:
    """One inference call against a registered model.

    Parameters
    ----------
    request_id:
        Unique monotone id (ties in arrival time break by id).
    model:
        Name the target weights were registered under.
    a:
        The activation block, ``(rows, k)`` float32 — or ``None`` for a
        metadata-only request (scheduling studies with numerics off),
        in which case ``shape`` supplies ``(rows, k)``.
    arrival_s:
        Arrival time on the simulated clock.
    shape:
        ``(rows, k)`` of a metadata-only request; ignored (and must be
        omitted) when ``a`` is given.
    priority:
        Strict-priority tier (higher wins) under the ``priority`` and
        ``slo-edf`` scheduling policies; ignored under ``fifo``.
    slo_ms:
        Optional latency objective in milliseconds.  Sets the request's
        deadline (``arrival_s + slo_ms``) for earliest-deadline-first
        scheduling and the SLO-attainment metric.
    steps:
        Engine steps the request occupies a batch for — a decode
        sequence of this many token steps.  The dynamic (cut-and-wait)
        path holds the whole batch for the longest member's step count;
        the continuous path re-forms the rolling batch every step.
    prompt_len:
        Model-mode only: prompt tokens to prefill before decoding.
        Requires ``max_new_tokens``, a single activation row, and a
        metadata-only request (model serving is modeled-time only).
    max_new_tokens:
        Model-mode only: decode steps to run (``steps`` is derived
        from it).  Each generated token grows the sequence's simulated
        KV cache by one token's bytes.

    ``rows``/``k`` (the activation block's shape) and ``deadline_s``
    (``arrival_s + slo_ms``, or ``None`` without an SLO) are fixed
    attributes, set once at construction.
    """

    request_id: int
    model: str
    a: "np.ndarray | None"
    arrival_s: float
    shape: "tuple[int, int] | None" = None
    priority: int = 0
    slo_ms: "float | None" = None
    steps: int = 1
    prompt_len: "int | None" = None
    max_new_tokens: "int | None" = None
    rows: int = field(init=False, repr=False, compare=False)
    k: int = field(init=False, repr=False, compare=False)
    deadline_s: "float | None" = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        check_int("request_id", self.request_id, 0, error=ServeError)
        if not self.model:
            raise ServeError("request needs a model name")
        if self.a is not None:
            if self.shape is not None:
                raise ServeError("pass either a or shape, not both")
            a = as_f32(check_real("a", check_matrix("a", self.a)))
            object.__setattr__(self, "a", a)
            rows, k = a.shape
        else:
            if self.shape is None:
                raise ServeError(
                    "a metadata-only request needs shape=(rows, k)"
                )
            if not (
                isinstance(self.shape, tuple)
                and len(self.shape) == 2
                and all(is_int(n) and n >= 1 for n in self.shape)
            ):
                raise ServeError(
                    f"shape must be (rows, k) ints >= 1, got {self.shape!r}"
                )
            rows, k = self.shape
        object.__setattr__(self, "rows", int(rows))
        object.__setattr__(self, "k", int(k))
        check_float("arrival_s", self.arrival_s, ge=0, error=ServeError)
        check_int("priority", self.priority, 0, error=ServeError)
        check_float("slo_ms", self.slo_ms, gt=0, error=ServeError, optional=True)
        deadline = None if self.slo_ms is None else self.arrival_s + self.slo_ms * 1e-3
        object.__setattr__(self, "deadline_s", deadline)
        check_int("steps", self.steps, 1, error=ServeError)
        if (self.prompt_len is None) != (self.max_new_tokens is None):
            raise ServeError(
                "model-mode requests need both prompt_len and "
                "max_new_tokens (or neither)"
            )
        if self.prompt_len is not None:
            check_int("prompt_len", self.prompt_len, 1, error=ServeError)
            check_int("max_new_tokens", self.max_new_tokens, 1, error=ServeError)
            if self.a is not None:
                raise ServeError(
                    "model-mode requests are metadata-only (modeled-time "
                    "serving); pass shape=, not a="
                )
            if self.rows != 1:
                raise ServeError(
                    f"a model-mode request is one sequence (rows=1), "
                    f"got rows={self.rows}"
                )
            if self.steps == 1:
                object.__setattr__(self, "steps", self.max_new_tokens)
            elif self.steps != self.max_new_tokens:
                raise ServeError(
                    f"steps={self.steps} conflicts with "
                    f"max_new_tokens={self.max_new_tokens}"
                )

    def label(self) -> str:
        text = (
            f"req#{self.request_id} {self.model} "
            f"{self.rows}x{self.k} @t={self.arrival_s * 1e3:.3f}ms"
        )
        if self.priority:
            text += f" pri={self.priority}"
        if self.slo_ms is not None:
            text += f" slo={self.slo_ms:g}ms"
        if self.prompt_len is not None:
            text += f" prompt={self.prompt_len} gen={self.max_new_tokens}"
        elif self.steps > 1:
            text += f" steps={self.steps}"
        return text


@dataclass
class RequestRecord:
    """Completion record for one request.

    ``output`` is the request's slice of the batched product (padding
    rows removed), or ``None`` when the runtime ran in modeled-time-only
    mode.
    """

    request: InferenceRequest
    batch_id: int
    started_s: float
    finished_s: float
    output: "np.ndarray | None" = None
    #: Launch-failure retries this request survived before completing
    #: (0 on a healthy run; populated by the resilience machinery).
    retries: int = 0

    def __post_init__(self) -> None:
        if self.retries < 0:
            raise ServeError(f"retries must be >= 0, got {self.retries}")
        if self.finished_s < self.started_s:
            raise ServeError(
                f"finished_s={self.finished_s} precedes started_s="
                f"{self.started_s}"
            )
        if self.started_s < self.request.arrival_s:
            raise ServeError(
                f"request {self.request.request_id} started at "
                f"{self.started_s} before its arrival "
                f"{self.request.arrival_s}"
            )

    @property
    def latency_s(self) -> float:
        """Arrival-to-completion latency (what users experience)."""
        return self.finished_s - self.request.arrival_s

    @property
    def queue_wait_s(self) -> float:
        """Time spent queued before the batch launched."""
        return self.started_s - self.request.arrival_s

    @property
    def slo_met(self) -> "bool | None":
        """Whether the request finished inside its SLO (``None`` when
        it carries none)."""
        if self.request.slo_ms is None:
            return None
        return self.latency_s <= self.request.slo_ms * 1e-3
