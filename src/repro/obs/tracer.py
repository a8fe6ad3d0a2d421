"""Span-tree tracing on the simulated clock.

The serving/distributed stack advances a *simulated* clock (modeled
GPU seconds drive latency; the wall clock is never read), so a trace
of one seeded run is fully deterministic: every span's start and end
are assertable numbers, and two runs of the same scenario export
byte-identical trace files.  That determinism is what lets tier-1
tests reconcile span totals against :class:`~repro.serve.metrics.
ServingMetrics` aggregates instead of merely eyeballing a timeline.

Two record kinds:

* :class:`Span` — an interval ``[start_s, end_s]`` on a named track
  (``engine``, ``queue``, ``device0``...), optionally parented to
  another span.  Spans form trees: children must nest inside their
  parent on the clock (:meth:`Tracer.check_invariants`).
* :class:`TraceEvent` — an instant (admission, plan-cache hit,
  selector decision) with free-form attributes.

Because the engine is a discrete-event loop rather than a call stack,
most spans are recorded *retroactively* with :meth:`Tracer.add_span`
(both endpoints known at launch accounting time).  The context-manager
:meth:`Tracer.span` covers the synchronous-nesting case (tests, host
code) using the tracer's current clock at enter/exit.
"""

from __future__ import annotations

import contextlib
from collections import deque
from dataclasses import dataclass, field
from typing import Any, Iterator, Protocol

from repro.errors import ObsError
from repro.obs.metrics import MetricsRegistry
from repro.utils.validation import check_float, check_int

__all__ = ["Span", "TraceEvent", "TraceSink", "Tracer"]

#: Sentinel for "parent is the innermost open span" in add_span.
_INHERIT: Any = object()

#: Knuth's 64-bit LCG constants — the sampler's private stream, kept
#: off :mod:`numpy` so tracing never perturbs workload RNG draws.
_LCG_MULT = 6364136223846793005
_LCG_INC = 1442695040888963407
_LCG_MASK = (1 << 64) - 1


@dataclass
class Span:
    """One traced interval on the simulated clock."""

    span_id: int
    name: str
    start_s: float
    end_s: "float | None" = None
    parent_id: "int | None" = None
    track: str = "engine"
    attrs: dict[str, Any] = field(default_factory=dict)
    #: Whether this span's *trace* (root draw under ``sample_rate``)
    #: was kept.  Unsampled spans still exist in-process so parenting
    #: and the LIFO stack work, but are never retained or exported.
    sampled: bool = True

    @property
    def finished(self) -> bool:
        return self.end_s is not None

    @property
    def duration_s(self) -> float:
        if self.end_s is None:
            raise ObsError(
                f"span {self.name!r} (#{self.span_id}) is still open"
            )
        return self.end_s - self.start_s


@dataclass(frozen=True)
class TraceEvent:
    """One instantaneous trace event."""

    name: str
    t_s: float
    track: str = "engine"
    attrs: dict[str, Any] = field(default_factory=dict)


class TraceSink(Protocol):
    """The streaming-exporter interface ``Tracer(sink=...)`` expects
    (structural — :class:`~repro.obs.export.StreamingJsonlWriter` is
    one implementation)."""

    def on_span(self, span: Span) -> None:
        """Called the moment a sampled span finishes."""

    def on_event(self, event: TraceEvent) -> None:
        """Called the moment a sampled instant event is recorded."""


class Tracer:
    """Collects spans/events against a manually advanced clock.

    The clock (:attr:`now`) is *pushed* by the instrumented code —
    the serving engine calls :meth:`advance` as its discrete-event
    loop moves — and only the context-manager path reads it; spans
    recorded via :meth:`add_span` carry explicit timestamps and may
    lie anywhere at or before the current clock (the engine accounts
    for a launch after deciding it).

    ``tracer.metrics`` is the run's :class:`~repro.obs.metrics.
    MetricsRegistry`; instruments update both through the one handle
    the server threads everywhere (``InferenceServer(tracer=)``).

    Parameters
    ----------
    sink:
        Optional streaming exporter (e.g. :class:`~repro.obs.export.
        StreamingJsonlWriter`): its ``on_span`` is called the moment a
        span finishes and ``on_event`` the moment an event is
        recorded, so long runs can write trace files incrementally.
    retain:
        When ``False`` (requires a ``sink``), finished records are
        *not* kept in ``spans``/``events`` — memory stays bounded on
        long chaos runs, at the price of in-process queries
        (``find``/``total_s``/``check_invariants``) seeing only the
        spans still open.
    modeled_host_spans:
        When ``True``, instrumented *host* code (``SparseHandle.run``)
        stamps its ``backend.<name>.run`` span with the plan's modeled
        seconds instead of measured wall time, keeping the whole trace
        deterministic under seeded chaos.
    sample_rate:
        Fraction of *traces* kept, in ``[0, 1]``.  The decision is
        made once per root span from a private seeded LCG stream (so a
        given scenario samples the same traces on every run) and every
        descendant span inherits it — a trace is kept or dropped
        whole, never torn.  Metrics are always recorded regardless.
    sample_seed:
        Seed of the sampler's LCG stream.
    ring_capacity:
        When set, in-process retention becomes a bounded ring: only
        the most recent ``ring_capacity`` spans (and events) are kept,
        older records are dropped (counted in :attr:`dropped_spans` /
        :attr:`dropped_events`).  A streaming ``sink`` still sees
        everything — the ring only bounds *memory*.
    """

    def __init__(
        self,
        *,
        metrics: "MetricsRegistry | None" = None,
        sink: "TraceSink | None" = None,
        retain: bool = True,
        modeled_host_spans: bool = False,
        sample_rate: float = 1.0,
        sample_seed: int = 0,
        ring_capacity: "int | None" = None,
    ) -> None:
        if not retain and sink is None:
            raise ObsError(
                "retain=False would silently drop every record; "
                "attach a sink"
            )
        check_float("sample_rate", sample_rate, ge=0, le=1, error=ObsError)
        check_int("ring_capacity", ring_capacity, 1, error=ObsError, optional=True)
        self.now: float = 0.0
        if ring_capacity is None:
            self.spans: list[Span] = []
            self.events: list[TraceEvent] = []
        else:
            self.spans = deque(maxlen=ring_capacity)  # type: ignore[assignment]
            self.events = deque(maxlen=ring_capacity)  # type: ignore[assignment]
        self.metrics = metrics if metrics is not None else MetricsRegistry()
        self.sink = sink
        self.retain = retain
        self.modeled_host_spans = modeled_host_spans
        self.sample_rate = float(sample_rate)
        self.ring_capacity = ring_capacity
        self.dropped_spans = 0
        self.dropped_events = 0
        self._sample_state = (sample_seed ^ _LCG_INC) & _LCG_MASK
        self._sample_threshold = int(self.sample_rate * float(1 << 64))
        self._stack: list[Span] = []
        self._next_id = 0
        #: Shared tombstone returned for unsampled add_span calls.
        self._unsampled = Span(
            span_id=-1, name="", start_s=0.0, end_s=0.0, sampled=False
        )

    # ------------------------------------------------------------------
    # Sampling
    # ------------------------------------------------------------------
    def _draw_sampled(self) -> bool:
        """One head-sampling decision (deterministic LCG stream)."""
        if self.sample_rate >= 1.0:
            return True
        if self.sample_rate <= 0.0:
            return False
        state = (self._sample_state * _LCG_MULT + _LCG_INC) & _LCG_MASK
        self._sample_state = state
        return state < self._sample_threshold

    def sample(self) -> bool:
        """Draw one head-sampling decision *up front*, for hot call
        sites that want to skip building span/event attributes
        entirely when the trace is dropped.  Pass the result back via
        ``keep=`` on :meth:`add_span` / :meth:`event` so the record
        does not draw a second time."""
        return self._draw_sampled()

    def _retain_span(self, span: Span) -> None:
        if self.ring_capacity is not None and len(self.spans) == self.ring_capacity:
            self.dropped_spans += 1
        self.spans.append(span)

    # ------------------------------------------------------------------
    # Clock
    # ------------------------------------------------------------------
    def advance(self, t_s: float) -> None:
        """Move the simulated clock forward (never backward)."""
        if t_s > self.now:
            self.now = t_s

    # ------------------------------------------------------------------
    # Recording
    # ------------------------------------------------------------------
    def _allocate(
        self,
        name: str,
        start_s: float,
        track: str,
        parent_id: "int | None",
        attrs: dict[str, Any],
        sampled: bool,
    ) -> Span:
        span = Span(
            span_id=self._next_id,
            name=name,
            start_s=float(start_s),
            parent_id=parent_id,
            track=track,
            attrs=attrs,
            sampled=sampled,
        )
        self._next_id += 1
        if self.retain and sampled:
            self._retain_span(span)
        return span

    def _finished(self, span: Span) -> None:
        if self.sink is not None and span.sampled:
            self.sink.on_span(span)

    def begin(self, name: str, *, track: str = "engine", **attrs: Any) -> Span:
        """Open a span at the current clock and push it on the stack;
        spans opened while it is open become its children."""
        if self._stack:
            parent = self._stack[-1].span_id
            sampled = self._stack[-1].sampled
        else:
            parent = None
            sampled = self._draw_sampled()
        span = self._allocate(name, self.now, track, parent, attrs, sampled)
        self._stack.append(span)
        return span

    def end(self, span: "Span | None" = None) -> Span:
        """Close the innermost open span at the current clock.  An
        explicit ``span`` must *be* the innermost one — spans close in
        LIFO order or the tree would interleave."""
        if not self._stack:
            raise ObsError("end() with no open span")
        top = self._stack[-1]
        if span is not None and span is not top:
            raise ObsError(
                f"cannot end span {span.name!r} while {top.name!r} is "
                "still open (spans close innermost-first)"
            )
        self._stack.pop()
        top.end_s = max(self.now, top.start_s)
        self._finished(top)
        return top

    @contextlib.contextmanager
    def span(
        self, name: str, *, track: str = "engine", **attrs: Any
    ) -> Iterator[Span]:
        """Context manager: open at the clock on entry, close at the
        clock on exit (advance the clock inside the block to give the
        span duration)."""
        opened = self.begin(name, track=track, **attrs)
        try:
            yield opened
        finally:
            self.end(opened)

    def add_span(
        self,
        name: str,
        start_s: float,
        end_s: float,
        *,
        track: str = "engine",
        parent: "Span | None | Any" = _INHERIT,
        keep: "bool | None" = None,
        **attrs: Any,
    ) -> Span:
        """Record a completed span with explicit endpoints (the
        engine's retroactive accounting path).  ``parent`` is a
        :class:`Span`, ``None`` for a root, or omitted to inherit the
        innermost open span.  ``keep`` injects a sampling decision the
        caller already drew via :meth:`sample` (root spans only;
        children always inherit their parent's)."""
        if end_s < start_s:
            raise ObsError(
                f"span {name!r} ends at {end_s} before it starts at "
                f"{start_s}"
            )
        if parent is _INHERIT:
            if self._stack:
                parent_id = self._stack[-1].span_id
                sampled = self._stack[-1].sampled
            else:
                parent_id = None
                sampled = self._draw_sampled() if keep is None else keep
        elif parent is None:
            parent_id = None
            sampled = self._draw_sampled() if keep is None else keep
        else:
            parent_id = parent.span_id
            sampled = parent.sampled
        if not sampled:
            # Unsampled traces skip allocation entirely — the shared
            # tombstone keeps parent chaining working (children inherit
            # its ``sampled=False``) at near-zero cost.
            self.advance(end_s)
            return self._unsampled
        span = self._allocate(name, start_s, track, parent_id, attrs, sampled)
        span.end_s = float(end_s)
        self._finished(span)
        self.advance(end_s)
        return span

    def event(
        self,
        name: str,
        *,
        t_s: "float | None" = None,
        track: str = "engine",
        keep: "bool | None" = None,
        **attrs: Any,
    ) -> "TraceEvent | None":
        """Record an instant event (defaults to the current clock; an
        explicit ``t_s`` may lie in the past — e.g. an admission event
        stamped at the request's arrival).  Returns ``None`` when the
        event falls in an unsampled trace.  ``keep`` injects a
        decision the caller drew via :meth:`sample`; an enclosing open
        span's decision still wins (events never tear a trace)."""
        if self._stack:
            sampled = self._stack[-1].sampled
        else:
            sampled = self._draw_sampled() if keep is None else keep
        if not sampled:
            return None
        ev = TraceEvent(
            name=name,
            t_s=self.now if t_s is None else float(t_s),
            track=track,
            attrs=attrs,
        )
        if self.retain:
            if (
                self.ring_capacity is not None
                and len(self.events) == self.ring_capacity
            ):
                self.dropped_events += 1
            self.events.append(ev)
        if self.sink is not None:
            self.sink.on_event(ev)
        return ev

    # ------------------------------------------------------------------
    # Queries
    # ------------------------------------------------------------------
    def find(self, name: str) -> list[Span]:
        """All spans with this name, in recording order."""
        return [s for s in self.spans if s.name == name]

    def total_s(self, name: str) -> float:
        """Summed duration of every finished span with this name."""
        return sum(s.duration_s for s in self.find(name))

    def children(self, span: Span) -> list[Span]:
        return [s for s in self.spans if s.parent_id == span.span_id]

    # ------------------------------------------------------------------
    # Invariants
    # ------------------------------------------------------------------
    def check_invariants(self) -> None:
        """Assert the span tree is well-formed: every span closed,
        every ``parent_id`` resolvable (no orphans), and every child
        nested inside its parent on the simulated clock.  Raises
        :class:`~repro.errors.ObsError` on the first violation.

        A wrapped ring (:attr:`dropped_spans` > 0) legitimately loses
        parents while keeping later children, so the orphan check is
        skipped then — the remaining per-span and nesting checks still
        apply."""
        if self._stack:
            open_names = [s.name for s in self._stack]
            raise ObsError(f"spans still open: {open_names}")
        wrapped = self.dropped_spans > 0
        by_id = {s.span_id: s for s in self.spans}
        for span in self.spans:
            if span.end_s is None:
                raise ObsError(
                    f"span {span.name!r} (#{span.span_id}) never closed"
                )
            if span.end_s < span.start_s:
                raise ObsError(
                    f"span {span.name!r} (#{span.span_id}) ends before "
                    "it starts"
                )
            if span.parent_id is None:
                continue
            parent = by_id.get(span.parent_id)
            if parent is None:
                if wrapped:
                    continue
                raise ObsError(
                    f"span {span.name!r} (#{span.span_id}) is orphaned: "
                    f"parent #{span.parent_id} does not exist"
                )
            eps = 1e-12
            if (
                span.start_s < parent.start_s - eps
                or span.end_s > (parent.end_s or 0.0) + eps
            ):
                raise ObsError(
                    f"span {span.name!r} [{span.start_s}, {span.end_s}] "
                    f"escapes its parent {parent.name!r} "
                    f"[{parent.start_s}, {parent.end_s}]"
                )
