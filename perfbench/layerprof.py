"""Wall-clock layer profiler that instruments the library from outside.

The benchmark's traced run must not change any code under ``src/``, so
:class:`LayerProfiler` swaps the public functions of each layer for
timing wrappers (class attributes, properties, module functions or
backend instances) and restores them on exit.  For every wrapped name
it keeps the call count, the total time and the *self* time, which is
the span's duration minus the part covered by wrapped child calls.

Span trees are also written to a :class:`repro.obs.tracer.Tracer` on a
``host`` track whose clock is wall seconds since the profiler started,
so ``python -m repro trace validate`` and ``trace summarize`` read the
exported file unchanged.  Storing every span of a run with a million
hot calls would not fit in memory, so only the first
:data:`SPAN_BUDGET` spans are kept, always as whole subtrees under a
recorded parent; the aggregates cover every call.
"""

from __future__ import annotations

import contextlib
import functools
import time
from typing import Any, Callable, Iterator

from repro.obs.tracer import Tracer

__all__ = ["SPAN_BUDGET", "LayerProfiler"]

#: Most spans one profiler writes to its tracer.
SPAN_BUDGET = 5_000


class LayerProfiler:
    """Aggregates wall time per wrapped name and records span trees.

    Parameters
    ----------
    tracer:
        Receives the recorded spans; ``None`` keeps aggregates only.
    """

    def __init__(self, tracer: "Tracer | None" = None):
        self.tracer = tracer
        #: Spans this profiler may still write to ``tracer``.
        self.span_budget = SPAN_BUDGET
        #: name -> [calls, total_s, self_s]
        self.stats: dict[str, list] = {}
        #: name -> per-call seconds, for names wrapped with ``keep=True``.
        self.durations: dict[str, list[float]] = {}
        #: name -> calls, for names wrapped with :meth:`counted`.
        self.counts: dict[str, int] = {}
        # Open frames: [start_s, child_s, span or None].
        self._stack: list[list] = []
        self._undo: list[Callable[[], None]] = []
        self._origin_s = time.perf_counter()  # repro-lint: disable=DET002 -- host benchmark timing

    # ------------------------------------------------------------------
    # Wrappers
    # ------------------------------------------------------------------
    def _open_span(self, name: str, start_s: float) -> Any:
        tracer = self.tracer
        if tracer is None or self.span_budget <= 0:
            return None
        if self._stack and self._stack[-1][2] is None:
            return None  # the parent was not recorded: keep trees whole
        self.span_budget -= 1
        tracer.advance(start_s - self._origin_s)
        return tracer.begin(name, track="host")

    def timed(
        self,
        name: "str | Callable[..., str]",
        fn: Callable[..., Any],
        *,
        keep: bool = False,
    ) -> Callable[..., Any]:
        """``fn`` wrapped to record one span per call under ``name``
        (or under ``name(*args)`` when ``name`` is callable)."""
        stack = self._stack
        stats = self.stats
        durations = self.durations

        @functools.wraps(fn)
        def wrapper(*args: Any, **kwargs: Any) -> Any:
            label = name(*args) if callable(name) else name
            start_s = time.perf_counter()  # repro-lint: disable=DET002 -- host benchmark timing
            frame = [start_s, 0.0, self._open_span(label, start_s)]
            stack.append(frame)
            try:
                return fn(*args, **kwargs)
            finally:
                end_s = time.perf_counter()  # repro-lint: disable=DET002 -- host benchmark timing
                stack.pop()
                took_s = end_s - start_s
                record = stats.get(label)
                if record is None:
                    record = stats[label] = [0, 0.0, 0.0]
                record[0] += 1
                record[1] += took_s
                record[2] += took_s - frame[1]
                if stack:
                    stack[-1][1] += took_s
                if keep:
                    durations.setdefault(label, []).append(took_s)
                if frame[2] is not None:
                    self.tracer.advance(end_s - self._origin_s)
                    self.tracer.end(frame[2])

        return wrapper

    def counted(self, name: str, fn: Callable[..., Any]) -> Callable[..., Any]:
        """``fn`` wrapped to count calls only (its time stays in the
        caller's span)."""
        counts = self.counts
        counts.setdefault(name, 0)

        @functools.wraps(fn)
        def wrapper(*args: Any, **kwargs: Any) -> Any:
            counts[name] += 1
            return fn(*args, **kwargs)

        return wrapper

    # ------------------------------------------------------------------
    # Patching
    # ------------------------------------------------------------------
    def patch(self, owner: Any, attr: str, make: Callable[[Any], Any]) -> None:
        """Replace ``owner.attr`` with ``make(original)`` until
        :meth:`restore`.  A property is rewrapped around its getter."""
        own = vars(owner)
        had_own = attr in own
        original = own[attr] if had_own else getattr(owner, attr)
        if isinstance(original, property):
            replacement: Any = property(
                make(original.fget), original.fset, original.fdel, original.__doc__
            )
        else:
            replacement = make(original)
        setattr(owner, attr, replacement)
        if had_own:
            self._undo.append(lambda: setattr(owner, attr, original))
        else:
            self._undo.append(lambda: delattr(owner, attr))

    def time_methods(self, cls: type, prefix: str, names: "tuple[str, ...]") -> None:
        """Time each named method or property of ``cls`` as
        ``<prefix>.<name>``."""
        for attr in names:
            label = f"{prefix}.{attr.strip('_')}"
            self.patch(cls, attr, lambda fn, label=label: self.timed(label, fn))

    def restore(self) -> None:
        while self._undo:
            self._undo.pop()()

    @contextlib.contextmanager
    def installed(self) -> Iterator["LayerProfiler"]:
        """Keep the patches applied so far for the ``with`` body."""
        try:
            yield self
        finally:
            self.restore()

    # ------------------------------------------------------------------
    # Queries
    # ------------------------------------------------------------------
    def calls(self, name: str) -> int:
        return self.stats.get(name, (0, 0.0, 0.0))[0]

    def total_s(self, name: str) -> float:
        return self.stats.get(name, (0, 0.0, 0.0))[1]

    def self_s(self, prefix: str) -> float:
        """Summed self time of every name equal to ``prefix`` or
        starting with ``prefix + "."``."""
        return sum(
            record[2]
            for label, record in self.stats.items()
            if label == prefix or label.startswith(prefix + ".")
        )
