"""A small metrics registry: counters, gauges, histograms.

The serving engine, the backend layer and the distributed layer all
report through one :class:`MetricsRegistry`.  Everything is driven by
the *simulated* runtime (no wall-clock reads), so two runs of the same
seeded scenario produce bit-identical metric values — which is what
makes the Prometheus exposition (:mod:`repro.obs.prometheus`)
assertable in tests rather than merely eyeballable.

Labels follow the Prometheus data model: each metric holds one sample
per distinct label set, and a histogram's buckets are cumulative upper
bounds closed with ``+Inf``.
"""

from __future__ import annotations

import bisect
import itertools
from dataclasses import dataclass, field
from typing import Any, Iterator, TypeVar, Union

from repro.errors import ObsError

__all__ = [
    "DEFAULT_TIME_BUCKETS",
    "Counter",
    "Gauge",
    "Histogram",
    "Metric",
    "MetricsRegistry",
]

#: Default histogram buckets for durations in seconds.  The simulated
#: serving clock lives in the microsecond-to-second range (scaled-down
#: NumPy shapes make modeled launches microseconds), so the decades
#: span 1us to 10s.
DEFAULT_TIME_BUCKETS: tuple[float, ...] = (
    1e-6, 1e-5, 1e-4, 1e-3, 1e-2, 1e-1, 1.0, 10.0,
)

#: One sample's label set, normalized to a hashable, sorted key.
LabelKey = tuple[tuple[str, str], ...]

_NO_LABELS: LabelKey = ()


def _label_key(labels: dict[str, object]) -> LabelKey:
    if not labels:  # the common unlabeled fast path
        return _NO_LABELS
    if len(labels) == 1:  # one label needs no sort
        [(k, v)] = labels.items()
        return ((k, v if type(v) is str else str(v)),)
    return tuple(sorted((k, str(v)) for k, v in labels.items()))


@dataclass
class Counter:
    """A monotonically increasing count (per label set)."""

    name: str
    help: str = ""
    kind: str = field(default="counter", init=False)
    _values: dict[LabelKey, float] = field(default_factory=dict)

    def inc(self, value: float = 1.0, **labels: object) -> None:
        if value < 0:
            raise ObsError(
                f"counter {self.name!r} cannot decrease (inc({value}))"
            )
        key = _label_key(labels)
        self._values[key] = self._values.get(key, 0.0) + value

    def value(self, **labels: object) -> float:
        return self._values.get(_label_key(labels), 0.0)

    def samples(self) -> list[tuple[LabelKey, float]]:
        return sorted(self._values.items())


@dataclass
class Gauge:
    """A value that can move both ways (per label set)."""

    name: str
    help: str = ""
    kind: str = field(default="gauge", init=False)
    _values: dict[LabelKey, float] = field(default_factory=dict)

    def set(self, value: float, **labels: object) -> None:
        self._values[_label_key(labels)] = float(value)

    def inc(self, value: float = 1.0, **labels: object) -> None:
        key = _label_key(labels)
        self._values[key] = self._values.get(key, 0.0) + value

    def value(self, **labels: object) -> float:
        return self._values.get(_label_key(labels), 0.0)

    def samples(self) -> list[tuple[LabelKey, float]]:
        return sorted(self._values.items())


@dataclass
class Histogram:
    """Cumulative-bucket histogram (per label set), Prometheus-style:
    ``buckets`` are upper bounds, each observation lands in every
    bucket whose bound is >= the value, and the implicit ``+Inf``
    bucket counts everything."""

    name: str
    help: str = ""
    buckets: tuple[float, ...] = DEFAULT_TIME_BUCKETS
    kind: str = field(default="histogram", init=False)
    _counts: dict[LabelKey, list[int]] = field(default_factory=dict)
    _sums: dict[LabelKey, float] = field(default_factory=dict)

    def __post_init__(self) -> None:
        bounds = tuple(float(b) for b in self.buckets)
        if not bounds or sorted(bounds) != list(bounds):
            raise ObsError(
                f"histogram {self.name!r} buckets must be a nonempty "
                f"ascending sequence, got {self.buckets}"
            )
        self.buckets = bounds

    def observe(self, value: float, **labels: object) -> None:
        # Counts are stored per-bucket (one increment via bisect) and
        # cumulated on read — observation is the hot path.
        key = _label_key(labels)
        counts = self._counts.setdefault(key, [0] * (len(self.buckets) + 1))
        counts[bisect.bisect_left(self.buckets, value)] += 1
        self._sums[key] = self._sums.get(key, 0.0) + float(value)

    def count(self, **labels: object) -> int:
        counts = self._counts.get(_label_key(labels))
        return sum(counts) if counts else 0

    def sum(self, **labels: object) -> float:
        return self._sums.get(_label_key(labels), 0.0)

    def samples(self) -> list[tuple[LabelKey, list[int], float]]:
        """Cumulative Prometheus-style bucket counts per label set
        (the last entry is the ``+Inf`` total)."""
        return sorted(
            (key, list(itertools.accumulate(counts)), self._sums[key])
            for key, counts in self._counts.items()
        )


#: Any of the three metric kinds a registry can hold.
Metric = Union[Counter, Gauge, Histogram]

_M = TypeVar("_M", Counter, Gauge, Histogram)


class MetricsRegistry:
    """Named counters/gauges/histograms with get-or-create semantics.

    Instruments call ``registry.counter("x_total").inc(...)`` at the
    point of measurement; the first call creates the metric and later
    calls reuse it, so instrumentation sites never coordinate.
    Re-requesting a name as a different kind is an error (it would
    silently fork the time series).
    """

    def __init__(self) -> None:
        self._metrics: dict[str, Metric] = {}

    def _get_or_create(
        self, cls: type[_M], name: str, help_text: str, **kwargs: Any
    ) -> _M:
        existing = self._metrics.get(name)
        if existing is not None:
            if not isinstance(existing, cls):
                raise ObsError(
                    f"metric {name!r} is a {existing.kind}, not a "
                    f"{cls.__name__.lower()}"
                )
            return existing
        metric = cls(name=name, help=help_text, **kwargs)
        self._metrics[name] = metric
        return metric

    def counter(self, name: str, help_text: str = "") -> Counter:
        return self._get_or_create(Counter, name, help_text)

    def gauge(self, name: str, help_text: str = "") -> Gauge:
        return self._get_or_create(Gauge, name, help_text)

    def histogram(
        self,
        name: str,
        help_text: str = "",
        *,
        buckets: tuple[float, ...] = DEFAULT_TIME_BUCKETS,
    ) -> Histogram:
        return self._get_or_create(
            Histogram, name, help_text, buckets=buckets
        )

    def get(self, name: str) -> Metric:
        try:
            return self._metrics[name]
        except KeyError:
            raise ObsError(f"no metric named {name!r}") from None

    def __contains__(self, name: str) -> bool:
        return name in self._metrics

    def __iter__(self) -> Iterator[Metric]:
        return iter(self._metrics.values())

    def __len__(self) -> int:
        return len(self._metrics)

    def as_dict(self) -> dict[str, dict[str, object]]:
        """A JSON-able snapshot (labels flattened to ``k=v`` strings)."""
        out: dict[str, dict[str, object]] = {}
        for metric in self:
            if isinstance(metric, Histogram):
                out[metric.name] = {
                    ",".join(f"{k}={v}" for k, v in key) or "_": {
                        "count": counts[-1],
                        "sum": total,
                    }
                    for key, counts, total in metric.samples()
                }
            else:
                out[metric.name] = {
                    ",".join(f"{k}={v}" for k, v in key) or "_": value
                    for key, value in metric.samples()
                }
        return out
