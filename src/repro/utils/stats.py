"""Dependency-free order statistics shared across layers.

One :func:`percentile` implementation (linear interpolation, no numpy
so every consumer stays trivially deterministic) serves the serving
metrics, the trace summarizer, and the trace-analytics reports —
keeping e.g. a serving ``p99`` and a per-span ``p99`` byte-identical
for the same sample.
"""

from __future__ import annotations

from typing import Sequence

from repro.utils.validation import check_float

__all__ = ["percentile", "duration_digest"]


def percentile(values: Sequence[float], q: float) -> float:
    """The ``q``-th percentile with linear interpolation.

    >>> percentile([1.0, 2.0, 3.0, 4.0], 50)
    2.5
    """
    if not values:
        raise ValueError("percentile of an empty sample")
    check_float("percentile q", q, ge=0, le=100)
    ordered = sorted(values)
    if len(ordered) == 1:
        return ordered[0]
    pos = (len(ordered) - 1) * q / 100.0
    lo = int(pos)
    hi = min(lo + 1, len(ordered) - 1)
    frac = pos - lo
    return ordered[lo] * (1.0 - frac) + ordered[hi] * frac


def duration_digest(values: Sequence[float]) -> dict[str, float]:
    """The ``p50``/``p95``/``p99``/``max`` digest of a non-empty
    sample, in the sample's own unit."""
    return {
        "p50": percentile(values, 50),
        "p95": percentile(values, 95),
        "p99": percentile(values, 99),
        "max": max(values),
    }
