"""Scheduling policies of the serving runtime.

The serving layer schedules at two points: *which request comes off a
queue next* (pop order inside :class:`~repro.serve.queue.RequestQueue`)
and *which queue the free GPU serves next* (queue selection inside the
engine's event loop).  Both decisions follow one
:class:`SchedulingPolicy`:

``fifo``
    The original behaviour: strict arrival order, priorities and
    deadlines ignored.  The baseline every other policy is benchmarked
    against.
``priority``
    Strict-priority tiers (higher ``InferenceRequest.priority`` wins),
    FIFO within a tier.  A queued low-priority backlog can no longer
    delay an interactive request behind it.
``slo-edf``
    Strict-priority tiers, earliest-deadline-first within a tier: a
    request's deadline is ``arrival_s + slo_ms``; requests without an
    SLO sort after every deadlined request of their tier, in arrival
    order.  This is the policy the SLO-attainment metric is designed
    for.
"""

from __future__ import annotations

import enum
import math

from repro.errors import ServeError
from repro.serve.request import InferenceRequest
from repro.utils.validation import check_choice

__all__ = ["SchedulingPolicy", "request_order_key"]


class SchedulingPolicy(enum.Enum):
    """Pop/queue-selection order of the serving scheduler."""

    FIFO = "fifo"
    PRIORITY = "priority"
    SLO_EDF = "slo-edf"

    @classmethod
    def parse(cls, value: "str | SchedulingPolicy") -> "SchedulingPolicy":
        """Accept either the enum or its CLI spelling (``"slo-edf"``)."""
        if isinstance(value, cls):
            return value
        names = [m.value for m in cls]
        return cls(check_choice("scheduling policy", value, names, error=ServeError))


def request_order_key(
    request: InferenceRequest, policy: SchedulingPolicy
) -> tuple:
    """Ascending sort key for ``request`` under ``policy`` (the minimum
    is served first).  Arrival time and request id break every tie, so
    the order is total and deterministic."""
    if policy is SchedulingPolicy.FIFO:
        return (request.arrival_s, request.request_id)
    if policy is SchedulingPolicy.PRIORITY:
        return (-request.priority, request.arrival_s, request.request_id)
    deadline = request.deadline_s
    if deadline is None:
        deadline = math.inf
    return (-request.priority, deadline, request.arrival_s, request.request_id)
