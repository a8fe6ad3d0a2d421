"""Seeded fault models: what goes wrong, where, and when.

A :class:`FaultPlan` is a declarative, fully deterministic description
of the chaos one simulated serving run is subjected to, composed from
four fault kinds (all on the simulated clock):

* :class:`LaunchFaultWindow` — transient kernel-launch failures: every
  launch attempt inside ``[start_s, end_s)`` fails with probability
  ``p`` (drawn from the plan's seeded stream).  Optionally pinned to
  one model and/or one device — a storm concentrated on a device is
  what drives the serving layer's circuit breaker.
* :class:`DeviceFailStop` — a device dies at ``at_s`` and never comes
  back.  Every launch touching it fails until the server re-shards the
  affected models onto the survivors.
* :class:`DeviceSlowdown` — a straggler: the device's modeled compute
  time is multiplied by ``factor`` while the window is active (the
  clock multiplier is applied through the perf model's per-launch
  seconds, so tensor-parallel launches see the slowest device gate the
  collective exactly as the topology model prescribes).
* :class:`LinkDegradation` — the group interconnect loses bandwidth
  and gains latency inside the window; with ``period_s`` set the
  degradation *flaps*, active during the first ``duty`` fraction of
  every period (the ethernet-flakiness regime of the GPGPU-cluster
  SpMV literature that motivated the :data:`~repro.distributed.
  topology.LINKS` catalog).

Determinism contract: a plan is data, not behaviour.  The runtime
:class:`~repro.faults.injector.FaultInjector` built from ``(plan,
seed)`` draws every probabilistic decision from one seeded stream, and
the serving engine's query sequence is itself a pure function of the
request trace — so the same seed and the same plan produce the
identical fault schedule, byte for byte, run after run.

``parse_fault_spec`` turns the ``serve-sim --faults`` mini-language
into a plan::

    launch:p=0.3,start=0.1,end=0.5[,model=NAME][,device=D]
    devfail:device=1,at=0.5
    slow:device=0,factor=2.0[,start=S][,end=E]
    link:factor=0.1[,extra-lat=2e-4][,start=S][,end=E]
        [,period=0.25][,duty=0.5]
    seed=N

Clauses are ``;``-separated and compose into one plan; the ``seed``
clause overrides the plan's fault-stream seed (default 0).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, fields

from repro.errors import FaultError
from repro.utils.validation import check_choice, check_float, check_int, check_type

__all__ = [
    "LaunchFaultWindow",
    "DeviceFailStop",
    "DeviceSlowdown",
    "LinkDegradation",
    "FaultPlan",
    "parse_fault_spec",
]


def _check_window(start_s: float, end_s: float) -> None:
    check_float("start_s", start_s, ge=0, error=FaultError)
    if end_s != math.inf:  # inf leaves the window open
        check_float("end_s", end_s, gt=start_s, error=FaultError)


@dataclass(frozen=True)
class LaunchFaultWindow:
    """Transient launch failures at probability ``p`` inside a window."""

    p: float
    start_s: float = 0.0
    end_s: float = math.inf
    model: "str | None" = None
    device: "int | None" = None

    def __post_init__(self) -> None:
        check_float("p", self.p, gt=0, le=1, error=FaultError)
        _check_window(self.start_s, self.end_s)
        check_int("device", self.device, 0, error=FaultError, optional=True)

    def active(self, model: str, t_s: float) -> bool:
        if self.model is not None and self.model != model:
            return False
        return self.start_s <= t_s < self.end_s


@dataclass(frozen=True)
class DeviceFailStop:
    """Device ``device`` fail-stops at ``at_s`` (permanently)."""

    device: int
    at_s: float

    def __post_init__(self) -> None:
        check_int("device", self.device, 0, error=FaultError)
        check_float("at_s", self.at_s, ge=0, error=FaultError)


@dataclass(frozen=True)
class DeviceSlowdown:
    """Device ``device`` runs ``factor``x slower inside the window."""

    device: int
    factor: float
    start_s: float = 0.0
    end_s: float = math.inf

    def __post_init__(self) -> None:
        check_int("device", self.device, 0, error=FaultError)
        check_float("factor", self.factor, ge=1, error=FaultError)
        _check_window(self.start_s, self.end_s)

    def active(self, t_s: float) -> bool:
        return self.start_s <= t_s < self.end_s


@dataclass(frozen=True)
class LinkDegradation:
    """The group link degrades inside the window (optionally flapping).

    While active, link bandwidth is multiplied by
    ``bandwidth_factor`` and ``extra_latency_s`` is added to the
    per-message latency.  With ``period_s`` set the degradation is
    active only during the first ``duty`` fraction of every
    ``period_s`` cycle inside the window (a flapping link).
    """

    bandwidth_factor: float
    extra_latency_s: float = 0.0
    start_s: float = 0.0
    end_s: float = math.inf
    period_s: "float | None" = None
    duty: float = 0.5

    def __post_init__(self) -> None:
        check_float("bandwidth_factor", self.bandwidth_factor, gt=0, le=1, error=FaultError)
        check_float("extra_latency_s", self.extra_latency_s, ge=0, error=FaultError)
        _check_window(self.start_s, self.end_s)
        check_float("period_s", self.period_s, gt=0, error=FaultError, optional=True)
        check_float("duty", self.duty, gt=0, le=1, error=FaultError)

    def active(self, t_s: float) -> bool:
        if not self.start_s <= t_s < self.end_s:
            return False
        if self.period_s is None:
            return True
        phase = (t_s - self.start_s) % self.period_s
        return phase < self.duty * self.period_s


@dataclass(frozen=True)
class FaultPlan:
    """A composed, seeded chaos schedule for one simulated run."""

    seed: int = 0
    launch_faults: tuple[LaunchFaultWindow, ...] = ()
    device_failures: tuple[DeviceFailStop, ...] = ()
    slowdowns: tuple[DeviceSlowdown, ...] = ()
    link_faults: tuple[LinkDegradation, ...] = ()
    #: The spec string the plan was parsed from (reporting only).
    spec: "str | None" = field(default=None, compare=False)

    def __post_init__(self) -> None:
        check_int("seed", self.seed, 0, error=FaultError)

    @property
    def empty(self) -> bool:
        return not (
            self.launch_faults
            or self.device_failures
            or self.slowdowns
            or self.link_faults
        )

    def failed_devices(self, t_s: float) -> frozenset[int]:
        """Devices fail-stopped at or before ``t_s``."""
        return frozenset(
            f.device for f in self.device_failures if f.at_s <= t_s
        )

    def describe(self) -> str:
        if self.spec is not None:
            return self.spec
        if self.empty:
            return "none"
        parts = []
        for w in self.launch_faults:
            parts.append(f"launch(p={w.p:g}@[{w.start_s:g},{w.end_s:g}))")
        for f in self.device_failures:
            parts.append(f"devfail(device={f.device}@{f.at_s:g})")
        for s in self.slowdowns:
            parts.append(
                f"slow(device={s.device},x{s.factor:g}"
                f"@[{s.start_s:g},{s.end_s:g}))"
            )
        for link in self.link_faults:
            text = f"link(bw x{link.bandwidth_factor:g}"
            if link.period_s is not None:
                text += f",flap {link.period_s:g}s/{link.duty:g}"
            parts.append(text + ")")
        return "; ".join(parts)


# ---------------------------------------------------------------------------
# Spec parsing (serve-sim --faults)
# ---------------------------------------------------------------------------
_SPEC_FIELDS = {
    "launch": {
        "p": ("p", float),
        "start": ("start_s", float),
        "end": ("end_s", float),
        "model": ("model", str),
        "device": ("device", int),
    },
    "devfail": {
        "device": ("device", int),
        "at": ("at_s", float),
    },
    "slow": {
        "device": ("device", int),
        "factor": ("factor", float),
        "start": ("start_s", float),
        "end": ("end_s", float),
    },
    "link": {
        "factor": ("bandwidth_factor", float),
        "extra-lat": ("extra_latency_s", float),
        "start": ("start_s", float),
        "end": ("end_s", float),
        "period": ("period_s", float),
        "duty": ("duty", float),
    },
}
_SPEC_CLASSES = {
    "launch": LaunchFaultWindow,
    "devfail": DeviceFailStop,
    "slow": DeviceSlowdown,
    "link": LinkDegradation,
}
_SPEC_REQUIRED = {
    kind: tuple(
        f.name
        for f in fields(cls)
        if f.default is f.default_factory  # both MISSING sentinels
    )
    for kind, cls in _SPEC_CLASSES.items()
}


def _parse_clause(clause: str):
    kind, _, rest = clause.partition(":")
    kind = check_choice("fault kind", kind.strip().lower(), _SPEC_FIELDS, error=FaultError)
    mapping = _SPEC_FIELDS[kind]
    kwargs: dict = {}
    for pair in rest.split(","):
        pair = pair.strip()
        if not pair:
            continue
        key, eq, value = pair.partition("=")
        key = key.strip().lower()
        if not eq or key not in mapping:
            raise FaultError(
                f"bad {kind} parameter {pair!r}; known keys: "
                f"{sorted(mapping)}"
            )
        name, cast = mapping[key]
        try:
            kwargs[name] = cast(value.strip())
        except ValueError:
            raise FaultError(
                f"bad {kind} value {pair!r}: expected {cast.__name__}"
            ) from None
    missing = [
        key
        for key, (name, _) in mapping.items()
        if name in _SPEC_REQUIRED[kind] and name not in kwargs
    ]
    if missing:
        raise FaultError(
            f"{kind} clause {clause!r} is missing required "
            f"key(s): {missing}"
        )
    return kind, _SPEC_CLASSES[kind](**kwargs)


def parse_fault_spec(spec: str, *, seed: int = 0) -> FaultPlan:
    """Parse a ``--faults`` spec string into a :class:`FaultPlan`.

    >>> plan = parse_fault_spec("launch:p=0.5,start=0.1,end=0.2;"
    ...                         "devfail:device=1,at=0.5")
    >>> len(plan.launch_faults), len(plan.device_failures)
    (1, 1)
    """
    if not check_type("fault spec", spec, str, error=FaultError).strip():
        raise FaultError("empty fault spec")
    buckets: dict[str, list] = {k: [] for k in _SPEC_FIELDS}
    for clause in spec.split(";"):
        clause = clause.strip()
        if not clause:
            continue
        if clause.lower().startswith("seed="):
            try:
                seed = int(clause[len("seed="):].strip())
            except ValueError:
                raise FaultError(
                    f"bad seed clause {clause!r}: expected an integer"
                ) from None
            continue
        kind, fault = _parse_clause(clause)
        buckets[kind].append(fault)
    plan = FaultPlan(
        seed=seed,
        launch_faults=tuple(buckets["launch"]),
        device_failures=tuple(buckets["devfail"]),
        slowdowns=tuple(buckets["slow"]),
        link_faults=tuple(buckets["link"]),
        spec=spec.strip(),
    )
    if plan.empty:
        raise FaultError(f"fault spec {spec!r} contains no clauses")
    return plan
