"""Simulated multi-GPU topologies and modeled collectives.

The distributed layer follows Kreutzer et al. (arXiv:1112.5588): a
sparse format scales across devices only when it is paired with an
*explicit communication model*.  Ours is deliberately small — a
:class:`DeviceGroup` is ``devices`` copies of one catalogued
:class:`~repro.gpu.spec.GPUSpec` joined by a :class:`Link`, and every
collective a tensor-parallel NM-SpMM needs (all-gather, all-reduce)
is priced with the standard ring-algorithm cost formula::

    T(steps, payload) = steps * (payload / devices / bandwidth
                                 + latency)

where a ring all-gather and reduce-scatter take ``devices - 1`` steps
and a ring all-reduce composes both (``2 * (devices - 1)`` steps).
``payload`` is the *full* tensor's bytes: each ring step moves a
``1/devices`` slice per device, so total per-device traffic is
``(devices - 1) / devices * payload`` — the bandwidth-optimal bound.

Everything is modeled time on the simulated clock, exactly like
``plan.simulate()`` on the compute side; composing the two is what the
:mod:`repro.distributed.sharded` execution layer does.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.errors import ConfigurationError
from repro.gpu.catalog import resolve_gpu
from repro.gpu.spec import GPUSpec
from repro.utils.validation import is_int

__all__ = [
    "Link",
    "LINKS",
    "get_link",
    "CommEvent",
    "DeviceGroup",
]


@dataclass(frozen=True)
class Link:
    """One inter-device interconnect: per-direction bandwidth plus a
    fixed per-message latency (the alpha-beta model's alpha)."""

    name: str
    bandwidth_gb_s: float
    latency_s: float

    def __post_init__(self) -> None:
        if self.bandwidth_gb_s <= 0:
            raise ConfigurationError(
                f"link bandwidth must be positive, got {self.bandwidth_gb_s}"
            )
        if self.latency_s < 0:
            raise ConfigurationError(
                f"link latency must be >= 0, got {self.latency_s}"
            )

    @property
    def bytes_per_s(self) -> float:
        return self.bandwidth_gb_s * 1e9

    def transfer_seconds(self, payload_bytes: int) -> float:
        """One point-to-point message of ``payload_bytes``."""
        return payload_bytes / self.bytes_per_s + self.latency_s


#: Catalogued interconnects (per-direction, per-device-pair figures).
#: ``nvlink`` matches A100 NVLink3 (600 GB/s bidirectional -> 300
#: per direction); ``pcie4`` is a x16 Gen4 slot; ``ethernet`` a
#: 100 GbE RoCE fabric (the cross-node regime of the GPGPU-cluster
#: SpMV literature).
LINKS: dict[str, Link] = {
    "nvlink": Link("nvlink", bandwidth_gb_s=300.0, latency_s=1.5e-6),
    "pcie4": Link("pcie4", bandwidth_gb_s=32.0, latency_s=5e-6),
    "ethernet": Link("ethernet", bandwidth_gb_s=12.5, latency_s=1e-5),
}


def get_link(link: "str | Link") -> Link:
    """Accept either a catalogued link name or an explicit :class:`Link`."""
    if isinstance(link, Link):
        return link
    if isinstance(link, str):
        key = link.strip().lower()
        if key in LINKS:
            return LINKS[key]
        raise ConfigurationError(
            f"unknown link {link!r}; known: {sorted(LINKS)}"
        )
    raise ConfigurationError(f"cannot interpret {link!r} as a link")


@dataclass(frozen=True)
class CommEvent:
    """One modeled collective: what moved and how long it took.

    ``wire_bytes`` is the per-device traffic the ring actually ships
    (``steps`` slices of ``payload_bytes / devices`` each), as opposed
    to ``payload_bytes``, the logical tensor size.
    """

    collective: str
    payload_bytes: int
    seconds: float
    steps: int
    wire_bytes: int = 0

    def trace_attrs(self) -> dict:
        """The attributes a ``comm.<collective>`` trace span carries
        (consumed by the serving engine's tracer)."""
        return {
            "collective": self.collective,
            "payload_bytes": self.payload_bytes,
            "wire_bytes": self.wire_bytes,
            "ring_steps": self.steps,
        }


@dataclass(frozen=True)
class DeviceGroup:
    """``devices`` identical simulated GPUs joined by one link.

    Examples
    --------
    >>> group = DeviceGroup.build("A100", devices=4, link="nvlink")
    >>> group.devices
    4
    >>> group.all_reduce(1024).steps
    6
    """

    gpu: GPUSpec
    devices: int
    link: Link

    def __post_init__(self) -> None:
        if not is_int(self.devices):
            raise ConfigurationError(
                f"device count must be an integer, got {self.devices!r}"
            )
        if self.devices < 1:
            raise ConfigurationError(
                f"a device group needs >= 1 device, got {self.devices}"
            )

    @classmethod
    def build(
        cls,
        gpu: "str | GPUSpec" = "A100",
        *,
        devices: int = 2,
        link: "str | Link | None" = "nvlink",
    ) -> "DeviceGroup":
        """Resolve the GPU from the Table III catalog and the link from
        :data:`LINKS`; ``link=None`` uses the part's native
        interconnect (``extras["native_link"]``: NVLink on A100, PCIe
        on the GeForce parts)."""
        spec = resolve_gpu(gpu)
        if link is None:
            link = spec.extras.get("native_link", "pcie4")
        return cls(gpu=spec, devices=devices, link=get_link(link))

    # ------------------------------------------------------------------
    # Ring collectives
    # ------------------------------------------------------------------
    def _ring(self, collective: str, payload_bytes: int, steps: int) -> CommEvent:
        if payload_bytes < 0:
            raise ConfigurationError(
                f"collective payload must be >= 0, got {payload_bytes}"
            )
        if self.devices == 1 or payload_bytes == 0:
            return CommEvent(
                collective=collective, payload_bytes=payload_bytes,
                seconds=0.0, steps=0,
            )
        slice_bytes = payload_bytes // self.devices
        seconds = steps * self.link.transfer_seconds(slice_bytes)
        return CommEvent(
            collective=collective,
            payload_bytes=payload_bytes,
            seconds=seconds,
            steps=steps,
            wire_bytes=steps * slice_bytes,
        )

    def all_gather(self, payload_bytes: int) -> CommEvent:
        """Every device ends with the full ``payload_bytes`` tensor of
        which it held a ``1/devices`` shard (column-parallel epilogue)."""
        return self._ring("all-gather", payload_bytes, self.devices - 1)

    def all_reduce(self, payload_bytes: int) -> CommEvent:
        """Every device ends with the full element-wise sum
        (row-parallel epilogue): ring reduce-scatter + ring all-gather."""
        return self._ring("all-reduce", payload_bytes, 2 * (self.devices - 1))

    def describe(self) -> str:
        return (
            f"{self.devices}x {self.gpu.name} over {self.link.name} "
            f"({self.link.bandwidth_gb_s:g} GB/s, "
            f"{self.link.latency_s * 1e6:g} us)"
        )
