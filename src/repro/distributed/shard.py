"""Tensor-parallel partitioners for compressed N:M weights.

Two Megatron-style sharding modes, both operating directly on the
compressed ``(B', D)`` pair so no shard ever round-trips through a
dense matrix:

* **column-parallel** — shard the output dimension ``n``.  Cuts must
  land on vector (``L``) boundaries, i.e. whole column windows of the
  index matrix, so every shard keeps the exact vector-wise layout of
  Fig. 1: device ``d`` takes the windows ``blocks[j0:j1]`` (a view of
  the window-major ``B'``) and ``indices[:, j0:j1]``.  Each device computes its own output column
  slab from the *full* activation block; composing the result is an
  all-gather.
* **row-parallel** — shard the reduction dimension ``k``.  Cuts must
  land on pruning-window (``M``-row) boundaries so windows never
  straddle devices: device ``d`` takes the compressed rows
  ``B'[g0*N:g1*N, :]`` (and the same rows of ``D``) of windows
  ``[g0, g1)``, consumes only the matching ``M * (g1 - g0)`` activation
  columns, and produces a full-width *partial* product; composing is an
  all-reduce.

Every shard is rebuilt as a real :class:`NMCompressedMatrix`, whose
constructor re-validates the N:M invariants (compressed row count
``w = k*N/M``, index-matrix range and dtype), so an illegal shard can
not be constructed silently — the partitioners cut only where the
format stays closed under slicing.  Uneven divisions are supported:
windows are dealt round-robin-free (first ``remainder`` devices take
one extra window), and a device count exceeding the available windows
is a :class:`~repro.errors.ShardError`.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Iterable

import numpy as np

from repro.constants import FP32_BYTES
from repro.errors import ShardError
from repro.sparsity.compress import NMCompressedMatrix
from repro.sparsity.config import NMPattern
from repro.utils.validation import check_choice, check_int

if TYPE_CHECKING:  # pragma: no cover
    from repro.core.api import SparseHandle
    from repro.distributed.topology import CommEvent, DeviceGroup

__all__ = [
    "SHARD_MODES",
    "DeviceShard",
    "ShardedHandle",
    "shard_column",
    "shard_row",
    "shard_handle",
    "shard_extents",
    "shard_shapes",
    "mode_collective",
]

#: The supported tensor-parallel modes.
SHARD_MODES: tuple[str, ...] = ("column", "row")


def mode_collective(
    group: "DeviceGroup", mode: str, m: int, n: int
) -> "CommEvent":
    """The collective one ``m``-row step of an ``n``-wide (padded)
    output pays under ``mode``: all-gather of the ``(m, n)`` fp32
    output slabs for column parallelism, all-reduce of the full-width
    partials for row parallelism.  The single source of the
    payload/collective mapping — the serving clock and the benchmark
    both price communication through it."""
    _check_mode(mode)
    payload = m * n * FP32_BYTES
    if mode == "column":
        return group.all_gather(payload)
    return group.all_reduce(payload)


def _check_mode(mode: str) -> str:
    return check_choice("shard mode", mode, SHARD_MODES, error=ShardError)


def _check_devices(devices: int) -> None:
    check_int("devices", devices, 1, error=ShardError)


def shard_extents(windows: int, devices: int) -> list[tuple[int, int]]:
    """Contiguous ``[start, end)`` window ranges dealing ``windows``
    as evenly as possible across ``devices`` (first ``windows %
    devices`` devices take one extra).

    >>> shard_extents(7, 3)
    [(0, 3), (3, 5), (5, 7)]
    """
    _check_devices(devices)
    if windows < devices:
        raise ShardError(
            f"cannot shard {windows} window(s) across {devices} devices; "
            "every device needs at least one"
        )
    base, extra = divmod(windows, devices)
    extents: list[tuple[int, int]] = []
    start = 0
    for d in range(devices):
        end = start + base + (1 if d < extra else 0)
        extents.append((start, end))
        start = end
    return extents


def shard_shapes(
    pattern: NMPattern, n: int, k: int, devices: int, mode: str
) -> list[tuple[int, int]]:
    """The per-device ``(n_d, k_d)`` padded problem shapes a
    ``devices``-way shard of an ``(n, k)`` weight matrix produces —
    pure shape arithmetic, shared with the benchmark so modeled
    strong-scaling curves use exactly the geometry the partitioners
    cut."""
    extents = _mode_extents(pattern, n, k, devices, _check_mode(mode))
    if mode == "column":
        ell = pattern.vector_length
        return [((j1 - j0) * ell, pattern.padded_k(k)) for j0, j1 in extents]
    n_pad = pattern.padded_n(n)
    return [(n_pad, (g1 - g0) * pattern.m) for g0, g1 in extents]


def _mode_extents(
    pattern: NMPattern, n: int, k: int, devices: int, mode: str
) -> list[tuple[int, int]]:
    """:func:`shard_extents` of the windows ``mode`` cuts: output
    windows (column) or pruning windows (row)."""
    if mode == "column":
        windows = pattern.window_count_n(n)
        cut = f"n={n} has q={windows} L={pattern.vector_length}-wide output windows"
    else:
        windows = pattern.window_count_k(k)
        cut = f"k={k} has {windows} M={pattern.m}-row pruning windows"
    try:
        return shard_extents(windows, devices)
    except ShardError as exc:
        raise ShardError(f"{mode}-parallel: {exc} ({cut})") from None


@dataclass(frozen=True)
class DeviceShard:
    """One device's slice of a sharded weight matrix.

    ``start``/``stop`` are in the sharded dimension's *padded* units:
    output columns for column-parallel, activation (k) columns for
    row-parallel.
    """

    device: int
    handle: "SparseHandle"
    start: int
    stop: int

    @property
    def extent(self) -> int:
        return self.stop - self.start


@dataclass(frozen=True)
class ShardedHandle:
    """A weight matrix partitioned across a simulated device group.

    Wraps the per-device :class:`~repro.core.api.SparseHandle` shards
    (each a fully valid compressed matrix with its own cached
    :class:`~repro.sparsity.gather.GatherLayout` and plan cache) plus
    the composition rule the mode implies.
    """

    mode: str
    pattern: NMPattern
    shards: tuple[DeviceShard, ...]
    k: int  # padded reduction dim of the unsharded matrix
    n: int  # padded output dim of the unsharded matrix

    def __post_init__(self) -> None:
        _check_mode(self.mode)
        if not self.shards:
            raise ShardError("a sharded handle needs at least one shard")

    @property
    def devices(self) -> int:
        return len(self.shards)

    # ------------------------------------------------------------------
    # Per-device execution pieces
    # ------------------------------------------------------------------
    def device_input(self, a: np.ndarray, device: int) -> np.ndarray:
        """The activation slice device ``device`` consumes: the full
        block under column parallelism, its k-slab under row
        parallelism."""
        shard = self.shards[device]
        if self.mode == "column":
            return a
        return a[:, shard.start : shard.stop]

    def combine(self, outputs: "list[np.ndarray]") -> np.ndarray:
        """Compose per-device outputs into the full ``(m, n)`` product:
        concatenation of column slabs (what the all-gather materializes)
        or the sum of full-width partials (what the all-reduce
        materializes)."""
        if len(outputs) != self.devices:
            raise ShardError(
                f"expected {self.devices} per-device outputs, got "
                f"{len(outputs)}"
            )
        if self.mode == "column":
            return np.hstack(outputs)
        total = outputs[0].copy()
        for partial in outputs[1:]:
            total += partial
        return total

    def collective(self, group: "DeviceGroup", m: int) -> "CommEvent":
        """The modeled collective one ``m``-row step pays (see
        :func:`mode_collective`)."""
        return mode_collective(group, self.mode, m, self.n)

    def describe(self) -> str:
        extents = ", ".join(
            f"dev{s.device}[{s.start}:{s.stop}]" for s in self.shards
        )
        return (
            f"{self.mode}-parallel x{self.devices} "
            f"{self.pattern.label()} (n={self.n}, k={self.k}): {extents}"
        )


def _handles(compressed_shards: "Iterable[NMCompressedMatrix]"):
    from repro.core.api import SparseHandle  # deferred: core imports backends

    return [SparseHandle(compressed=c) for c in compressed_shards]


def shard_column(handle: "SparseHandle", devices: int) -> ShardedHandle:
    """Column-parallel partition: shard the output dimension ``n`` at
    vector-window boundaries; every device keeps the full ``k``."""
    comp = handle.compressed
    pattern = comp.pattern
    ell = pattern.vector_length
    extents = _mode_extents(pattern, comp.n, comp.k, devices, "column")
    shards = []
    for device, (j0, j1) in enumerate(extents):
        piece = NMCompressedMatrix(
            pattern=pattern,
            values=comp.blocks[j0:j1],
            indices=np.ascontiguousarray(comp.indices[:, j0:j1]),
            k=comp.k,
        )
        shards.append((device, piece, j0 * ell, j1 * ell))
    handles = _handles(piece for _, piece, _, _ in shards)
    return ShardedHandle(
        mode="column",
        pattern=pattern,
        shards=tuple(
            DeviceShard(device=d, handle=h, start=start, stop=stop)
            for (d, _, start, stop), h in zip(shards, handles, strict=True)
        ),
        k=comp.k,
        n=comp.n,
    )


def shard_row(handle: "SparseHandle", devices: int) -> ShardedHandle:
    """Row-parallel partition: shard the reduction dimension ``k`` at
    pruning-window (``M``-row) boundaries; every device keeps the full
    ``n`` and produces a partial product."""
    comp = handle.compressed
    pattern = comp.pattern
    extents = _mode_extents(pattern, comp.n, comp.k, devices, "row")
    shards = []
    for device, (g0, g1) in enumerate(extents):
        piece = NMCompressedMatrix(
            pattern=pattern,
            values=comp.blocks[:, g0 * pattern.n : g1 * pattern.n],
            indices=np.ascontiguousarray(
                comp.indices[g0 * pattern.n : g1 * pattern.n]
            ),
            k=(g1 - g0) * pattern.m,
        )
        shards.append((device, piece, g0 * pattern.m, g1 * pattern.m))
    handles = _handles(piece for _, piece, _, _ in shards)
    return ShardedHandle(
        mode="row",
        pattern=pattern,
        shards=tuple(
            DeviceShard(device=d, handle=h, start=start, stop=stop)
            for (d, _, start, stop), h in zip(shards, handles, strict=True)
        ),
        k=comp.k,
        n=comp.n,
    )


def shard_handle(
    handle: "SparseHandle", devices: int, mode: str = "column"
) -> ShardedHandle:
    """Partition prepared weights across ``devices``, memoized on the
    handle (sharding slices arrays and builds per-shard gather layouts;
    serving must not re-pay that per step)."""
    _check_mode(mode)
    _check_devices(devices)  # before the cache: True == 1 as a key
    cache = getattr(handle, "_shard_cache", None)
    if cache is None:
        cache = {}
        handle._shard_cache = cache  # plain attribute; SparseHandle has no slots
    key = (mode, devices)
    if key not in cache:
        builder = shard_column if mode == "column" else shard_row
        cache[key] = builder(handle, devices)
    return cache[key]
