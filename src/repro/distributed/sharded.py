"""Tensor-parallel NM-SpMM execution over a simulated device group.

Two layers, mirroring how the single-device stack splits numerics
from modeled time:

* :func:`sharded_execute` — the numerics: one gather-GEMM
  (:func:`~repro.kernels.fast.nm_spmm_fast`) per device shard over the
  shard's own precomputed gather layout, composed by the mode's rule
  (column slabs concatenated, row partials summed).  Bit-for-bit the
  same per-window products as the single-device fast path.
* :class:`DistributedStep` — the simulated clock: per-device modeled
  seconds plus the group's ring collective, composed in one place
  (devices run concurrently, the collective follows the slowest
  device).  The serving engine builds one per tensor-parallel launch
  from its cached per-device plans; :func:`modeled_shape_step` builds
  one from shapes alone for the benchmark.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.core.plan import build_plan
from repro.distributed.shard import ShardedHandle, mode_collective, shard_shapes
from repro.distributed.topology import CommEvent, DeviceGroup
from repro.errors import ShardError
from repro.kernels.fast import nm_spmm_fast

__all__ = [
    "DistributedStep",
    "sharded_execute",
    "modeled_shape_step",
]


@dataclass(frozen=True)
class DistributedStep:
    """One tensor-parallel launch on the simulated clock: per-device
    compute plus the composing collective."""

    per_device_seconds: tuple[float, ...]
    comm: CommEvent

    @property
    def compute_seconds(self) -> float:
        """The step's compute critical path: devices run concurrently,
        so the slowest shard gates the collective."""
        return max(self.per_device_seconds)

    @property
    def seconds(self) -> float:
        return self.compute_seconds + self.comm.seconds

    @property
    def comm_fraction(self) -> float:
        """Share of the step spent in the collective."""
        total = self.seconds
        return self.comm.seconds / total if total > 0 else 0.0


def sharded_execute(a: np.ndarray, sharded: ShardedHandle) -> np.ndarray:
    """Run the tensor-parallel product's numerics: one fast
    gather-GEMM per device shard, composed per the shard mode.
    Returns the padded ``(m, n)`` product (callers trim logical n,
    exactly as with the single-device backends)."""
    if a.ndim != 2 or a.shape[1] != sharded.k:
        raise ShardError(
            f"activation of shape {a.shape} does not match the sharded "
            f"weights' k={sharded.k}"
        )
    outputs = [
        nm_spmm_fast(
            sharded.device_input(a, shard.device),
            shard.handle.gather_layout(),
        )
        for shard in sharded.shards
    ]
    return sharded.combine(outputs)


def modeled_shape_step(
    m: int,
    n: int,
    k: int,
    pattern,
    group: DeviceGroup,
    mode: str,
    *,
    version: str = "V3",
) -> DistributedStep:
    """Model one ``m``-row tensor-parallel launch of an ``(n, k)``
    weight matrix from its shape alone (no weights are ever
    materialized — the benchmark models true Llama sizes this way).
    Uses :func:`~repro.distributed.shard.shard_shapes` geometry, so
    modeled curves and executed shards agree exactly."""
    per_device = tuple(
        build_plan(m, n_d, k_d, pattern, group.gpu, version=version)
        .simulate()
        .seconds
        for n_d, k_d in shard_shapes(pattern, n, k, group.devices, mode)
    )
    comm = mode_collective(group, mode, m, pattern.padded_n(n))
    return DistributedStep(per_device_seconds=per_device, comm=comm)
