"""Distributed execution: tensor-parallel NM-SpMM across simulated
multi-GPU topologies.

The subsystem has three pieces, mirroring Kreutzer et al.'s recipe for
scaling sparse kernels across devices (sparse format + explicit
communication model):

* :mod:`repro.distributed.topology` — :class:`DeviceGroup` /
  :class:`Link` built from the Table III GPU catalog, with ring-cost
  modeled collectives (:meth:`~DeviceGroup.all_gather`,
  :meth:`~DeviceGroup.all_reduce`);
* :mod:`repro.distributed.shard` — column-parallel (shard ``n``,
  all-gather outputs) and row-parallel (shard ``k``, all-reduce
  partials) partitioners that slice the compressed ``(B', D)`` pair at
  window boundaries so every shard stays a legal N:M layout;
* :mod:`repro.distributed.sharded` — :func:`sharded_execute` (real
  per-device numerics via the fast gather-GEMM kernel) and
  :class:`DistributedStep`, the one composition of per-device modeled
  seconds with the collective on the simulated clock
  (:func:`modeled_shape_step` builds one from shapes alone).

Serving integration lives in :class:`repro.serve.InferenceServer`
(``devices=``/``shard=``/``link=``) and ``python -m repro serve-sim
--devices N --shard {column,row}``.
"""

from repro.distributed.shard import (
    SHARD_MODES,
    DeviceShard,
    ShardedHandle,
    shard_column,
    shard_extents,
    shard_handle,
    shard_row,
    shard_shapes,
)
from repro.distributed.sharded import (
    DistributedStep,
    modeled_shape_step,
    sharded_execute,
)
from repro.distributed.topology import (
    LINKS,
    CommEvent,
    DeviceGroup,
    Link,
    get_link,
)

__all__ = [
    "Link",
    "LINKS",
    "get_link",
    "CommEvent",
    "DeviceGroup",
    "SHARD_MODES",
    "DeviceShard",
    "ShardedHandle",
    "shard_column",
    "shard_row",
    "shard_handle",
    "shard_extents",
    "shard_shapes",
    "DistributedStep",
    "sharded_execute",
    "modeled_shape_step",
]
