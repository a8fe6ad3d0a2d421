"""Tensor-parallel NM-SpMM execution over a simulated device group.

Three layers, mirroring how the single-device stack splits numerics
from modeled time:

* :func:`sharded_execute` — the numerics: one gather-GEMM
  (:func:`~repro.kernels.fast.nm_spmm_fast`) per device shard over the
  shard's own precomputed gather layout, composed by the mode's rule
  (column slabs concatenated, row partials summed).  Bit-for-bit the
  same per-window products as the single-device fast path.
* :func:`modeled_step` / :func:`modeled_shape_step` — the simulated
  clock: each device's launch is priced by the existing perf model on
  its shard's shape, the group's collective is priced by the ring
  formulas, and one :class:`DistributedStep` composes them (devices
  run concurrently, the collective follows the slowest device).
* :class:`ShardedBackend` — the opt-in registry face: once registered,
  ``execute(a, handle, backend="sharded")`` runs the whole thing through
  the backend protocol, composes per-device analytic traces into the
  request's trace, and enters the auto-selector's race through
  ``estimated_cost`` with *both* terms — per-device compute (the
  gather-GEMM cost model divided by the device count) and the modeled
  collective converted to MAC-equivalents at the group GPU's locked
  peak — so ``backend="auto"`` sees its communication bill, not an
  ideal-scaling fantasy.
"""

from __future__ import annotations

import time
from dataclasses import dataclass

import numpy as np

from repro.backends.auto import GATHER_FULL_EFFICIENCY_L
from repro.backends.base import ExecutionRequest, ExecutionResult
from repro.core.plan import ExecutionPlan, build_plan
from repro.distributed.shard import (
    SHARD_MODES,
    ShardedHandle,
    mode_collective,
    shard_handle,
    shard_shapes,
)
from repro.distributed.topology import CommEvent, DeviceGroup
from repro.errors import ShardError
from repro.kernels.fast import nm_spmm_fast

__all__ = [
    "DistributedStep",
    "sharded_execute",
    "modeled_step",
    "modeled_shape_step",
    "ShardedBackend",
    "DEFAULT_DEVICES",
]

#: Device count of the default-registered ``sharded`` backend (the
#: smallest group that actually communicates).
DEFAULT_DEVICES = 2


@dataclass(frozen=True)
class DistributedStep:
    """One tensor-parallel launch on the simulated clock: per-device
    compute plus the composing collective."""

    per_device_seconds: tuple[float, ...]
    comm: CommEvent

    @property
    def devices(self) -> int:
        return len(self.per_device_seconds)

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
    outputs = [
        nm_spmm_fast(
            sharded.device_input(a, shard.device),
            shard.handle.gather_layout(),
        )
        for shard in sharded.shards
    ]
    return sharded.combine(outputs)


def _per_device_plans(
    sharded: ShardedHandle,
    group: DeviceGroup,
    m: int,
    *,
    version: str = "V3",
) -> list[ExecutionPlan]:
    return [
        build_plan(
            m,
            shard.handle.n,
            shard.handle.k,
            sharded.pattern,
            group.gpu,
            version=version,
        )
        for shard in sharded.shards
    ]


def modeled_step(
    sharded: ShardedHandle,
    group: DeviceGroup,
    m: int,
    *,
    version: str = "V3",
) -> DistributedStep:
    """Model one ``m``-row tensor-parallel launch of already-sharded
    weights: per-shard plan simulation + the mode's collective."""
    if group.devices != sharded.devices:
        raise ShardError(
            f"device group has {group.devices} devices but the handle "
            f"is sharded {sharded.devices} ways"
        )
    plans = _per_device_plans(sharded, group, m, version=version)
    return DistributedStep(
        per_device_seconds=tuple(p.simulate().seconds for p in plans),
        comm=sharded.collective(group, m),
    )


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
    """Shape-only variant of :func:`modeled_step` (no weights are ever
    materialized — the benchmark models true Llama sizes this way).
    Uses :func:`~repro.distributed.shard.shard_extents` geometry, so
    modeled curves and executed shards agree exactly."""
    per_device = tuple(
        build_plan(m, n_d, k_d, pattern, group.gpu, version=version)
        .simulate()
        .seconds
        for n_d, k_d in shard_shapes(pattern, n, k, group.devices, mode)
    )
    comm = mode_collective(group, mode, m, pattern.padded_n(n))
    return DistributedStep(per_device_seconds=per_device, comm=comm)


class ShardedBackend:
    """Tensor-parallel execution as a registered backend.

    Parameters
    ----------
    group:
        The simulated device group; defaults to
        ``DeviceGroup.build("A100", devices=2, link="nvlink")``.
    shard:
        Partition mode, ``"column"`` (all-gather outputs) or ``"row"``
        (all-reduce partials).
    """

    name = "sharded"

    def __init__(
        self,
        group: "DeviceGroup | None" = None,
        shard: str = "column",
    ):
        if shard not in SHARD_MODES:
            raise ShardError(
                f"unknown shard mode {shard!r}; expected one of {SHARD_MODES}"
            )
        self.group = group if group is not None else DeviceGroup.build(
            "A100", devices=DEFAULT_DEVICES, link="nvlink"
        )
        self.shard = shard

    def capabilities(self) -> dict:
        return {
            "description": (
                f"{self.shard}-parallel gather-GEMM across "
                f"{self.group.describe()}; composes per-device plans "
                "with ring-modeled collectives"
            ),
            "traces": "analytic (composed per device) + wire-bytes "
            "comm events",
            "needs_plan": False,
            "trace_vocabulary": (
                "device.compute",
                "comm.all-gather",
                "comm.all-reduce",
            ),
        }

    # ------------------------------------------------------------------
    def supports(self, request: ExecutionRequest) -> "bool | str":
        comp = request.handle.compressed
        devices = self.group.devices
        if self.shard == "column":
            if comp.q < devices:
                return (
                    f"column-parallel needs one output window per device "
                    f"(q={comp.q} < devices={devices})"
                )
        elif comp.num_windows_k < devices:
            return (
                f"row-parallel needs one pruning window per device "
                f"(k windows={comp.num_windows_k} < devices={devices})"
            )
        return True

    def _sharded_for(self, request: ExecutionRequest) -> ShardedHandle:
        return shard_handle(request.handle, self.group.devices, self.shard)

    # ------------------------------------------------------------------
    def estimated_cost(self, request: ExecutionRequest) -> float:
        """Modeled MAC-equivalents per output element: the per-device
        gather-GEMM compute (the fast path's cost model over
        ``devices`` concurrent shards) plus the collective's time
        converted at the group GPU's locked peak — so the auto race
        sees this backend's communication bill, not ideal scaling.

        The conversion rate is the *group's own* GPU (the hardware
        this backend simulates), which is also the only self-consistent
        unit for its compute term.  Requests carry no GPU, so an
        operator targeting a different part races this backend across a
        unit seam — the same seam any simulated-device entrant has
        against the host-calibrated builtins (see ROADMAP).
        """
        handle = request.handle
        ell = handle.pattern.vector_length
        ratio = ell / GATHER_FULL_EFFICIENCY_L
        efficiency = min(1.0, ratio * ratio)
        compute = handle.compressed.w / efficiency / self.group.devices
        comm = mode_collective(self.group, self.shard, request.m, handle.n)
        comm_macs = comm.seconds * self.group.gpu.locked_peak_flops / 2.0
        return compute + comm_macs / (request.m * handle.n)

    def run(self, request: ExecutionRequest) -> ExecutionResult:
        sharded = self._sharded_for(request)
        start = time.perf_counter()
        out = sharded_execute(request.a, sharded)
        seconds = time.perf_counter() - start
        plan = request.plan
        if request.wants_trace:
            plan = self._fill_trace(request, sharded)
        return ExecutionResult(
            output=out,
            backend=self.name,
            plan=plan,
            seconds=seconds,
            trace_filled=request.wants_trace,
        )

    def _fill_trace(
        self, request: ExecutionRequest, sharded: ShardedHandle
    ) -> "ExecutionPlan | None":
        """Compose per-device analytic traces into the request's trace:
        each shard contributes the trace its own launch geometry
        implies, so the total FMA count still equals ``m * n * w`` and
        the byte counts reflect the sharded tiles.  The mode's
        collective is accounted as a comm event carrying the modeled
        *wire* bytes (the ring traffic actually shipped), so a sharded
        trace exposes its communication bill alongside its memory
        hierarchy — the per-backend vocabulary ``capabilities()``
        declares.

        The per-device plans take their optimization version from an
        *explicitly passed* plan; otherwise V3 (the default).  The
        request's lazy planner is deliberately not resolved — it would
        build a full-size single-device plan (never executed here)
        just to read its version field.
        """
        plan = request.plan
        version = plan.version.value if plan is not None else "V3"
        for device_plan, shard in zip(
            _per_device_plans(
                sharded, self.group, request.m, version=version
            ),
            sharded.shards,
            strict=True,
        ):
            col_info = None
            if device_plan.uses_packing:
                ws = min(device_plan.ws, shard.handle.compressed.w)
                col_info = shard.handle.col_info(ws, device_plan.params.ns)
            request.trace.merge(
                device_plan.analytic_trace(
                    col_info,
                    index_itemsize=(
                        shard.handle.compressed.indices.dtype.itemsize
                    ),
                )
            )
        comm = sharded.collective(self.group, request.m)
        request.trace.add_comm(
            comm.collective, comm.payload_bytes, comm.wire_bytes,
            comm.seconds,
        )
        request.trace.tag_backend(self.name)
        return plan
