"""Software-pipeline scheduling model (paper §III-C2, Figs. 5/6).

Two views of the same mechanism:

* :func:`steady_state_cycles` — closed form used by the engine: per
  iteration the load stage (Lg2s) and the compute stage overlap by a
  factor ``overlap`` (1.0 = the fully double-buffered V3 pipeline,
  0.0 = strict serialization);
* :class:`SoftwarePipeline` — a discrete scheduler that walks the
  iteration DAG explicitly (double-buffered or serial) and reports the
  per-iteration timeline; used by the pipeline ablation benchmark and
  by property tests that check the closed form against the schedule.

The direction of covering — "computation instructions mask load
latency" (moderate sparsity, Fig. 5) versus "loads mask computation"
(high sparsity, Fig. 6) — is emergent: whichever stage is longer
covers the other once ``overlap`` is high.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.errors import SimulationError
from repro.utils.intmath import clamp
from repro.utils.validation import check_float, check_int

__all__ = ["PipelineStage", "SoftwarePipeline", "steady_state_cycles"]


@dataclass(frozen=True)
class PipelineStage:
    """One stage instance in the discrete schedule."""

    name: str
    iteration: int
    start: float
    end: float

    @property
    def duration(self) -> float:
        return self.end - self.start


def steady_state_cycles(
    load_cycles: float,
    compute_cycles: float,
    iterations: int,
    overlap: float,
    *,
    fill_cycles: float = 0.0,
    drain_cycles: float = 0.0,
) -> float:
    """Total cycles of a two-stage pipeline over ``iterations``.

    ``overlap`` in [0, 1] linearly interpolates between serial
    execution (``load + compute`` per iteration) and perfect double
    buffering (``max(load, compute)`` per iteration, plus one load fill
    and one compute drain).
    """
    check_int("iterations", iterations, 1, error=SimulationError)
    check_float("load_cycles", load_cycles, ge=0, error=SimulationError)
    check_float("compute_cycles", compute_cycles, ge=0, error=SimulationError)
    overlap = clamp(overlap, 0.0, 1.0)
    serial = load_cycles + compute_cycles
    pipelined = max(load_cycles, compute_cycles)
    per_iter = overlap * pipelined + (1.0 - overlap) * serial
    total = per_iter * iterations
    # The pipelined fraction pays fill (first load exposed) and drain
    # (last compute exposed) once per block.
    total += overlap * (min(load_cycles, compute_cycles))
    return total + fill_cycles + drain_cycles


class SoftwarePipeline:
    """Discrete double-buffered pipeline scheduler.

    Models the Listing 4 structure: with ``buffers = 2`` the load of
    iteration ``i`` may start as soon as (a) the load unit is free and
    (b) buffer ``i % 2`` has been released by compute ``i - 2``;
    compute ``i`` starts when load ``i`` is done and the compute unit
    is free.  ``buffers = 1`` degenerates to the serial V1 schedule.
    """

    def __init__(self, buffers: int = 2):
        self.buffers = check_int("buffers", buffers, 1, error=SimulationError)

    def schedule(
        self,
        load_cycles: "list[float] | tuple[float, ...]",
        compute_cycles: "list[float] | tuple[float, ...]",
    ) -> list[PipelineStage]:
        """Produce the stage timeline for per-iteration costs."""
        if len(load_cycles) != len(compute_cycles):
            raise SimulationError(
                "load and compute sequences must have equal length"
            )
        if any(c < 0 for c in load_cycles) or any(c < 0 for c in compute_cycles):
            raise SimulationError("stage costs must be non-negative")
        stages: list[PipelineStage] = []
        load_free = 0.0
        comp_free = 0.0
        comp_end: list[float] = []
        for i, (lc, cc) in enumerate(zip(load_cycles, compute_cycles, strict=True)):
            # Buffer reuse: wait until the compute that last used this
            # buffer slot has finished.
            buffer_ready = 0.0
            prev = i - self.buffers
            if prev >= 0:
                buffer_ready = comp_end[prev]
            load_start = max(load_free, buffer_ready)
            load_end = load_start + lc
            stages.append(PipelineStage("load", i, load_start, load_end))
            load_free = load_end
            comp_start = max(comp_free, load_end)
            end = comp_start + cc
            stages.append(PipelineStage("compute", i, comp_start, end))
            comp_free = end
            comp_end.append(end)
        return stages

    def total_cycles(
        self,
        load_cycles: "list[float] | tuple[float, ...]",
        compute_cycles: "list[float] | tuple[float, ...]",
    ) -> float:
        """Makespan of the schedule."""
        stages = self.schedule(load_cycles, compute_cycles)
        return max((s.end for s in stages), default=0.0)

    def uniform_total(
        self, load_cycles: float, compute_cycles: float, iterations: int
    ) -> float:
        """Makespan for identical per-iteration costs."""
        return self.total_cycles(
            [load_cycles] * iterations, [compute_cycles] * iterations
        )
