"""Pipeline stage graphs for the two sparsity regimes (Figs. 5 and 6).

The paper draws two pipelines:

* **moderate sparsity** (Fig. 5): computation instructions cover the
  Lg2s loads — the compute stage is the long pole, so the double
  buffer hides loads under FMAs;
* **high sparsity** (Fig. 6): the packed loads (col_info + As) are the
  long pole, so loads cover computation.

:func:`design_pipeline` builds the explicit stage sequence for one
main-loop iteration — the artefact the ablation bench schedules with
:class:`repro.model.pipeline.SoftwarePipeline` — and reports which
stage covers which, which is emergent from the stage costs rather than
hard-coded.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.core.strategy import LoadStrategy
from repro.errors import PlanError

__all__ = ["PipelineStageSpec", "PipelineDesign", "design_pipeline"]


@dataclass(frozen=True)
class PipelineStageSpec:
    """One stage of the per-iteration pipeline."""

    name: str
    kind: str  # "load" or "compute"
    cycles: float


@dataclass(frozen=True)
class PipelineDesign:
    """The per-iteration stage graph plus its covering relation."""

    strategy: LoadStrategy
    stages: tuple[PipelineStageSpec, ...]
    double_buffered: bool

    @property
    def load_cycles(self) -> float:
        return sum(s.cycles for s in self.stages if s.kind == "load")

    @property
    def compute_cycles(self) -> float:
        return sum(s.cycles for s in self.stages if s.kind == "compute")


def design_pipeline(
    strategy: LoadStrategy,
    *,
    lg2s_cycles: float,
    compute_cycles: float,
    colinfo_cycles: float = 0.0,
    ls2r_cycles: float = 0.0,
    double_buffered: bool = True,
) -> PipelineDesign:
    """Assemble the iteration pipeline for a strategy.

    The packing strategy prepends the col_info load (Listing 3 line
    15, the extra latency §III-C1 notes the refined pipeline must
    mask); ``ls2r_cycles`` is the shared-memory-to-register stage that
    overlaps with compute inside the inner kernel (Fig. 5's blue/yellow
    rectangles) and is charged to the compute side.
    """
    if lg2s_cycles < 0 or compute_cycles < 0 or colinfo_cycles < 0:
        raise PlanError("stage cycle counts must be non-negative")
    stages: list[PipelineStageSpec] = []
    if strategy is LoadStrategy.PACKING:
        stages.append(PipelineStageSpec("load col_info", "load", colinfo_cycles))
    elif colinfo_cycles:
        raise PlanError("non-packing pipeline has no col_info stage")
    stages.append(PipelineStageSpec("load As/Bs/Ds (Lg2s)", "load", lg2s_cycles))
    stages.append(
        PipelineStageSpec("inner kernel (Ls2r + Comp)", "compute", compute_cycles + ls2r_cycles)
    )
    return PipelineDesign(
        strategy=strategy,
        stages=tuple(stages),
        double_buffered=double_buffered,
    )
