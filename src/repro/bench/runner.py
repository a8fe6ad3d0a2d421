"""Generic sweep runner.

Benchmark drivers and user scripts share this small engine-sweeping
utility: a :class:`Sweep` is a cartesian grid over (shapes, patterns,
GPUs, versions) whose cells are :class:`~repro.model.timing.KernelReport`
objects, with reduction helpers (geomean speedups, best-of) and a
renderer. ``python -m repro sweep`` exposes it on the command line.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.gpu.catalog import resolve_gpu
from repro.model.baselines.cublas import simulate_cublas
from repro.model.engine import simulate_nm_spmm
from repro.model.timing import KernelReport
from repro.model.workload import ProblemShape
from repro.sparsity.config import NMPattern
from repro.utils.intmath import geomean
from repro.utils.tables import TextTable

__all__ = ["SweepCell", "Sweep", "run_sweep"]


@dataclass(frozen=True)
class SweepCell:
    """One grid point of a sweep."""

    shape: ProblemShape
    pattern: NMPattern
    gpu: str
    version: str
    report: KernelReport
    cublas: KernelReport

    @property
    def speedup(self) -> float:
        return self.cublas.seconds / self.report.seconds


@dataclass
class Sweep:
    """Results of a sweep plus reductions."""

    cells: list[SweepCell] = field(default_factory=list)

    def geomean_speedup(self) -> float:
        if not self.cells:
            raise ValueError("empty sweep")
        return geomean([c.speedup for c in self.cells])

    def best(self) -> SweepCell:
        return max(self.cells, key=lambda c: c.speedup)

    def worst(self) -> SweepCell:
        return min(self.cells, key=lambda c: c.speedup)

    def render(self, title: str = "Sweep results") -> str:
        table = TextTable(
            ["shape", "pattern", "gpu", "ver", "time (ms)", "TFLOPS", "speedup"],
            title=title,
        )
        for cell in self.cells:
            table.add_row(
                [
                    cell.shape.label(),
                    cell.pattern.label(),
                    cell.gpu,
                    cell.version,
                    f"{cell.report.seconds * 1e3:.3f}",
                    f"{cell.report.tflops:.2f}",
                    f"{cell.speedup:.2f}x",
                ]
            )
        return table.render()


def run_sweep(
    shapes: "list[tuple[int, int, int]]",
    patterns: "list[NMPattern]",
    gpus: "list[str]" = ("A100",),
    versions: "list[str]" = ("V3",),
) -> Sweep:
    """Run the full cartesian sweep (cuBLAS is evaluated once per
    (shape, gpu) and shared across cells)."""
    sweep = Sweep()
    for gpu in gpus:
        spec = resolve_gpu(gpu)
        for m, n, k in shapes:
            cublas = simulate_cublas(m, n, k, spec)
            for pattern in patterns:
                for version in versions:
                    report = simulate_nm_spmm(
                        m, n, k, pattern, spec, version=version
                    )
                    sweep.cells.append(
                        SweepCell(
                            shape=ProblemShape(m, n, k),
                            pattern=pattern,
                            gpu=spec.name,
                            version=version,
                            report=report,
                            cublas=cublas,
                        )
                    )
    return sweep
