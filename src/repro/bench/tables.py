"""Table I — does the autotuner reproduce the recommended parameters?

Runs the constraint-driven search of :mod:`repro.kernels.autotune` on
representative small/medium/large problems (Table II exemplars) and
compares the winners with Table I's recommendations.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.kernels.autotune import autotune
from repro.kernels.tiling import TABLE_I, MatrixSizeClass, TileParams, classify_matrix
from repro.sparsity.config import NMPattern
from repro.utils.tables import TextTable
from repro.workloads.cases import TABLE_II_CASES

__all__ = ["Table1Row", "Table1Result", "run_table1", "render_table1"]

#: Representative Table II case per size class.
_CLASS_EXEMPLARS = {
    MatrixSizeClass.SMALL: "A",
    MatrixSizeClass.MEDIUM: "D",
    MatrixSizeClass.LARGE: "F",
}


@dataclass(frozen=True)
class Table1Row:
    size_class: MatrixSizeClass
    case: str
    recommended: TileParams
    tuned: TileParams
    tuned_seconds: float
    block_shape_matches: bool
    thread_tile_matches: bool


@dataclass(frozen=True)
class Table1Result:
    rows: tuple[Table1Row, ...]


def run_table1(
    gpu: str = "A100",
    *,
    sparsity_pattern: NMPattern | None = None,
    max_block: int = 128,
) -> Table1Result:
    """Autotune each size-class exemplar and compare with Table I."""
    pattern = sparsity_pattern or NMPattern(16, 32, vector_length=32)
    rows: list[Table1Row] = []
    for size_class, case in _CLASS_EXEMPLARS.items():
        shape = TABLE_II_CASES[case]
        assert classify_matrix(shape.m, shape.n, shape.k) == size_class
        rec = TABLE_I[size_class]
        result = autotune(
            shape.m, shape.n, shape.k, pattern, gpu, max_block=max_block
        )
        best = result.best
        rows.append(
            Table1Row(
                size_class=size_class,
                case=case,
                recommended=rec,
                tuned=best,
                tuned_seconds=result.predicted_seconds,
                block_shape_matches=(best.ms, best.ns) == (rec.ms, rec.ns),
                thread_tile_matches=(best.mt, best.nt) == (rec.mt, rec.nt),
            )
        )
    return Table1Result(rows=tuple(rows))


def render_table1(result: Table1Result) -> str:
    table = TextTable(
        ["class", "case", "Table I (ms,ns,mt,nt)", "autotuned", "block match", "tile match"],
        title="Table I — autotuner vs recommended blocking parameters",
    )
    for r in result.rows:
        rec, t = r.recommended, r.tuned
        table.add_row(
            [
                r.size_class.value,
                r.case,
                f"({rec.ms},{rec.ns},{rec.mt},{rec.nt})",
                f"({t.ms},{t.ns},{t.mt},{t.nt})",
                "yes" if r.block_shape_matches else "no",
                "yes" if r.thread_tile_matches else "no",
            ]
        )
    return table.render()
