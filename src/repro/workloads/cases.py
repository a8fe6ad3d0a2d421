"""Fixed evaluation cases: Table II shapes and the paper's sparsity
levels."""

from __future__ import annotations

from repro.model.workload import ProblemShape
from repro.sparsity.config import NMPattern
from repro.utils.validation import check_choice

__all__ = [
    "TABLE_II_CASES",
    "PAPER_SPARSITY_PATTERNS",
    "paper_patterns",
    "table_ii_case",
    "STEPWISE_SHAPE",
]

#: Table II: the six labelled matrices for the blocking-parameter
#: experiment (Fig. 8).  A/B are small, C/D medium, E/F large.
TABLE_II_CASES: dict[str, ProblemShape] = {
    "A": ProblemShape(m=512, n=512, k=512),
    "B": ProblemShape(m=512, n=1024, k=1024),
    "C": ProblemShape(m=512, n=2048, k=2048),
    "D": ProblemShape(m=1024, n=2048, k=2048),
    "E": ProblemShape(m=2048, n=4096, k=4096),
    "F": ProblemShape(m=4096, n=4096, k=4096),
}

#: The shape used by the step-wise (Fig. 7) and roofline (Fig. 10)
#: experiments.
STEPWISE_SHAPE = ProblemShape(m=4096, n=4096, k=4096)

#: The four benchmark sparsities expressed as N:M over an M=32 window
#: (plus the 0% dense configuration the paper runs with M = N = 32).
PAPER_SPARSITY_PATTERNS: dict[float, tuple[int, int]] = {
    0.0: (32, 32),
    0.50: (16, 32),
    0.625: (12, 32),
    0.75: (8, 32),
    0.875: (4, 32),
}


def paper_patterns(
    vector_length: int = 32, *, include_dense: bool = False
) -> list[NMPattern]:
    """The benchmark patterns in sparsity order."""
    out = []
    for sparsity, (n, m) in sorted(PAPER_SPARSITY_PATTERNS.items()):
        if sparsity == 0.0 and not include_dense:
            continue
        out.append(NMPattern(n, m, vector_length))
    return out


def table_ii_case(label: str) -> ProblemShape:
    """Look up a Table II case by letter.

    >>> table_ii_case("A").m
    512
    """
    return TABLE_II_CASES[check_choice("Table II case", label.strip().upper(), TABLE_II_CASES)]
