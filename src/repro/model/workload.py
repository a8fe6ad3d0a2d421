"""Problem descriptors for the performance model."""

from __future__ import annotations

from dataclasses import dataclass

from repro.sparsity.config import NMPattern
from repro.utils.validation import check_positive_int

__all__ = ["ProblemShape", "SparseProblem"]


@dataclass(frozen=True, slots=True)
class ProblemShape:
    """An ``(m, n, k)`` matrix-multiplication problem:
    ``C[m][n] = A[m][k] @ B[k][n]``."""

    m: int
    n: int
    k: int

    def __post_init__(self) -> None:
        check_positive_int("m", self.m)
        check_positive_int("n", self.n)
        check_positive_int("k", self.k)

    def label(self) -> str:
        return f"{self.m}x{self.n}x{self.k}"


@dataclass(frozen=True, slots=True)
class SparseProblem:
    """A :class:`ProblemShape` pruned with an :class:`NMPattern`."""

    shape: ProblemShape
    pattern: NMPattern

    @property
    def w(self) -> int:
        """Compressed depth ``k*N/M`` (padded)."""
        return self.pattern.compressed_rows(self.shape.k)

    @property
    def useful_flops(self) -> int:
        """FLOPs the sparse kernel must execute: ``2*m*n*w``."""
        return 2 * self.shape.m * self.shape.n * self.w

    @property
    def sparsity(self) -> float:
        return self.pattern.sparsity

    @property
    def ideal_speedup(self) -> float:
        """Compute-reduction bound, ``M/N`` (Fig. 9's green line)."""
        return self.pattern.ideal_speedup

    def label(self) -> str:
        return f"{self.shape.label()}@{self.pattern.label()}"
