"""The N:M sparsity pattern definition.

The paper adopts a *vector-wise* N:M pattern (Fig. 1): matrix
``B[k][n]`` is cut along the ``k`` dimension into *pruning windows* of
``M`` consecutive vectors, each vector being ``L`` contiguous elements
of a row (so a window spans ``M`` rows by ``L`` columns).  ``N`` of the
``M`` vectors in every window are retained.

``NMPattern`` carries ``(n, m, vector_length)`` plus the derived
quantities the kernels and the performance model need:

* ``sparsity = 1 - N/M``       (fraction of B removed)
* ``density  = N/M``           (fraction of B kept, the compute ratio)
* ``w(k)     = k*N/M``         (compressed row count of B')
* ``q(n)     = n/L``           (pruning windows per row block)
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.constants import HIGH_SPARSITY_THRESHOLD
from repro.errors import PatternError
from repro.utils.intmath import bits_required, ceil_div
from repro.utils.validation import check_float, check_int

__all__ = ["NMPattern", "sparsity_ratio"]


def sparsity_ratio(n: int, m: int) -> float:
    """Sparsity of an N:M pattern, ``1 - N/M`` (paper §III-A).

    >>> sparsity_ratio(2, 4)
    0.5
    """
    n = check_int("n", n, 1, error=PatternError)
    m = check_int("m", m, 1, error=PatternError)
    if n > m:
        raise PatternError(f"N ({n}) cannot exceed M ({m})")
    return 1.0 - n / m


@dataclass(frozen=True, slots=True)
class NMPattern:
    """A vector-wise N:M sparsity pattern.

    Parameters
    ----------
    n:
        Vectors retained per pruning window.
    m:
        Window size in vectors along the ``k`` dimension.
    vector_length:
        Elements per vector (``L`` in the paper).  Smaller ``L`` gives
        finer-grained pruning (better accuracy); larger ``L`` gives
        better load distribution in a warp (§III-A).

    Examples
    --------
    >>> p = NMPattern(2, 4, vector_length=4)
    >>> p.sparsity
    0.5
    >>> p.compressed_rows(16)
    8
    """

    n: int
    m: int
    vector_length: int = 32

    def __post_init__(self) -> None:
        check_int("n", self.n, 1, error=PatternError)
        check_int("m", self.m, 1, error=PatternError)
        check_int("vector_length", self.vector_length, 1, error=PatternError)
        if self.n > self.m:
            raise PatternError(
                f"N:M pattern requires N <= M, got N={self.n}, M={self.m}"
            )

    # ------------------------------------------------------------------
    # Derived quantities
    # ------------------------------------------------------------------
    @property
    def sparsity(self) -> float:
        """Fraction of B pruned away, ``1 - N/M``."""
        return 1.0 - self.n / self.m

    @property
    def density(self) -> float:
        """Fraction of B retained, ``N/M`` — also the compute ratio."""
        return self.n / self.m

    @property
    def is_high_sparsity(self) -> bool:
        """True when sparsity exceeds the 70% moderate/high threshold
        (paper §III-A); high sparsity enables the packing strategy."""
        return self.sparsity > HIGH_SPARSITY_THRESHOLD

    @property
    def index_bits(self) -> int:
        """Bits per index-matrix entry: positions within an M-slot
        window need only ``ceil(log2 M)`` bits (§III-B1)."""
        return bits_required(self.m)

    @property
    def ideal_speedup(self) -> float:
        """Theoretical speedup over dense from compute reduction alone,
        ``M/N`` (the green dashed line in Fig. 9)."""
        return self.m / self.n

    # ------------------------------------------------------------------
    # Shape arithmetic
    # ------------------------------------------------------------------
    def compressed_rows(self, k: int) -> int:
        """``w = ceil(k*N/M)``: row count of the compressed matrix B'.

        ``k`` values that are not multiples of M are padded up, exactly
        as §II-A prescribes.
        """
        check_int("k", k, 1, error=PatternError)
        return ceil_div(k, self.m) * self.n

    def window_count_k(self, k: int) -> int:
        """Number of pruning windows along the ``k`` dimension."""
        check_int("k", k, 1, error=PatternError)
        return ceil_div(k, self.m)

    def window_count_n(self, n: int) -> int:
        """``q = ceil(n/L)``: pruning windows along the row direction."""
        check_int("n", n, 1, error=PatternError)
        return ceil_div(n, self.vector_length)

    def padded_k(self, k: int) -> int:
        """``k`` rounded up to a multiple of M."""
        return self.window_count_k(k) * self.m

    def padded_n(self, n: int) -> int:
        """``n`` rounded up to a multiple of L."""
        return self.window_count_n(n) * self.vector_length

    # ------------------------------------------------------------------
    # Naming / construction helpers
    # ------------------------------------------------------------------
    @classmethod
    def from_sparsity(
        cls, sparsity: float, m: int = 32, vector_length: int = 32
    ) -> "NMPattern":
        """Build the pattern with window size ``m`` whose sparsity is
        exactly ``sparsity`` (must yield an integer N).

        >>> NMPattern.from_sparsity(0.875, m=32).n
        4
        """
        check_int("m", m, 1, error=PatternError)
        check_float("sparsity", sparsity, ge=0, lt=1, error=PatternError)
        n_exact = (1.0 - sparsity) * m
        n = round(n_exact)
        if n < 1 or abs(n_exact - n) > 1e-9:
            raise PatternError(
                f"sparsity {sparsity} is not representable with M={m} "
                f"(requires N={n_exact})"
            )
        return cls(n, m, vector_length)

    def label(self) -> str:
        """Short human-readable label, e.g. ``'2:4xL4'``."""
        return f"{self.n}:{self.m}xL{self.vector_length}"

    def __str__(self) -> str:
        return (
            f"NMPattern({self.n}:{self.m}, L={self.vector_length}, "
            f"sparsity={self.sparsity:.1%})"
        )
