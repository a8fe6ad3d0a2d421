"""Hierarchical blocking parameters (paper §III-B, Table I, Eq. 4/5).

``TileParams`` carries the full parameter set of Fig. 3:

* shared-memory block sizes ``ms, ns, ks`` (and derived ``ws, qs``);
* warp-level tile ``mr, nr``;
* thread-level tile ``mt, nt``.

``ks`` is not free: Eq. 4 bounds the shared-memory footprint
``4*(ks*ms + ws*ns + ws*qs) <= SM_Size * 0.5`` which, ignoring the
small D tile (Eq. 5), gives ``8*ks*(ms + N*ns/M) <= SM_Size`` and hence
the closed form used in Listing 1 line 4::

    ks = min(k, M * SM_Size / (8 * (N*ms + N*ns)))      -- paper's text
       = min(k, SM_Size * M / (8 * (M*ms + N*ns)))      -- Eq. 5 exact

The paper's Listing 1 denominator ``8*(N*ms + N*ns)`` charges As at
the *packed* width (``N/M`` of the tile), so it admits a larger ``ks``
than Eq. 5, which charges the full unpacked tile; we implement the
Eq. 5 form as the safe default and provide the listing form for the
packed path and for comparison.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from enum import Enum

from repro.constants import (
    SMEM_USABLE_FRACTION,
    THREAD_TILE_REGISTER_BUDGET,
    WARP_SIZE,
)
from repro.errors import ConfigurationError
from repro.sparsity.config import NMPattern
from repro.utils.intmath import ceil_div, round_down
from repro.utils.validation import check_positive_int

__all__ = [
    "TileParams",
    "MatrixSizeClass",
    "TABLE_I",
    "classify_matrix",
    "params_for",
    "max_ks_eq5",
    "max_ks_listing1",
    "cmar",
]


class MatrixSizeClass(str, Enum):
    """The small/medium/large classification of Table I / Table II."""

    SMALL = "small"
    MEDIUM = "medium"
    LARGE = "large"


def classify_matrix(m: int, n: int, k: int) -> MatrixSizeClass:
    """Classify a problem into Table I's size classes.

    The paper keys its recommendation on the output-tile volume: the
    Table II exemplars put 512x512..512x1024 outputs in *small*,
    512x2048..1024x2048 in *medium* and 2048x4096 up in *large*.  We
    use the geometric mean of the output dimensions, which reproduces
    that assignment exactly (see tests against Table II).
    """
    check_positive_int("m", m)
    check_positive_int("n", n)
    check_positive_int("k", k)
    output_scale = (m * n) ** 0.5
    if output_scale <= 768:
        return MatrixSizeClass.SMALL
    if output_scale <= 1536:
        return MatrixSizeClass.MEDIUM
    return MatrixSizeClass.LARGE


def cmar(mt: int, nt: int, lds_width_floats: int = 4) -> float:
    """Computing-to-memory-access ratio of the thread inner kernel,
    Eq. 6: ``CMAR = (1/alpha) * mt*nt / (mt + nt)`` with
    ``alpha = 4 / lds_width_floats`` (alpha=4 for LDS.32, 2 for LDS.64,
    1 for LDS.128)."""
    check_positive_int("mt", mt)
    check_positive_int("nt", nt)
    if lds_width_floats not in (1, 2, 4):
        raise ConfigurationError(
            f"lds_width_floats must be 1, 2 or 4, got {lds_width_floats}"
        )
    alpha = 4 // lds_width_floats
    return (mt * nt) / (alpha * (mt + nt))


@dataclass(frozen=True, slots=True)
class TileParams:
    """Blocking parameters of the hierarchical mechanism (Fig. 3).

    ``ks`` may be 0 to mean "derive from the shared-memory budget via
    Eq. 5 when the pattern and GPU are known" (see :meth:`with_ks`).
    """

    ms: int
    ns: int
    mr: int
    nr: int
    mt: int
    nt: int
    ks: int = 0

    def __post_init__(self) -> None:
        for name in ("ms", "ns", "mr", "nr", "mt", "nt"):
            check_positive_int(name, getattr(self, name))
        if self.ks < 0:
            raise ConfigurationError(f"ks must be non-negative, got {self.ks}")
        # §III-B1: "To avoid bank conflict in shared memory access, ms
        # and ns are set as multiples of 32."
        if self.ms % WARP_SIZE != 0 or self.ns % WARP_SIZE != 0:
            raise ConfigurationError(
                f"ms={self.ms} and ns={self.ns} must be multiples of "
                f"{WARP_SIZE} to avoid bank conflicts"
            )
        if self.ms % self.mr != 0 or self.ns % self.nr != 0:
            raise ConfigurationError(
                f"warp tile ({self.mr}x{self.nr}) must divide the block "
                f"tile ({self.ms}x{self.ns})"
            )
        if self.mr % self.mt != 0 or self.nr % self.nt != 0:
            raise ConfigurationError(
                f"thread tile ({self.mt}x{self.nt}) must divide the warp "
                f"tile ({self.mr}x{self.nr})"
            )
        # §III-B2 register constraint: mt + nt + mt*nt <= 255.
        if self.mt + self.nt + self.mt * self.nt > THREAD_TILE_REGISTER_BUDGET:
            raise ConfigurationError(
                f"thread tile {self.mt}x{self.nt} exceeds the register "
                f"budget (mt + nt + mt*nt <= {THREAD_TILE_REGISTER_BUDGET})"
            )
        threads = self.threads_per_block
        if threads % WARP_SIZE != 0:
            raise ConfigurationError(
                f"block must hold whole warps, got {threads} threads"
            )

    # ------------------------------------------------------------------
    # Derived structure
    # ------------------------------------------------------------------
    @property
    def threads_per_warp_grid(self) -> tuple[int, int]:
        """Thread arrangement inside a warp, ``(rows, cols)`` — the
        ``x*y`` grid of §III-B2 (e.g. 4x8)."""
        rows = self.mr // self.mt
        cols = self.nr // self.nt
        return rows, cols

    @property
    def warps_per_block(self) -> int:
        """Warps per thread block, from the warp-tile grid."""
        return (self.ms // self.mr) * (self.ns // self.nr)

    @property
    def threads_per_block(self) -> int:
        rows, cols = self.threads_per_warp_grid
        if rows * cols != WARP_SIZE:
            raise ConfigurationError(
                f"warp grid {rows}x{cols} must contain exactly "
                f"{WARP_SIZE} threads (mr/mt * nr/nt == 32)"
            )
        return self.warps_per_block * WARP_SIZE

    @property
    def accumulator_registers(self) -> int:
        """Registers per thread spent on the Ct accumulator plus the
        At/Bt fragments (the dominant term of §III-B2)."""
        return self.mt * self.nt + self.mt + self.nt

    def cmar(self, lds_width_floats: int = 4) -> float:
        """Inner-kernel CMAR for this thread tile (Eq. 6)."""
        return cmar(self.mt, self.nt, lds_width_floats)

    # ------------------------------------------------------------------
    # ks derivation (Eq. 4 / Eq. 5)
    # ------------------------------------------------------------------
    def with_ks(self, pattern: NMPattern, smem_bytes: int, k: int) -> "TileParams":
        """Return a copy with ``ks`` fixed to the Eq. 5 maximum for the
        given pattern, shared-memory size, and problem ``k``."""
        ks = max_ks_eq5(pattern, self.ms, self.ns, smem_bytes, k)
        return replace(self, ks=ks)

    def ws(self, pattern: NMPattern) -> int:
        """Compressed block depth ``ws = ks*N/M`` (requires ks set)."""
        self._require_ks()
        return (self.ks // pattern.m) * pattern.n

    def qs(self, pattern: NMPattern) -> int:
        """Pruning windows per block row, ``qs = ns/L``."""
        return ceil_div(self.ns, pattern.vector_length)

    def _require_ks(self) -> None:
        if self.ks <= 0:
            raise ConfigurationError(
                "ks is unset; call with_ks(pattern, smem_bytes, k) first"
            )

    def label(self) -> str:
        return (
            f"ms{self.ms}ns{self.ns}ks{self.ks or '?'}"
            f"_warp{self.mr}x{self.nr}_thread{self.mt}x{self.nt}"
        )


def max_ks_eq5(
    pattern: NMPattern, ms: int, ns: int, smem_bytes: int, k: int
) -> int:
    """Largest ``ks`` satisfying Eq. 5's budget
    ``8*ks*(ms + ns*N/M) <= SM_Size``, rounded down to a multiple of M
    and clamped to ``k`` (padded to M).

    The factor 8 is ``4 bytes / SMEM_USABLE_FRACTION``: half the shared
    memory is reserved for double buffering and temporaries.
    """
    check_positive_int("smem_bytes", smem_bytes)
    budget = smem_bytes * SMEM_USABLE_FRACTION
    denom = 4.0 * (ms + ns * pattern.density)
    ks = int(budget / denom)
    ks = round_down(max(ks, pattern.m), pattern.m)
    k_padded = pattern.padded_k(k)
    return max(pattern.m, min(ks, k_padded))


def max_ks_listing1(
    pattern: NMPattern, ms: int, ns: int, smem_bytes: int, k: int
) -> int:
    """The Listing 1 line 4 variant
    ``ks = min(k, M*SM_Size / (8*(N*ms + N*ns)))`` — larger than Eq. 5
    because it charges As at the packed (``N/M``) width on both terms,
    which is only safe on the packing path; kept for fidelity
    comparisons."""
    denom = 8.0 * (pattern.n * ms + pattern.n * ns)
    ks = int(pattern.m * smem_bytes / denom)
    ks = round_down(max(ks, pattern.m), pattern.m)
    return max(pattern.m, min(ks, pattern.padded_k(k)))


#: Table I — recommended parameter configurations.
TABLE_I: dict[MatrixSizeClass, TileParams] = {
    MatrixSizeClass.SMALL: TileParams(ms=32, ns=32, mr=16, nr=32, mt=4, nt=4),
    MatrixSizeClass.MEDIUM: TileParams(ms=32, ns=64, mr=32, nr=32, mt=8, nt=4),
    MatrixSizeClass.LARGE: TileParams(ms=64, ns=128, mr=64, nr=32, mt=8, nt=8),
}


def params_for(
    m: int,
    n: int,
    k: int,
    pattern: NMPattern | None = None,
    smem_bytes: int | None = None,
    size_class: MatrixSizeClass | None = None,
) -> TileParams:
    """Pick Table I parameters for a problem, optionally deriving ``ks``
    when ``pattern`` and ``smem_bytes`` are given (Listing 1 lines 3-5).
    """
    cls = size_class or classify_matrix(m, n, k)
    params = TABLE_I[cls]
    if pattern is not None and smem_bytes is not None:
        params = params.with_ks(pattern, smem_bytes, k)
    return params
