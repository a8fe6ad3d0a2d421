"""Sparsity-aware load-strategy selection (paper §III-C1).

Moderate sparsity (<= 70%) keeps most of each A tile useful, so the
*non-packing* strategy loads the full working set "in an ostrich-style
approach" and skips the col_info overhead.  High sparsity (> 70%)
makes the A footprint the bottleneck, so the *packing* strategy stages
only the needed columns.
"""

from __future__ import annotations

from enum import Enum

from repro.constants import HIGH_SPARSITY_THRESHOLD
from repro.sparsity.colinfo import expected_packed_fraction
from repro.sparsity.config import NMPattern
from repro.utils.validation import check_float

__all__ = ["LoadStrategy", "select_strategy", "packing_benefit"]


class LoadStrategy(str, Enum):
    """The two A-tile load paths of Listing 3."""

    NON_PACKING = "non-packing"
    PACKING = "packing"


def select_strategy(
    pattern: NMPattern,
    threshold: float = HIGH_SPARSITY_THRESHOLD,
) -> LoadStrategy:
    """Pick the load strategy for a pattern.

    >>> select_strategy(NMPattern(16, 32))
    <LoadStrategy.NON_PACKING: 'non-packing'>
    >>> select_strategy(NMPattern(4, 32))
    <LoadStrategy.PACKING: 'packing'>
    """
    check_float("threshold", threshold, ge=0, le=1)
    if pattern.sparsity > threshold:
        return LoadStrategy.PACKING
    return LoadStrategy.NON_PACKING


def packing_benefit(pattern: NMPattern, qs: int) -> float:
    """Expected A-footprint reduction factor from packing (1.0 = no
    benefit): the staged fraction under packing.

    The paper's bound: with ``qs`` windows per block row the access
    shrinks to at most ``qs*N/M`` of the tile and at least ``N/M``
    (identical window patterns); the expectation under random patterns
    is ``1 - (1 - N/M)^qs``.
    """
    return expected_packed_fraction(pattern, qs)
