"""Shared-memory bank-conflict simulation.

Shared memory on every modelled part has 32 banks, each 4 bytes wide;
a warp's load is split into as many transactions as the maximum number
of *distinct words* any single bank must serve (same-word accesses are
broadcast for free).  §III-B1 motivates making ``ms`` and ``ns``
multiples of 32 precisely to keep warp accesses conflict-free; this
module verifies that claim from first principles and supplies the
penalty multiplier for configurations that violate it.
"""

from __future__ import annotations

import numpy as np

from repro.constants import SMEM_BANKS
from repro.utils.validation import check_int

__all__ = ["bank_conflict_degree", "warp_transactions", "conflict_multiplier"]


def bank_conflict_degree(word_addresses: np.ndarray, banks: int = SMEM_BANKS) -> int:
    """Conflict degree of one warp access: the maximum number of
    distinct 4-byte words mapped to the same bank.

    1 means conflict-free (or fully broadcast); 32 is the worst case.

    >>> import numpy as np
    >>> bank_conflict_degree(np.arange(32))          # unit stride
    1
    >>> bank_conflict_degree(np.arange(32) * 32)     # stride 32
    32
    >>> bank_conflict_degree(np.zeros(32, dtype=int))  # broadcast
    1
    """
    addrs = np.asarray(word_addresses, dtype=np.int64).ravel()
    if addrs.size == 0:
        return 1
    check_int("banks", banks, 1)
    bank = addrs % banks
    degree = 1
    for b in np.unique(bank):
        distinct_words = np.unique(addrs[bank == b]).size
        degree = max(degree, int(distinct_words))
    return degree


def warp_transactions(
    word_addresses: np.ndarray,
    *,
    words_per_thread: int = 1,
    banks: int = SMEM_BANKS,
) -> int:
    """Shared-memory transactions needed to satisfy one warp-wide load.

    ``word_addresses`` are the first-word addresses of each lane;
    ``words_per_thread`` widens each access (LDS.64 -> 2 words,
    LDS.128 -> 4 words).  Wide accesses are issued in up-to-128-byte
    phases; each phase pays its own conflict degree.
    """
    addrs = np.asarray(word_addresses, dtype=np.int64).ravel()
    check_int("words_per_thread", words_per_thread, 1)
    # A wide LDS is executed in phases of <= 128 bytes: with w-word
    # accesses, 32/w lanes are served per phase.  Each phase pays one
    # transaction per distinct word mapped to the busiest bank.
    lanes_per_phase = max(1, SMEM_BANKS // words_per_thread)
    widths = np.arange(words_per_thread, dtype=np.int64)
    total = 0
    for start in range(0, addrs.size, lanes_per_phase):
        group = addrs[start : start + lanes_per_phase]
        words = (group[:, None] + widths[None, :]).ravel()
        total += bank_conflict_degree(words, banks)
    return total


def conflict_multiplier(
    word_addresses: np.ndarray,
    *,
    words_per_thread: int = 1,
    banks: int = SMEM_BANKS,
) -> float:
    """Slowdown factor relative to the conflict-free transaction count
    for the same access width (1.0 = no penalty)."""
    actual = warp_transactions(
        word_addresses, words_per_thread=words_per_thread, banks=banks
    )
    addrs = np.asarray(word_addresses).ravel()
    lanes_per_phase = max(1, SMEM_BANKS // words_per_thread)
    phases = -(-addrs.size // lanes_per_phase) * words_per_thread
    ideal = max(1, phases)
    return actual / ideal
