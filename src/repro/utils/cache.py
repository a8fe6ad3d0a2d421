"""A small bounded LRU cache with hit/miss/eviction stats.

Shared by the serving runtime's plan cache
(:class:`repro.serve.cache.PlanCache`) and the auto-selector's decision
memo (:class:`repro.backends.auto.AutoSelector`), so the codebase has
exactly one bounded-cache implementation.
"""

from __future__ import annotations

from collections import OrderedDict
from dataclasses import dataclass
from typing import Callable, Hashable, Sequence, TypeVar

from repro.utils.validation import check_int

__all__ = ["CacheStats", "LRUCache"]

V = TypeVar("V")

#: Sentinel for "not cached" — ``None`` is a legitimate cached value.
_MISSING = object()


@dataclass
class CacheStats:
    """Hit/miss/eviction counters of one cache."""

    hits: int = 0
    misses: int = 0
    evictions: int = 0

    @property
    def lookups(self) -> int:
        return self.hits + self.misses

    @property
    def hit_rate(self) -> float:
        return self.hits / self.lookups if self.lookups else 0.0

    def as_dict(self) -> dict:
        return {
            "hits": self.hits,
            "misses": self.misses,
            "evictions": self.evictions,
            "hit_rate": round(self.hit_rate, 4),
        }

    def snapshot(self) -> "CacheStats":
        return CacheStats(
            hits=self.hits, misses=self.misses, evictions=self.evictions
        )

    def since(self, earlier: "CacheStats") -> "CacheStats":
        """The counter deltas accumulated after ``earlier`` was
        snapshotted (per-run stats on a long-lived cache)."""
        return CacheStats(
            hits=self.hits - earlier.hits,
            misses=self.misses - earlier.misses,
            evictions=self.evictions - earlier.evictions,
        )


class LRUCache:
    """A bounded LRU with stats (least-recently-*used* eviction).

    :attr:`generation` moves on every eviction and on :meth:`clear` —
    the only ways a key leaves the cache — so a caller that saw every
    key of a lookup sequence cached at generation ``g`` knows they are
    all still cached while the generation is still ``g``, and may
    replay the sequence's hits via :meth:`refresh`.  (Overwriting a
    cached key with :meth:`put` does not move it; ``get_or_build``
    only ever puts on a miss.)

    A replay is idempotent, so :meth:`refresh` handed the very sequence
    it replayed last, with no ``put``, hit or ``clear`` since, only
    counts the hits: a repeated replay is O(1).
    """

    def __init__(self, capacity: int):
        self.capacity = check_int("cache capacity", capacity, 1)
        self.stats = CacheStats()
        self.generation = 0
        self._data: "OrderedDict[Hashable, object]" = OrderedDict()
        #: What :meth:`refresh` replayed last, unless the order moved since.
        self._tail: "Sequence[Hashable] | None" = None

    def __len__(self) -> int:
        return len(self._data)

    def __contains__(self, key: Hashable) -> bool:
        return key in self._data

    def put(self, key: Hashable, value: object) -> None:
        """Insert/refresh a value, evicting the least recently used
        entry past capacity."""
        self._tail = None
        if key in self._data:
            self._data.move_to_end(key)
        self._data[key] = value
        if len(self._data) > self.capacity:
            self._data.popitem(last=False)
            self.stats.evictions += 1
            self.generation += 1

    def get_or_build(self, key: Hashable, build: Callable[[], V]) -> V:
        """Return the cached value, building (and possibly evicting) on
        a miss."""
        value = self._data.get(key, _MISSING)
        if value is _MISSING:
            self.stats.misses += 1
            value = build()
            self.put(key, value)
        else:
            self.stats.hits += 1
            self._tail = None
            self._data.move_to_end(key)
        return value  # type: ignore[return-value]

    def refresh(self, keys: "Sequence[Hashable]") -> None:
        """Replay a sequence of hits: move each key to the most-recent
        end in order and count ``len(keys)`` hits — the stats and
        recency the same ``get_or_build`` hits would leave.  Every key
        must be cached (a missing key raises ``KeyError``), and the
        sequence must not change while it may be replayed again."""
        if keys is not self._tail:
            self._tail = None
            move_to_end = self._data.move_to_end
            for key in keys:
                move_to_end(key)
            self._tail = keys
        self.stats.hits += len(keys)

    def clear(self) -> None:
        self._tail = None
        self._data.clear()
        self.generation += 1
