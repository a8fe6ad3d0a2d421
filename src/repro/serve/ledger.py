"""Generic conservation ledger for per-request resident footprints.

The serving stack keeps several "total footprint" aggregates that must
never drift from the entries they summarize: the queued activation rows
admission control polls (:class:`~repro.serve.queue.RequestQueue`), the
rolling batch's resident rows
(:class:`~repro.serve.batcher.ContinuousBatcher`), and the simulated
HBM bytes of the device-memory model
(:mod:`repro.serve.model_exec.memory`).  Before this module each of
those maintained its own incremental counter next to its own container
— three copies of the same invariant, each a separate drift bug waiting
to happen.

:class:`CostLedger` is that machinery once: a keyed map of non-negative
costs with an incrementally maintained total and high-water mark, plus
a :meth:`reconcile` that recomputes the sum from the entries and raises
on any drift.  Rows and bytes are both just costs; the property tests
that hammer the queue's row conservation now exercise the exact same
code path the KV-byte cap trusts.
"""

from __future__ import annotations

from typing import Hashable, Iterable, Iterator

from repro.errors import ServeError

__all__ = ["CostLedger"]


class CostLedger:
    """Keyed non-negative costs with a conservation-checked total.

    ``add``/``grow``/``remove`` maintain :attr:`total` incrementally
    (the schedulers poll it on every event-loop step) and :attr:`peak`
    as the high-water mark.  :meth:`reconcile` recomputes the total
    from the entries and raises :class:`~repro.errors.ServeError` if
    the incremental value drifted — the zero-silent-loss check of the
    byte and row accounting.
    """

    __slots__ = ("name", "_costs", "_total", "_peak")

    def __init__(self, name: str = "cost") -> None:
        self.name = name
        self._costs: dict[Hashable, float] = {}
        self._total: float = 0
        self._peak: float = 0

    # ------------------------------------------------------------------
    # State
    # ------------------------------------------------------------------
    def __len__(self) -> int:
        return len(self._costs)

    def __bool__(self) -> bool:
        return bool(self._costs)

    def __contains__(self, key: Hashable) -> bool:
        return key in self._costs

    def __iter__(self) -> Iterator[Hashable]:
        return iter(self._costs)

    @property
    def total(self) -> float:
        """Summed cost over every entry (maintained incrementally)."""
        return self._total

    @property
    def peak(self) -> float:
        """High-water mark of :attr:`total` over the ledger's life."""
        return self._peak

    def cost_of(self, key: Hashable) -> float:
        try:
            return self._costs[key]
        except KeyError:
            raise ServeError(
                f"{self.name} ledger holds no entry for {key!r}"
            ) from None

    # ------------------------------------------------------------------
    # Mutation
    # ------------------------------------------------------------------
    def add(self, key: Hashable, cost: float) -> None:
        """Admit ``key`` at ``cost``.  A key is resident at most once —
        double-admission is exactly the accounting bug this ledger
        exists to catch."""
        if key in self._costs:
            raise ServeError(
                f"{self.name} ledger already holds {key!r} "
                f"(cost {self._costs[key]})"
            )
        if cost < 0:
            raise ServeError(
                f"{self.name} ledger cost must be >= 0, got {cost} "
                f"for {key!r}"
            )
        self._costs[key] = cost
        self._total += cost
        if self._total > self._peak:
            self._peak = self._total

    def grow(self, keys: Iterable[Hashable], delta: float) -> None:
        """Grow each resident entry in ``keys`` by ``delta >= 0``, key by
        key (an unknown key raises with the ledger still reconciling)."""
        if delta < 0:
            raise ServeError(f"{self.name} ledger growth must be >= 0, got {delta}")
        costs = self._costs
        for key in keys:
            costs[key] = self.cost_of(key) + delta
            self._total += delta
            if self._total > self._peak:
                self._peak = self._total

    def remove(self, key: Hashable) -> float:
        """Release ``key`` and return the cost it held."""
        cost = self.cost_of(key)
        del self._costs[key]
        self._total -= cost
        return cost

    def discard(self, key: Hashable) -> float:
        """Release ``key`` if resident; returns the freed cost (0 when
        the key was not held — the idempotent cleanup path)."""
        if key not in self._costs:
            return 0
        return self.remove(key)

    # ------------------------------------------------------------------
    # Invariants
    # ------------------------------------------------------------------
    def reconcile(self) -> float:
        """Recompute the total from the entries; raise on drift from
        the incremental counter.  Returns the (verified) total."""
        actual = sum(self._costs.values())
        if actual != self._total:
            raise ServeError(
                f"{self.name} ledger does not reconcile: incremental "
                f"total {self._total} vs recomputed {actual} over "
                f"{len(self._costs)} entries"
            )
        return self._total

    def assert_empty(self) -> None:
        """Raise unless every cost was released (drain invariant)."""
        self.reconcile()
        if self._costs:
            raise ServeError(
                f"{self.name} ledger leaked {len(self._costs)} entries "
                f"({self._total} cost): {sorted(map(repr, self._costs))[:8]}"
            )
