"""Simulated device-memory (HBM) accounting for model serving.

Production LLM serving is bounded by device memory long before it is
bounded by compute: the compressed weights are resident for the whole
run, and every in-flight sequence pins a KV cache that grows by one
token per decode step.  :class:`DeviceMemoryModel` reproduces that
constraint on the simulated clock — two
:class:`~repro.serve.ledger.CostLedger` instances (weights keyed by
model name, KV bytes keyed by request id) against a byte budget taken
from the :mod:`repro.gpu.catalog` spec (``dram_gb``) or an explicit
override for the scaled-down regimes the test suite runs.

The model is an *accountant*, not a policy: the serving engine asks
:meth:`fits` at admission/rejoin time, charges growth after every
decode step, and releases on completion, timeout, preemption, and
device death.  Every mutation updates the high-water mark
``peak_bytes`` and its instant, so the cap held at every instant iff
it holds at the peak, and :meth:`reconcile` re-derives the totals and
demands zero leaked KV after drain — the same zero-silent-loss
discipline the request ledger already enforces.
"""

from __future__ import annotations

from repro.errors import ServeError
from repro.serve.ledger import CostLedger
from repro.utils.validation import is_int

__all__ = ["DeviceMemoryModel", "KV_ADMISSION_MODES"]

#: ``kv-aware`` — admission/growth respects the budget (the default);
#: ``none`` — the no-memory-model baseline: everything is admitted and
#: overflow is charged as host-link thrash time instead.
KV_ADMISSION_MODES = ("kv-aware", "none")


def _checked_budget(budget_bytes) -> int:
    if is_int(budget_bytes) and budget_bytes > 0:
        return int(budget_bytes)
    raise ServeError(f"HBM budget must be an int > 0 bytes, got {budget_bytes!r}")


class DeviceMemoryModel:
    """Byte-accurate simulated HBM pool for one serving run."""

    def __init__(self, budget_bytes: int, *, admission: str = "kv-aware"):
        if admission not in KV_ADMISSION_MODES:
            raise ServeError(
                f"unknown kv admission mode {admission!r}; "
                f"pick one of {KV_ADMISSION_MODES}"
            )
        self.budget_bytes = _checked_budget(budget_bytes)
        self.admission = admission
        self.weights = CostLedger("hbm.weight-bytes")
        self.kv = CostLedger("hbm.kv-bytes")
        #: Highest resident bytes after any mutation, and when first reached.
        self.peak_bytes = 0
        self.peak_t_s = 0.0
        self.kv_evictions = 0
        self.overflow_steps = 0
        self.budget_shrinks = 0

    # ------------------------------------------------------------------
    # State
    # ------------------------------------------------------------------
    @property
    def enforce(self) -> bool:
        """Whether admission control consults the budget."""
        return self.admission == "kv-aware"

    @property
    def weight_bytes(self) -> int:
        return self.weights.total

    @property
    def kv_bytes(self) -> int:
        return self.kv.total

    @property
    def resident_bytes(self) -> int:
        return self.weights.total + self.kv.total

    @property
    def free_bytes(self) -> int:
        return self.budget_bytes - self.resident_bytes

    @property
    def overflow_bytes(self) -> int:
        """Bytes past the budget (only ever > 0 under ``none``)."""
        return max(0, self.resident_bytes - self.budget_bytes)

    def fits(self, extra_bytes: int) -> bool:
        """Would ``extra_bytes`` more stay inside the budget?"""
        return self.resident_bytes + extra_bytes <= self.budget_bytes

    def kv_bytes_of(self, request_id) -> int:
        """Resident KV bytes of one sequence (0 when not resident)."""
        if request_id not in self.kv:
            return 0
        return self.kv.cost_of(request_id)

    def _note(self, t_s: float) -> None:
        resident = self.weights.total + self.kv.total
        if resident > self.peak_bytes:
            self.peak_bytes = resident
            self.peak_t_s = t_s

    # ------------------------------------------------------------------
    # Mutation
    # ------------------------------------------------------------------
    def add_weights(self, model: str, nbytes: int, t_s: float = 0.0) -> None:
        """Pin a model's compressed weights for the whole run."""
        self.weights.add(model, int(nbytes))
        if self.enforce and self.weights.total > self.budget_bytes:
            raise ServeError(
                f"compressed weights ({self.weights.total} B) exceed the "
                f"HBM budget ({self.budget_bytes} B) before any KV cache "
                "is resident — the model does not fit on this device"
            )
        self._note(t_s)

    def reserve_kv(self, request_id, nbytes: int, t_s: float) -> None:
        """Pin a sequence's KV cache (prefill: one entry per resident
        sequence, sized at prompt + already-generated tokens)."""
        self.kv.add(request_id, int(nbytes))
        self._note(t_s)

    def grow_kv(self, request_ids, nbytes: int, t_s: float) -> None:
        """Grow each surviving sequence's KV cache (one decode step)."""
        self.kv.grow(request_ids, int(nbytes))
        self._note(t_s)

    def release_kv(self, request_id, t_s: float) -> int:
        """Free a sequence's KV cache; idempotent (completion, timeout,
        preemption, and device death can race on the same sequence).
        Returns the freed bytes."""
        freed = self.kv.discard(request_id)
        if freed:
            self._note(t_s)
        return freed

    def set_budget(self, budget_bytes: int, t_s: float) -> None:
        """Shrink (or restore) the pool — device fail-stop re-shards
        onto the survivors, whose aggregate HBM is smaller."""
        budget_bytes = _checked_budget(budget_bytes)
        if budget_bytes < self.budget_bytes:
            self.budget_shrinks += 1
        self.budget_bytes = budget_bytes
        self._note(t_s)

    # ------------------------------------------------------------------
    # Invariants
    # ------------------------------------------------------------------
    def assert_within_budget(self) -> None:
        """Raise unless resident bytes stayed inside the budget in force
        *now* after every mutation, i.e. at :attr:`peak_bytes` (callers
        with a shrinking budget check incrementally via :meth:`fits`)."""
        if self.peak_bytes > self.budget_bytes:
            raise ServeError(
                f"resident bytes {self.peak_bytes} exceeded the HBM budget "
                f"{self.budget_bytes} at t={self.peak_t_s}"
            )

    def reconcile(self) -> int:
        """End-of-run check: both ledgers reconcile and every KV byte
        was released (zero leaked KV after drain).  Returns the
        resident (weight-only) total."""
        self.weights.reconcile()
        self.kv.assert_empty()
        return self.resident_bytes

    def summary(self) -> dict:
        """The KV/memory block of the serving report."""
        return {
            "admission": self.admission,
            "budget_bytes": self.budget_bytes,
            "weight_bytes": self.weights.total,
            "kv_peak_bytes": self.kv.peak,
            "peak_resident_bytes": self.peak_bytes,
            "peak_utilization": (
                self.peak_bytes / self.budget_bytes if self.budget_bytes else 0.0
            ),
            "kv_evictions": self.kv_evictions,
            "overflow_steps": self.overflow_steps,
            "budget_shrinks": self.budget_shrinks,
        }
