"""The step-wise optimization levels V1 / V2 / V3 (paper §IV-B).

* **V1** — hierarchical blocking mechanism (Listings 1 and 2);
* **V2** — V1 + sparsity-aware memory-footprint optimization
  (Listing 3: packing at high sparsity);
* **V3** — V2 + sparsity-aware instruction-latency hiding
  (Listing 4: double buffering, async loads, index prefetch).

Each version *includes* its predecessors' optimizations, exactly as
the paper's evaluation protocol states.
"""

from __future__ import annotations

from enum import Enum

from repro.core.strategy import LoadStrategy, select_strategy
from repro.errors import ConfigurationError
from repro.sparsity.config import NMPattern

__all__ = ["OptimizationVersion"]


class OptimizationVersion(str, Enum):
    """NM-SpMM optimization level."""

    V1 = "V1"
    V2 = "V2"
    V3 = "V3"

    @property
    def uses_packing(self) -> bool:
        """V2 and V3 enable the packing path (when sparsity is high)."""
        return self is not OptimizationVersion.V1

    def strategy_for(self, pattern: NMPattern) -> LoadStrategy:
        """Effective load strategy for a pattern at this version."""
        if not self.uses_packing:
            return LoadStrategy.NON_PACKING
        return select_strategy(pattern)

    @property
    def description(self) -> str:
        return {
            OptimizationVersion.V1: "hierarchical blocking (Listings 1-2)",
            OptimizationVersion.V2: "V1 + memory-footprint packing (Listing 3)",
            OptimizationVersion.V3: "V2 + pipelined latency hiding (Listing 4)",
        }[self]

    @classmethod
    def parse(cls, value: "str | OptimizationVersion") -> "OptimizationVersion":
        if isinstance(value, cls):
            return value
        try:
            return cls(str(value).upper())
        except ValueError:
            names = ", ".join(v.value for v in cls)
            raise ConfigurationError(
                f"unknown optimization version {value!r}; expected one "
                f"of {names}"
            ) from None
