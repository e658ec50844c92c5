"""Process-wide kernel-cost cache.

Every ``profile()``, sweep and fleet step prices operators through the
same roofline formulas, and the formulas are pure functions of
``(operator, GPU spec, tuning constants)``.  This module memoizes them
once per process so the profiler, the distributed sharder and the fleet
simulator all share one table: re-pricing a 40k-event trace on a machine
that has been seen before is a dictionary walk, not a model evaluation.

Keys are *content-addressed*: a machine token is built from every field
of the :class:`~repro.hw.spec.GPUSpec` and
:class:`~repro.kernels.base.TuningConstants` that the cost models read,
so two spec objects with equal content share entries and a spec with any
field changed (a mutated machine registry entry, an ablation's perturbed
tuning constant) can never alias a stale cost.  Explicit invalidation
exists for the registry-replacement path
(:func:`repro.distributed.registry.register_machine` with
``replace=True``) and for tests.

The cache is transparent by construction — hit and miss return the same
frozen :class:`~repro.ir.trace.KernelCost` value — and the property
tests in ``tests/kernels/test_cost_cache_properties.py`` verify exactly
that.  Set ``REPRO_NO_CACHE=1`` to disable every caching layer (this
one, subgraph replay and the profile cache) and fall back to the
uncached paths; the determinism suite diffs the two modes.
"""

from __future__ import annotations

import os
from dataclasses import dataclass
from typing import TYPE_CHECKING

if TYPE_CHECKING:  # pragma: no cover - typing only, avoids import cycles
    from repro.hw.spec import GPUSpec
    from repro.ir.ops import Op
    from repro.ir.trace import KernelCost
    from repro.kernels.base import TuningConstants

#: Environment variable that disables all caching layers when set to a
#: non-empty value other than ``0``.
NO_CACHE_ENV = "REPRO_NO_CACHE"

MachineToken = tuple


def caching_disabled_by_env() -> bool:
    """True when ``REPRO_NO_CACHE`` requests uncached execution."""
    value = os.environ.get(NO_CACHE_ENV, "")
    return value not in ("", "0")


def machine_token(spec: "GPUSpec", tuning: "TuningConstants") -> MachineToken:
    """Content fingerprint of one (GPU spec, tuning) pricing context.

    The token starts with the spec name so per-machine invalidation can
    match buckets without holding spec references.
    """
    return (
        spec.name,
        spec.sm_count,
        tuple(sorted(spec.peak_flops.items())),
        spec.vector_flops,
        spec.dram_bandwidth,
        spec.dram_capacity,
        spec.l2,
        spec.l1_per_sm,
        spec.kernel_launch_overhead_s,
        tuning,
    )


@dataclass(frozen=True)
class CacheStats:
    """Hit/miss counters surfaced by :meth:`KernelCostCache.stats`."""

    hits: int
    misses: int
    entries: int
    machines: int

    @property
    def lookups(self) -> int:
        """Total number of cost lookups served."""
        return self.hits + self.misses

    @property
    def hit_rate(self) -> float:
        """Fraction of lookups answered from the cache."""
        lookups = self.lookups
        return self.hits / lookups if lookups else 0.0


class KernelCostCache:
    """Two-level memo table: machine token -> operator -> cost."""

    def __init__(self) -> None:
        self._machines: dict[MachineToken, dict["Op", "KernelCost"]] = {}
        self._hits = 0
        self._misses = 0

    def bucket(self, token: MachineToken) -> dict["Op", "KernelCost"]:
        """The op->cost table for one machine token (created on demand)."""
        table = self._machines.get(token)
        if table is None:
            table = self._machines[token] = {}
        return table

    def count_hit(self) -> None:
        """Record a hit served from a bucket reference (fast path)."""
        self._hits += 1

    def count_miss(self) -> None:
        """Record a miss priced into a bucket reference (fast path)."""
        self._misses += 1

    # -- invalidation ------------------------------------------------------

    def invalidate_machine(self, name: str) -> int:
        """Drop every entry priced on a GPU spec named ``name``.

        Returns the number of entries dropped.  Called by the machine
        registry when a machine is replaced, so costs priced on the old
        spec cannot survive the swap even if a stale estimator keeps its
        token alive.
        """
        dropped = 0
        for token in [t for t in self._machines if t[0] == name]:
            dropped += len(self._machines.pop(token))
        return dropped

    def invalidate_spec(self, spec: "GPUSpec") -> int:
        """Drop entries for any tuning paired with ``spec``'s name."""
        return self.invalidate_machine(spec.name)

    # -- introspection -----------------------------------------------------

    def stats(self) -> CacheStats:
        """Current hit/miss counters and table sizes."""
        return CacheStats(
            hits=self._hits,
            misses=self._misses,
            entries=sum(len(t) for t in self._machines.values()),
            machines=len(self._machines),
        )


#: The process-wide cache instance shared by every ``CostEstimator``.
GLOBAL_COST_CACHE = KernelCostCache()


def cost_cache_stats() -> CacheStats:
    """Stats API: counters of the shared kernel-cost cache."""
    return GLOBAL_COST_CACHE.stats()
