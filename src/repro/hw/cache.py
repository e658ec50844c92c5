"""Trace-driven set-associative cache simulator.

The paper uses NVIDIA Nsight Compute to read L1/L2 hit rates for the
GEMM, softmax and elementwise kernels inside spatial vs. temporal
attention (Figure 12), finding a ~10x lower L1 hit rate for temporal
attention.  Without hardware counters we reproduce the measurement with
a classic trace-driven simulator: the attention kernels in
``repro.kernels.attention`` synthesize the address streams their loads
would issue (contiguous rows for spatial attention, large strides for
temporal attention after the (B, HW, F) transpose) and replay them
through a :class:`CacheHierarchy` here.

Replays take whole streams: NumPy maps every access to its line, tag
and set index, and one Python loop updates the per-set LRU order.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Sequence

import numpy as np

from repro.hw.spec import CacheSpec


@dataclass
class CacheStats:
    """Accesses / hits / misses accumulated by a simulation."""

    accesses: int = 0
    hits: int = 0

    @property
    def misses(self) -> int:
        return self.accesses - self.hits

    @property
    def hit_rate(self) -> float:
        """Hit fraction in [0, 1]; 0.0 when no accesses were made."""
        if self.accesses == 0:
            return 0.0
        return self.hits / self.accesses

    def merge(self, other: "CacheStats") -> "CacheStats":
        """Combine two stat records (accesses and hits add)."""
        return CacheStats(
            accesses=self.accesses + other.accesses,
            hits=self.hits + other.hits,
        )


class SetAssociativeCache:
    """An LRU set-associative cache operating on byte addresses.

    Only tags are tracked (no data), which is all that hit-rate
    simulation needs.  LRU is implemented with per-set dicts relying on
    Python's insertion-ordered dictionaries: re-inserting a key moves it
    to MRU position.
    """

    def __init__(self, spec: CacheSpec):
        self.spec = spec
        self._accesses = 0
        self._hits = 0
        # One ordered dict of {tag: None} per set, least recent first.
        self._sets: list[dict[int, None]] = [
            {} for _ in range(spec.num_sets)
        ]

    @property
    def stats(self) -> CacheStats:
        """Counters accumulated since the last reset/clear."""
        return CacheStats(accesses=self._accesses, hits=self._hits)

    def reset(self) -> None:
        """Clear contents and statistics."""
        self._accesses = 0
        self._hits = 0
        for entry in self._sets:
            entry.clear()

    def clear_stats(self) -> None:
        """Zero the counters but keep cached lines (for warm-up phases)."""
        self._accesses = 0
        self._hits = 0

    def access(self, address: int) -> bool:
        """Access one byte address; returns True on hit."""
        return bool(self.replay((address,))[0])

    def replay(self, addresses: Sequence[int] | np.ndarray) -> np.ndarray:
        """Access a stream of byte addresses in order.

        Returns one bool hit flag per access, in stream order.  The
        counters advance by the stream's accesses and hits.
        """
        lines = np.asarray(addresses, dtype=np.int64) // self.spec.line_bytes
        tags, indices = np.divmod(lines, self.spec.num_sets)
        hits = bytearray(len(lines))
        sets = self._sets
        ways = self.spec.associativity
        # The only per-access Python loop: locals and operators only.
        for position, tag, index in zip(
            range(len(lines)), tags.tolist(), indices.tolist()
        ):
            entries = sets[index]
            if tag in entries:
                # Hit: re-inserted below, which refreshes LRU position.
                del entries[tag]
                hits[position] = 1
            elif len(entries) >= ways:
                # Evict LRU (first inserted).
                del entries[next(iter(entries))]
            entries[tag] = None
        flags = np.frombuffer(hits, dtype=bool)
        self._accesses += len(flags)
        self._hits += int(np.count_nonzero(flags))
        return flags


@dataclass
class HierarchyStats:
    """Per-level statistics of one hierarchy replay."""

    l1: CacheStats = field(default_factory=CacheStats)
    l2: CacheStats = field(default_factory=CacheStats)


class CacheHierarchy:
    """Per-SM L1s backed by one shared L2 (LRU, no prefetch).

    L2 sees only L1 misses, which mirrors how Nsight Compute reports
    hit rates: the L2 hit rate is computed over the requests that reach
    L2.  The hierarchy is non-inclusive: an L2 eviction leaves L1
    copies in place.  An L1's contents therefore depend only on its own
    SM's accesses, so :meth:`replay` runs each L1 over its SM's
    accesses and then the L2 over the L1 misses in stream order, which
    gives exactly the counts of interleaving the levels access by
    access.
    """

    def __init__(
        self, l1_spec: CacheSpec, l2_spec: CacheSpec, num_sms: int = 1
    ):
        if num_sms < 1:
            raise ValueError(f"num_sms must be >= 1, got {num_sms!r}")
        self.l1s = [SetAssociativeCache(l1_spec) for _ in range(num_sms)]
        self.l2 = SetAssociativeCache(l2_spec)

    def replay(
        self,
        addresses: Sequence[int] | np.ndarray,
        sms: Sequence[int] | np.ndarray | None = None,
    ) -> HierarchyStats:
        """Replay a stream and return per-level stats for the stream.

        ``sms[i]`` is the SM that issues ``addresses[i]`` (SM 0 for
        every access when omitted).
        """
        addresses = np.asarray(addresses, dtype=np.int64)
        if sms is None:
            sms = np.zeros(len(addresses), dtype=np.int64)
        sms = np.asarray(sms, dtype=np.int64)
        if sms.shape != addresses.shape:
            raise ValueError(
                f"got {len(sms)} SM ids for {len(addresses)} addresses"
            )
        if sms.size and (sms.min() < 0 or sms.max() >= len(self.l1s)):
            raise ValueError(
                f"SM ids must be in range({len(self.l1s)}), got "
                f"{sms.min()}..{sms.max()}"
            )
        l1_hits = np.zeros(len(addresses), dtype=bool)
        for sm, l1 in enumerate(self.l1s):
            mine = sms == sm
            l1_hits[mine] = l1.replay(addresses[mine])
        l2_hits = self.l2.replay(addresses[~l1_hits])
        return HierarchyStats(
            l1=CacheStats(len(l1_hits), int(np.count_nonzero(l1_hits))),
            l2=CacheStats(len(l2_hits), int(np.count_nonzero(l2_hits))),
        )
