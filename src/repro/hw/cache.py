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

Replays take whole streams and run as array operations, with no loop
per access.  They rest on LRU's stack property (Mattson et al., 1970):
an access hits exactly when fewer than ``ways`` distinct lines of its
set were touched since that line's previous use.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Sequence

import numpy as np

from repro.hw.spec import CacheSpec

# Window cells one counting round of a replay may examine at once: it
# bounds the round's temporary arrays.
_ROUND_CELLS = 1 << 18


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


def _addresses(addresses: Sequence[int] | np.ndarray) -> np.ndarray:
    """``addresses`` as an int64 array; negative addresses are rejected."""
    addresses = np.asarray(addresses, dtype=np.int64)
    if addresses.size and addresses.min() < 0:
        raise ValueError(
            f"addresses must be >= 0, got {addresses.min()!r}"
        )
    return addresses


def _lru_hits(previous: np.ndarray, ways: int) -> np.ndarray:
    """LRU hit flags of accesses listed set by set, each set's in
    stream order; ``previous[i]`` is the place in that list of access
    ``i``'s previous use of its line, or -1.

    An access hits when fewer than ``ways`` distinct lines lie between
    it and its previous use.  Fewer than ``ways`` accesses in between
    settle that at once; otherwise the distinct lines are counted as the
    window positions whose own previous use lies before the window, in
    rounds of growing length, until the count reaches ``ways``.
    """
    position = np.arange(len(previous))
    seen = previous >= 0
    gap = position - previous - 1
    hits = seen & (gap < ways)
    end = np.flatnonzero(seen & ~hits)
    before = previous[end]
    distinct = np.zeros(len(end), dtype=np.int64)
    counted = 0
    width = ways
    while len(end):
        step = min(width, max(1, _ROUND_CELLS // len(end)))
        window = before[:, None] + 1 + counted + np.arange(step)
        inside = window < end[:, None]
        first = previous[np.minimum(window, end[:, None])] < before[:, None]
        distinct += np.count_nonzero(inside & first, axis=1)
        counted += step
        full = distinct >= ways
        settled = full | (before + 1 + counted >= end)
        hits[end[settled & ~full]] = True
        end, before, distinct = (
            end[~settled], before[~settled], distinct[~settled]
        )
        width *= 2
    return hits


class SetAssociativeCache:
    """An LRU set-associative cache operating on byte addresses.

    Only tags are tracked (no data), which is all that hit-rate
    simulation needs.  The state is one ``(num_sets, ways)`` tag array,
    each set's resident lines least recently used first, with ``-1``
    marking an empty way.
    """

    def __init__(self, spec: CacheSpec):
        self.spec = spec
        self._accesses = 0
        self._hits = 0
        self._tags = np.full(
            (spec.num_sets, spec.associativity), -1, dtype=np.int64
        )

    @property
    def stats(self) -> CacheStats:
        """Counters accumulated since the last reset/clear."""
        return CacheStats(accesses=self._accesses, hits=self._hits)

    def reset(self) -> None:
        """Clear contents and statistics."""
        self._accesses = 0
        self._hits = 0
        self._tags.fill(-1)

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

        Raises:
            ValueError: when an address is negative.
        """
        lines = _addresses(addresses) // self.spec.line_bytes
        num_sets = self.spec.num_sets
        ways = self.spec.associativity
        sets = lines % num_sets
        touched = np.flatnonzero(np.bincount(sets, minlength=num_sets))
        # The touched sets' resident lines enter first, LRU to MRU:
        # replayed into empty sets, they rebuild the current state.
        resident = self._tags[touched]
        held = resident >= 0
        stream = np.concatenate(
            ((resident * num_sets + touched[:, None])[held], lines)
        )
        sets = np.concatenate(
            (np.broadcast_to(touched[:, None], held.shape)[held], sets)
        )
        # ``order`` lists the accesses set by set, each set's in stream
        # order (narrow keys sort by radix); ``rank`` is each access's
        # place in that list.
        order = np.argsort(
            sets.astype(np.min_scalar_type(num_sets - 1)), kind="stable"
        )
        rank = np.empty_like(order)
        rank[order] = np.arange(len(order))
        # Link each access to the previous access of its line, both as
        # places in ``order``.
        by_line = np.argsort(stream, kind="stable")
        sorted_lines = stream[by_line]
        same = sorted_lines[1:] == sorted_lines[:-1]
        previous = np.full(len(stream), -1, dtype=np.int64)
        previous[rank[by_line[1:][same]]] = rank[by_line[:-1][same]]
        flags = _lru_hits(previous, ways)[rank[len(stream) - len(lines):]]
        # Each touched set keeps its last ``ways`` distinct lines, the
        # most recent in the last way.
        last = np.ones(len(stream), dtype=bool)
        last[previous[previous >= 0]] = False
        kept = order[last]
        kept, sets = stream[kept], sets[kept]
        run_end = np.cumsum(np.bincount(sets, minlength=num_sets))[sets]
        column = np.arange(len(kept)) + ways - run_end
        fits = column >= 0
        self._tags[touched] = -1
        self._tags[sets[fits], column[fits]] = kept[fits] // num_sets
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

        Raises:
            ValueError: when an address is negative, or the SM ids do
                not match the addresses or name no SM.
        """
        addresses = _addresses(addresses)
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
