"""Execution traces.

A :class:`Trace` is the analog of a PyTorch Profiler timeline: an ordered
list of kernel-level :class:`TraceEvent` records, each carrying the
operator that launched it, the module path that emitted it (the paper's
forward-hook annotations), and the cost-model estimate of its execution.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable, Iterable, Iterator

from repro.ir.ops import Op, OpCategory


@dataclass(frozen=True)
class KernelCost:
    """Cost-model output for one kernel launch.

    Attributes:
        time_s: total wall time including launch overhead.
        compute_time_s: time if purely bound by arithmetic throughput.
        memory_time_s: time if purely bound by memory traffic.
        launch_time_s: fixed launch/scheduling overhead.
        flops: floating-point operations executed.
        moved_bytes: bytes moved through the bounding memory level.
        limiter: ``"compute"``, ``"memory"`` or ``"launch"``.
    """

    time_s: float
    compute_time_s: float
    memory_time_s: float
    launch_time_s: float
    flops: float
    moved_bytes: float
    limiter: str

    def __post_init__(self) -> None:
        if not 0.0 <= self.time_s < math.inf:
            raise ValueError(
                f"kernel time must be finite and >= 0, got {self.time_s!r}"
            )

    def scaled(self, factor: int) -> "KernelCost":
        """Cost of launching this kernel ``factor`` times back to back.

        Used to fold long repetitive loops (autoregressive decode steps)
        into bucketed trace events without emitting every iteration.
        """
        if factor < 1:
            raise ValueError("scale factor must be >= 1")
        if factor == 1:
            return self
        return KernelCost(
            time_s=self.time_s * factor,
            compute_time_s=self.compute_time_s * factor,
            memory_time_s=self.memory_time_s * factor,
            launch_time_s=self.launch_time_s * factor,
            flops=self.flops * factor,
            moved_bytes=self.moved_bytes * factor,
            limiter=self.limiter,
        )


def combine_costs(costs: Iterable[KernelCost]) -> KernelCost:
    """Sum a sequence of kernel costs into one aggregate record."""
    total = compute = memory = launch = flops = moved = 0.0
    for cost in costs:
        total += cost.time_s
        compute += cost.compute_time_s
        memory += cost.memory_time_s
        launch += cost.launch_time_s
        flops += cost.flops
        moved += cost.moved_bytes
    limiter = "compute" if compute >= memory else "memory"
    return KernelCost(
        time_s=total,
        compute_time_s=compute,
        memory_time_s=memory,
        launch_time_s=launch,
        flops=flops,
        moved_bytes=moved,
        limiter=limiter,
    )


@dataclass(frozen=True)
class TraceEvent:
    """One kernel launch in the timeline.

    ``repeat`` is the event's fold factor: the number of identical
    back-to-back launches it stands for (``repeat_scope`` folds decode
    loops into one event), already applied to ``cost``.
    """

    index: int
    module_path: str
    op: Op
    cost: KernelCost
    start_s: float
    flags: frozenset[str] = field(default_factory=frozenset)
    repeat: int = 1

    @property
    def category(self) -> OpCategory:
        return self.op.category

    @property
    def end_s(self) -> float:
        return self.start_s + self.cost.time_s

    @property
    def is_attention_anchor(self) -> bool:
        """True for exactly one event per attention-layer invocation.

        Sequence-length profiles (Figure 7) count attention *calls*, not
        kernels; baseline attention lowers to several kernels so only the
        first is flagged as the anchor.
        """
        return "attention_anchor" in self.flags


class Trace:
    """An ordered collection of trace events with query helpers.

    Aggregate queries (totals, per-category times) are memoized against
    the current event count: experiments ask for the same totals of the
    same shared profile traces dozens of times, and traces only ever
    grow (events are appended while a model runs, never edited), so a
    length-guarded memo is exact.
    """

    def __init__(self, events: list[TraceEvent] | None = None):
        self.events: list[TraceEvent] = events if events is not None else []
        self._agg: dict[str, tuple[int, object]] = {}

    def _aggregate(self, key: str, compute: Callable[[], object]) -> object:
        """Value of one aggregate, recomputed only when events grew."""
        entry = self._agg.get(key)
        count = len(self.events)
        if entry is not None and entry[0] == count:
            return entry[1]
        value = compute()
        self._agg[key] = (count, value)
        return value

    def __iter__(self) -> Iterator[TraceEvent]:
        return iter(self.events)

    def __len__(self) -> int:
        return len(self.events)

    def _totals(self) -> tuple[float, float, float]:
        """(time, FLOPs, moved bytes), each added strictly left to right.

        A plain loop, not ``sum()``: from Python 3.12 ``sum()`` of
        floats is compensated, while the trace's own clock, the
        distributed timelines and the planner's prefix sums all add
        left to right, and the totals must equal them on every
        interpreter.
        """

        def compute() -> tuple[float, float, float]:
            time_s = flops = moved = 0.0
            for event in self.events:
                cost = event.cost
                time_s += cost.time_s
                flops += cost.flops
                moved += cost.moved_bytes
            return time_s, flops, moved

        return self._aggregate("totals", compute)

    @property
    def total_time_s(self) -> float:
        return self._totals()[0]

    @property
    def total_flops(self) -> float:
        return self._totals()[1]

    @property
    def total_moved_bytes(self) -> float:
        return self._totals()[2]

    def filter(self, predicate: Callable[[TraceEvent], bool]) -> "Trace":
        """New trace holding only the events the predicate accepts."""
        return Trace([event for event in self.events if predicate(event)])

    def by_category(self, category: OpCategory) -> "Trace":
        """Events of one operator category."""
        return self.filter(lambda event: event.category is category)

    def under_module(self, path_prefix: str) -> "Trace":
        """Events emitted by a module subtree (path prefix match)."""
        return self.filter(
            lambda event: event.module_path == path_prefix
            or event.module_path.startswith(path_prefix + ".")
        )

    def attention_anchors(self) -> list[TraceEvent]:
        """One event per attention-layer invocation (see anchor flag)."""
        return [event for event in self.events if event.is_attention_anchor]

    def time_by_category(self) -> dict[OpCategory, float]:
        """Execution time grouped by operator category (Figure 6 bars)."""

        def compute() -> dict[OpCategory, float]:
            times: dict[OpCategory, float] = {}
            get = times.get
            for event in self.events:
                category = event.op.category
                times[category] = get(category, 0.0) + event.cost.time_s
            return times

        return dict(self._aggregate("by_category", compute))
