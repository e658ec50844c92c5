"""Execution traces.

A :class:`Trace` is the analog of a PyTorch Profiler timeline: an ordered
list of kernel-level :class:`TraceEvent` records, each carrying the
operator that launched it, the module path that emitted it (the paper's
forward-hook annotations), and the cost-model estimate of its execution.
It stores replayed module calls as single runs and builds their events
only when they are read.
"""

from __future__ import annotations

import math
import operator
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Callable, Iterable, Iterator, NamedTuple

from repro.ir.ops import Op, OpCategory

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.ir.memo import Segment
    from repro.kernels.estimator import CostEstimator

# Op categories by integer code: per-row totals index a list by code
# instead of updating a dict keyed by member.
CATEGORIES = tuple(OpCategory)
CATEGORY_CODES = {category: code for code, category in enumerate(CATEGORIES)}


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


# One event without its index and start: ``(path, op, cost, flags,
# repeat)``, the form of :meth:`Trace.rows` and of segment rows (whose
# paths are relative).
Row = tuple[str, Op, KernelCost, frozenset[str], int]

# The cost of a segment row.
_ROW_COST = operator.itemgetter(2)


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


class Replay(NamedTuple):
    """A replayed module call, stored as one run of a :class:`Trace`.

    Its events are the segment's rows with each relative path prefixed
    by ``base`` and each start the clock advanced left to right from
    ``start_s`` over the rows before it.
    """

    segment: "Segment"
    base: str
    start_s: float


class Trace:
    """An ordered collection of trace events with query helpers.

    A trace is stored as an append-only list of *runs*: each run is
    either a :class:`TraceEvent` the context emitted, or a
    :class:`Replay` of a recorded module call (a
    :class:`repro.ir.memo.Segment`).  Most of a generation trace is
    replay — a UNet per denoising step — so a replay costs one appended
    run, not one event per recorded row.

    :attr:`events` is the one public way to read events.  It is built
    on first read and extended after later appends; the readers that
    need no event objects — ``len``, the totals, :meth:`time_by_category`,
    :meth:`times_s` and :meth:`rows` — read the runs directly.
    Aggregates are memoized against the event count: traces only ever
    grow, so a length-guarded memo is exact.
    """

    def __init__(self, events: Iterable[TraceEvent] | None = None):
        self._runs: list[TraceEvent | Replay] = (
            list(events) if events is not None else []
        )
        self._count = len(self._runs)
        self._events: list[TraceEvent] = []
        self._built = 0
        self._agg: dict[str, tuple[int, object]] = {}
        self.priced_from: Trace | None = None  # see :meth:`priced`

    def append(self, event: TraceEvent) -> None:
        """Append one emitted event."""
        self._runs.append(event)
        self._count += 1

    def append_replay(
        self, segment: "Segment", base: str, start_s: float
    ) -> None:
        """Append a replayed segment whose rows re-root under ``base``."""
        if segment.rows:
            self._runs.append(Replay(segment, base, start_s))
            self._count += len(segment.rows)

    def priced(self, estimator: "CostEstimator") -> "Trace":
        """The trace the model records under ``estimator`` (no model
        reads a cost): each row costs ``estimate(op).scaled(repeat)``,
        and the clock advances left to right as ``ExecutionContext``'s
        ``emit`` and ``replay_segment`` advance it.  Each distinct
        segment, and each op per fold factor, is priced once.
        """
        costs: dict[tuple[Op, int], KernelCost] = {}

        def price(op: Op, repeat: int) -> KernelCost:
            key = (op, repeat)
            if key not in costs:
                costs[key] = estimator.estimate(op).scaled(repeat)
            return costs[key]

        segments: dict["Segment", "Segment"] = {}
        trace = Trace()
        runs, clock = trace._runs, 0.0
        for run in self._runs:
            if type(run) is TraceEvent:
                cost = price(run.op, run.repeat)
                runs.append(
                    TraceEvent(
                        run.index, run.module_path, run.op, cost, clock,
                        run.flags, run.repeat,
                    )
                )
                clock += cost.time_s
                continue
            segment = segments.get(run.segment)
            if segment is None:
                segment = segments[run.segment] = run.segment.priced(price)
            runs.append(Replay(segment, run.base, clock))
            for time_s in segment.times:
                clock += time_s
        trace._count, trace.priced_from = self._count, self
        return trace

    def mark(self) -> int:
        """Position after the last run, for :meth:`runs_since`."""
        return len(self._runs)

    def runs_since(self, mark: int) -> list[TraceEvent | Replay]:
        """The runs appended since :meth:`mark` returned ``mark``."""
        return self._runs[mark:]

    @property
    def events(self) -> list[TraceEvent]:
        """Every event in trace order (read-only; built on first read).

        A replayed row becomes an event indexed by its position, with
        its path re-rooted and its start the replay's clock advanced
        left to right over the rows before it — exactly the event
        re-running the module would have emitted.
        """
        runs = self._runs
        if self._built < len(runs):
            events = self._events
            append = events.append
            event_cls = TraceEvent
            for run in runs[self._built:]:
                if type(run) is event_cls:
                    append(run)
                    continue
                segment, base, clock = run
                index = len(events)
                for (rel_path, op, cost, flags, repeat), time_s in zip(
                    segment.rows, segment.times
                ):
                    append(
                        event_cls(
                            index, base + rel_path, op, cost, clock, flags,
                            repeat,
                        )
                    )
                    clock += time_s
                    index += 1
            self._built = len(runs)
        return self._events

    def _aggregate(self, key: str, compute: Callable[[], object]) -> object:
        """Value of one aggregate, recomputed only when events grew."""
        entry = self._agg.get(key)
        count = self._count
        if entry is not None and entry[0] == count:
            return entry[1]
        value = compute()
        self._agg[key] = (count, value)
        return value

    def __iter__(self) -> Iterator[TraceEvent]:
        return iter(self.events)

    def __len__(self) -> int:
        return self._count

    def _totals(self) -> tuple[float, float, float]:
        """(time, FLOPs, moved bytes), each added strictly left to right.

        A plain loop, not ``sum()``: from Python 3.12 ``sum()`` of
        floats is compensated, while the trace's own clock, the
        distributed timelines and the planner's prefix sums all add
        left to right, and the totals must equal them on every
        interpreter.  Replayed rows are added one by one, never as a
        per-segment subtotal, which would reassociate the additions.
        """

        def compute() -> tuple[float, float, float]:
            time_s = flops = moved = 0.0
            for run in self._runs:
                if type(run) is TraceEvent:
                    costs = (run.cost,)
                else:
                    costs = map(_ROW_COST, run.segment.rows)
                for cost in costs:
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

    def times_s(self) -> list[float]:
        """Every event's ``cost.time_s``, in trace order."""
        times: list[float] = []
        for run in self._runs:
            if type(run) is TraceEvent:
                times.append(run.cost.time_s)
            else:
                times.extend(run.segment.times)
        return times

    def filter(self, predicate: Callable[[TraceEvent], bool]) -> "Trace":
        """New trace holding only the events the predicate accepts."""
        return Trace([event for event in self.events if predicate(event)])

    def attention_anchors(self) -> list[TraceEvent]:
        """One event per attention-layer invocation (see anchor flag).

        Builds only the replayed anchors, each with the index and start
        it has in :attr:`events`; emitted anchors are returned as is.
        """
        anchors: list[TraceEvent] = []
        index = 0
        for run in self._runs:
            if type(run) is TraceEvent:
                if run.is_attention_anchor:
                    anchors.append(run)
                index += 1
                continue
            segment, base, clock = run
            for (rel_path, op, cost, flags, repeat), time_s in zip(
                segment.rows, segment.times
            ):
                if "attention_anchor" in flags:
                    anchors.append(
                        TraceEvent(
                            index, base + rel_path, op, cost, clock, flags,
                            repeat,
                        )
                    )
                clock += time_s
                index += 1
        return anchors

    def rows(self) -> Iterator[Row]:
        """``(module path, op, cost, flags, repeat)`` of every event, in
        trace order, without building events: for readers that need
        neither an event's index nor its start time."""
        return self._rows(0, len(self._runs))

    def _rows(self, start: int, stop: int) -> Iterator[Row]:
        """:meth:`rows` of the runs at positions ``start:stop``."""
        for run in self._runs[start:stop]:
            if type(run) is TraceEvent:
                yield run.module_path, run.op, run.cost, run.flags, run.repeat
            else:
                base = run.base
                for rel_path, op, cost, flags, repeat in run.segment.rows:
                    yield base + rel_path, op, cost, flags, repeat

    def row_runs(self) -> Iterator[tuple["Segment | None", Iterator[Row]]]:
        """:meth:`rows` in consecutive parts, each with its segment or None.

        Each replay whose *root* (its base path plus the segment's
        ``root``) is closed is a part of its own, paired with its
        segment: exactly one run has that root, no emitted event lies
        at or under it, and no other replay's root lies above or below
        it.  Its rows are then the only rows of the trace at or under
        the root, so a reader keyed by module path can take them from
        the segment's relative rows alone.  The runs between two such
        replays form one part paired with ``None``.  Rows are re-rooted
        only when a part is iterated.
        """
        start = 0
        for position in self._closed_replays():
            if start < position:
                yield None, self._rows(start, position)
            yield self._runs[position].segment, self._rows(
                position, position + 1
            )
            start = position + 1
        if start < len(self._runs):
            yield None, self._rows(start, len(self._runs))

    def _closed_replays(self) -> list[int]:
        """Run positions of the replays whose roots are closed, in order."""

        def compute() -> list[int]:
            # Every emitted path and each of its ancestors; a touched
            # path's ancestors are all touched, so the walk stops early.
            touched: set[str] = set()
            # Root -> position of its one replay, or -1 once shared.
            roots: dict[str, int] = {}
            for position, run in enumerate(self._runs):
                if type(run) is TraceEvent:
                    path = run.module_path
                    while path not in touched:
                        touched.add(path)
                        cut = path.rfind(".")
                        if cut < 0:
                            break
                        path = path[:cut]
                else:
                    root = run.base + run.segment.root
                    roots[root] = -1 if root in roots else position
            # Two nested roots are both open: the outer replay's rows
            # may lie under the inner root.
            nested: set[str] = set()
            for root in roots:
                cut = root.rfind(".")
                while cut >= 0:
                    ancestor = root[:cut]
                    if ancestor in roots:
                        nested.update((root, ancestor))
                        break
                    cut = ancestor.rfind(".")
            return sorted(
                position
                for root, position in roots.items()
                if position >= 0
                and root not in touched
                and root not in nested
            )

        return self._aggregate("closed", compute)

    def time_by_category(self) -> dict[OpCategory, float]:
        """Execution time grouped by operator category (Figure 6 bars).

        Each category's rows add left to right in trace order, and the
        keys come in the order their categories first appear.
        """

        def compute() -> dict[OpCategory, float]:
            totals = [0.0] * len(CATEGORIES)
            seen: dict[int, None] = {}
            for run in self._runs:
                if type(run) is TraceEvent:
                    codes = (CATEGORY_CODES[run.op.category],)
                    times = (run.cost.time_s,)
                else:
                    codes = run.segment.category_codes()
                    times = run.segment.times
                seen.update(dict.fromkeys(codes))
                for code, time_s in zip(codes, times):
                    totals[code] += time_s
            return {CATEGORIES[code]: totals[code] for code in seen}

        return dict(self._aggregate("by_category", compute))
