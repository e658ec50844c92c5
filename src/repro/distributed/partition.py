"""Graph partitioners: data and tensor parallelism.

Each strategy consumes a single-device :class:`repro.ir.trace.Trace`
(the symbolic operator graph a profiled model emits) and produces a
:class:`DistributedPlan`: per-rank operator shards plus the collectives
the sharding implies, stored once per kernel class with the class of
every source event.  The plan is hardware-free — pricing against a
machine's GPUs and interconnect happens in
:mod:`repro.distributed.timeline`.

**Tensor parallelism** follows Megatron's placement.  Attention is head
parallel: Q/K/V projections are column-split, the scores/softmax/PV
chain is head-split, and the output projection is row-split, yielding
partial sums that one all-reduce per attention call combines.  Other
parameter-bearing layers alternate column/row in first-use order within
their parent module (an MLP's up projection is column-split, its down
projection row-split with an all-reduce; a ResNet block's two convs
likewise).  A scope with an odd number of such layers leaves its last
layer column-parallel, and its output is all-gathered.  All remaining
activation ops are sequence/element split.

**Data parallelism** slices the batch: each rank runs the full graph on
its batch share (ranks beyond the batch size idle).  Inference DP has
no collectives — there are no gradients to reduce.

Pipeline parallelism lives in the planner
(:func:`repro.distributed.planner.split_stages`), which splits a priced
tensor-parallel axis into stages with :func:`split_cumulative`.

Tensor-parallel roles are decided in one place, the per-trace class
table (:func:`trace_classes`): every event maps to one distinct
(op, role, collective, fold factor) class, so a partition or a priced
axis shards and prices each class once.  The table reads the trace's
rows in parts (:meth:`Trace.row_runs`), taking a closed replay's
classes from its segment's own table; the data-parallel partitioner
reads :meth:`Trace.rows`.  No partitioner builds an event.

Every split preserves total FLOPs exactly (see
:mod:`repro.distributed.sharding`), which the partitioner tests verify
against the unsharded trace.
"""

from __future__ import annotations

import weakref
from bisect import bisect_left
from dataclasses import dataclass
from itertools import chain
from typing import Iterable, NamedTuple, Sequence

import numpy as np

from repro.distributed.collectives import CollectiveKind
from repro.distributed.sharding import ShardRole, even_split, shard_op
from repro.ir.memo import Segment
from repro.ir.ops import Op, OpCategory
from repro.ir.trace import Row, Trace
from repro.ordered_sum import ordered_sum


def _parent_scope(path: str) -> str:
    return path.rsplit(".", 1)[0] if "." in path else ""


def _assign_leaf_roles(
    rows: Iterable[Row],
) -> dict[str, tuple[ShardRole, CollectiveKind | None]]:
    """Column/row placement per parameter-bearing module path.

    Roles are assigned on first use so a layer keeps the same split
    in every invocation.  Attention projections use the anchor flag
    to tell inputs (column) from the output projection (row); other
    layers alternate within their parent scope.
    """
    roles: dict[str, tuple[ShardRole, CollectiveKind | None]] = {}
    anchor_seen: dict[str, bool] = {}
    next_is_column: dict[str, bool] = {}
    pending_column: dict[str, str] = {}
    param_memo: dict[Op, bool] = {}
    for leaf, op, _, flags, _ in rows:
        if "attention_anchor" in flags:
            anchor_seen[leaf] = True
        owns = param_memo.get(op)
        if owns is None:
            owns = param_memo[op] = op.param_bytes() > 0
        if not owns:
            continue
        scope = _parent_scope(leaf)
        if op.category is OpCategory.ATTENTION:
            if leaf in roles:
                if roles[leaf][0] is ShardRole.ROW:
                    anchor_seen[scope] = False
            elif anchor_seen.get(scope):
                roles[leaf] = (ShardRole.ROW, CollectiveKind.ALL_REDUCE)
                anchor_seen[scope] = False
            else:
                roles[leaf] = (ShardRole.COLUMN, None)
            continue
        if leaf in roles:
            continue
        if next_is_column.get(scope, True):
            roles[leaf] = (ShardRole.COLUMN, None)
            next_is_column[scope] = False
            pending_column[scope] = leaf
        else:
            roles[leaf] = (ShardRole.ROW, CollectiveKind.ALL_REDUCE)
            next_is_column[scope] = True
            pending_column.pop(scope, None)
    # A scope with an odd number of weight layers leaves its last
    # column-split layer un-paired: its sharded output must be
    # gathered before the (unsharded) consumers that follow.
    for leaf in pending_column.values():
        roles[leaf] = (ShardRole.COLUMN, CollectiveKind.ALL_GATHER)
    return roles


@dataclass(frozen=True, eq=False)
class TraceClasses:
    """The distinct tensor-parallel kernel classes of one trace.

    A class is one (op, shard role, collective kind, fold factor)
    combination: every event of a class shards, prices and sizes
    identically at any tp degree.  Suite traces hold 20-35k events but
    only 78-385 classes, so per-class work followed by an index gather
    replaces per-event work.

    Attributes:
        ops: source operator of each class.
        roles: Megatron placement of each class.
        collectives: collective the class issues after its kernel
            (``None`` for none).
        repeats: fold factor of each class.
        index: class of every trace event, in trace order.
        index_array: ``index`` as an integer array, for array gathers.
    """

    ops: tuple[Op, ...]
    roles: tuple[ShardRole, ...]
    collectives: tuple[CollectiveKind | None, ...]
    repeats: tuple[int, ...]
    index: tuple[int, ...]
    index_array: np.ndarray

    def __len__(self) -> int:
        return len(self.ops)


# One class table per trace: it is structural (a function of the
# trace alone, not of the machine or tp degree), so every partition
# and priced axis of the trace shares it.  Keyed weakly so the table
# dies with the trace.
_CLASS_CACHE: "weakref.WeakKeyDictionary[Trace, TraceClasses]" = (
    weakref.WeakKeyDictionary()
)


def trace_classes(trace: Trace) -> TraceClasses:
    """Class table of ``trace``, cached per trace object.

    The only place tensor-parallel roles are decided: weight ops take
    their module leaf's column/row role, attention math is head-split,
    and every other activation op is sequence-split.

    A replay whose root is closed (:meth:`Trace.row_runs`) takes its
    segment's own table, built once per segment from the segment's
    relative rows by the same role and class passes: every path those
    rules key on lies at or under the root, where no other run reaches.
    The exception is a weight op at the root itself, whose column/row
    pairing belongs to the parent scope; such a replay stays with the
    other runs, whose rows make one role pass and one class pass.  A
    trace priced from another (:meth:`Trace.priced`) takes its table.
    """
    table = _CLASS_CACHE.get(trace)
    if table is None or len(table.index) != len(trace):
        source = trace.priced_from
        shared = source is not None and len(source) == len(trace)
        table = trace_classes(source) if shared else _build_classes(trace)
        _CLASS_CACHE[trace] = table
    return table


# Activation ops' (role, collective) pairs; a weight op takes its leaf's.
_HEAD = (ShardRole.HEAD, None)
_SEQUENCE = (ShardRole.SEQUENCE, None)


class _ClassIndex:
    """Classes in first-appearance order and the class of every row.

    A class key is (op, (role, collective) pair, fold factor).
    """

    def __init__(
        self, roles: dict[str, tuple[ShardRole, CollectiveKind | None]]
    ) -> None:
        self._roles = roles
        # Op -> its pair, or False for a weight op.
        self._op_pairs: dict[Op, tuple | bool] = {}
        self._classes: dict[tuple, int] = {}
        self.ops: list[Op] = []
        self.pairs: list[tuple[ShardRole, CollectiveKind | None]] = []
        self.repeats: list[int] = []
        self.index: list[int] = []

    def _class_of(self, op: Op, pair: tuple, repeat: int) -> int:
        key = (op, pair, repeat)
        cls = self._classes.get(key)
        if cls is None:
            cls = self._classes[key] = len(self.ops)
            self.ops.append(op)
            self.pairs.append(pair)
            self.repeats.append(repeat)
        return cls

    def add_rows(self, rows: Iterable[Row]) -> None:
        """Append the class of every row."""
        op_pairs = self._op_pairs
        roles = self._roles
        classes = self._classes
        class_of = self._class_of
        append = self.index.append
        for path, op, _, _, repeat in rows:
            pair = op_pairs.get(op)
            if pair is None:
                pair = op_pairs[op] = (
                    False if op.param_bytes() > 0
                    else _HEAD if op.category is OpCategory.ATTENTION
                    else _SEQUENCE
                )
            if pair is False:
                pair = roles[path]
            cls = classes.get((op, pair, repeat))
            append(class_of(op, pair, repeat) if cls is None else cls)

    def add_table(self, other: "_ClassIndex") -> list[int]:
        """This index's class of each of ``other``'s rows, in order.

        ``other`` holds rows that follow every row added so far; its
        classes are added in its first-appearance order, which is the
        order a pass over those rows would add them in.
        """
        mapped = [
            self._class_of(op, pair, repeat)
            for op, pair, repeat in zip(other.ops, other.pairs, other.repeats)
        ]
        return [mapped[cls] for cls in other.index]

    def table(self) -> TraceClasses:
        return TraceClasses(
            ops=tuple(self.ops),
            roles=tuple(role for role, _ in self.pairs),
            collectives=tuple(kind for _, kind in self.pairs),
            repeats=tuple(self.repeats),
            index=tuple(self.index),
            index_array=np.array(self.index, dtype=np.intp),
        )


def _segment_classes(segment: Segment) -> _ClassIndex | None:
    """Classes of a segment's relative rows; ``None`` when a weight op
    sits at the segment's root."""
    root = segment.root
    rows = segment.rows
    if any(
        path == root and op.param_bytes() > 0 for path, op, _, _, _ in rows
    ):
        return None
    classes = _ClassIndex(_assign_leaf_roles(rows))
    classes.add_rows(rows)
    return classes


def _build_classes(trace: Trace) -> TraceClasses:
    own: dict[int, _ClassIndex | None] = {}

    def own_classes(segment: Segment | None) -> _ClassIndex | None:
        if segment is None:
            return None
        if id(segment) not in own:
            own[id(segment)] = _segment_classes(segment)
        return own[id(segment)]

    classes = _ClassIndex(
        _assign_leaf_roles(
            chain.from_iterable(
                rows
                for segment, rows in trace.row_runs()
                if own_classes(segment) is None
            )
        )
    )
    # Each segment's rows mapped to this trace's classes, on its first
    # closed replay; later replays of it extend the index by the same.
    mapped: dict[int, list[int]] = {}
    for segment, rows in trace.row_runs():
        segment_classes = own_classes(segment)
        if segment_classes is None:
            classes.add_rows(rows)
            continue
        index = mapped.get(id(segment))
        if index is None:
            index = mapped[id(segment)] = classes.add_table(segment_classes)
        classes.index.extend(index)
    return classes.table()


def split_cumulative(cumulative: Sequence[float], stages: int) -> list[int]:
    """End index (exclusive) of each of the first ``stages - 1`` stages.

    ``cumulative`` is the running left-to-right sum of non-negative
    per-event weights.  Stage ``s`` closes at the first event whose
    running weight reaches ``s / stages`` of the total, or at the last
    event that still leaves one event for every later stage, and never
    before the event after the previous close.  Every stage therefore
    owns at least one event.  The weights are non-negative, so the
    running sum is sorted and each close is one bisection: the split
    costs ``O(stages log n)``, not a pass over the events.
    """
    n = len(cumulative)
    if stages > n:
        raise ValueError("more stages than events")
    total = float(cumulative[-1])
    boundaries: list[int] = []
    start = 0
    for target in range(1, stages):
        index = bisect_left(cumulative, total * target / stages, start)
        # Last index that still leaves one event per remaining stage:
        # close there at the latest, or starve every stage after it.
        index = min(index, n - 1 - (stages - target))
        boundaries.append(index + 1)
        start = index + 1
    return boundaries


@dataclass(frozen=True)
class CommSpec:
    """One collective the sharded graph requires after an event.

    Attributes:
        kind: which collective.
        payload_bytes: logical tensor size communicated per issue.
        label: short description for timelines (e.g. ``"ar:attn_out"``).
    """

    kind: CollectiveKind
    payload_bytes: float
    label: str


class PlanClass(NamedTuple):
    """One distinct kind of sharded event in a :class:`DistributedPlan`.

    Every source event of a class shards and communicates identically,
    so a class is sharded and priced once.

    Attributes:
        role: how the split was chosen.
        ops: per-rank operator shards (``None`` = rank idle).
        comm: collective required after each event, if any.
        repeat: fold factor of the class' source events.
    """

    role: ShardRole
    ops: tuple[Op | None, ...]
    comm: CommSpec | None
    repeat: int


@dataclass
class DistributedPlan:
    """A sharded operator graph, ready to be priced on a machine.

    Stored by class: ``classes`` holds one row per distinct (role,
    shards, collective, fold factor) and ``index`` the class of
    every source event, in trace order.  Suite traces hold 20-35k
    events but a few hundred classes, so nothing here is per event but
    the index.
    """

    strategy: str
    world: int
    source: Trace
    classes: tuple[PlanClass, ...]
    index: Sequence[int]

    def flops_per_rank(self) -> list[float]:
        """Total FLOPs each rank executes (folded loops included)."""
        totals = [0.0] * self.world
        class_flops = [
            [
                (rank, op.flops() * cls.repeat)
                for rank, op in enumerate(cls.ops)
                if op is not None
            ]
            for cls in self.classes
        ]
        for cls in self.index:
            for rank, flops in class_flops[cls]:
                totals[rank] += flops
        return totals

    def total_flops(self) -> float:
        """FLOPs summed over every rank (invariant: == source total)."""
        return ordered_sum(self.flops_per_rank())

    def comm_payload_bytes(self) -> float:
        """Logical bytes entering collectives across the whole plan."""
        payloads = [
            cls.comm.payload_bytes * cls.repeat
            if cls.comm is not None else None
            for cls in self.classes
        ]
        return ordered_sum(
            payloads[cls] for cls in self.index if payloads[cls] is not None
        )

    def collective_counts(self) -> dict[CollectiveKind, int]:
        """Number of collective issues by kind (folded loops included)."""
        counts: dict[CollectiveKind, int] = {}
        classes = self.classes
        for cls in self.index:
            comm, repeat = classes[cls].comm, classes[cls].repeat
            if comm is not None:
                counts[comm.kind] = counts.get(comm.kind, 0) + repeat
        return counts


class PartitionStrategy:
    """Base class: a named way of splitting a trace over ``world`` ranks."""

    name = "base"

    def __init__(self, world: int):
        if world < 1:
            raise ValueError("world size must be >= 1")
        self.world = world

    def partition(self, trace: Trace) -> DistributedPlan:
        """Shard ``trace`` into a :class:`DistributedPlan`."""
        raise NotImplementedError

    def describe(self) -> str:
        """Human-readable strategy label, e.g. ``"tp=4"``."""
        return f"{self.name}={self.world}"


class TensorParallel(PartitionStrategy):
    """Megatron-style tensor parallelism over the whole graph."""

    name = "tp"

    def partition(self, trace: Trace) -> DistributedPlan:
        """Shard every event; emit the implied all-reduce/all-gathers.

        The plan's classes and index are those of
        :func:`trace_classes`: each class is sharded once.
        """
        table = trace_classes(trace)
        weights = [1] * self.world
        world_gt1 = self.world > 1
        shard_memo: dict[tuple[Op, ShardRole], tuple[Op | None, ...]] = {}
        classes: list[PlanClass] = []
        for op, role, kind, repeat in zip(
            table.ops, table.roles, table.collectives, table.repeats
        ):
            shards = shard_memo.get((op, role))
            if shards is None:
                shards = tuple(shard_op(op, role, weights))
                shard_memo[(op, role)] = shards
            comm = None
            if kind is not None and world_gt1:
                short = "ar" if kind is CollectiveKind.ALL_REDUCE else "ag"
                comm = CommSpec(
                    kind=kind,
                    payload_bytes=op.write_bytes(),
                    label=f"{short}:{op.name}",
                )
            classes.append(PlanClass(role, shards, comm, repeat))
        return DistributedPlan(
            strategy=self.describe(),
            world=self.world,
            source=trace,
            classes=tuple(classes),
            index=table.index,
        )


class DataParallel(PartitionStrategy):
    """Batch slicing across replicas (inference: no collectives)."""

    name = "dp"

    def __init__(self, world: int, batch: int = 1):
        super().__init__(world)
        if batch < 1:
            raise ValueError("batch must be >= 1")
        self.batch = batch

    def describe(self) -> str:
        """Label including the global batch, e.g. ``"dp=4(batch=8)"``."""
        return f"{self.name}={self.world}(batch={self.batch})"

    def partition(self, trace: Trace) -> DistributedPlan:
        """Slice every event's batch-linear dimension by rank share.

        One class per (op, fold factor), read from the trace's rows.
        """
        weights = even_split(self.batch, self.world)
        batch_role = ShardRole.BATCH
        shard_memo: dict[Op, tuple[Op | None, ...]] = {}
        class_of: dict[tuple[Op, int], int] = {}
        classes: list[PlanClass] = []
        index: list[int] = []
        append = index.append
        for _, op, _, _, repeat in trace.rows():
            key = (op, repeat)
            cls = class_of.get(key)
            if cls is None:
                shards = shard_memo.get(op)
                if shards is None:
                    shards = tuple(shard_op(op, batch_role, weights))
                    shard_memo[op] = shards
                cls = class_of[key] = len(classes)
                classes.append(PlanClass(batch_role, shards, None, repeat))
            append(cls)
        return DistributedPlan(
            strategy=self.describe(),
            world=self.world,
            source=trace,
            classes=tuple(classes),
            index=index,
        )


def strategy_from_name(
    name: str, world: int, *, batch: int = 1
) -> PartitionStrategy:
    """Build a partition strategy from its short name (tp/dp)."""
    if name == "tp":
        return TensorParallel(world)
    if name == "dp":
        return DataParallel(world, batch=batch)
    raise ValueError(f"unknown partition strategy {name!r}; known: tp, dp")
