"""Per-event reference partitioners and timeline builders.

Plans store one row per kernel class and a per-event class index, and
:func:`repro.distributed.timeline.build_timelines` walks that index.
This module keeps the form they replaced: each partitioner builds one
:class:`ShardedEvent` per source event from the built events, and the
builders price and advance every event on its own.  The tests require
the class form to reproduce it float for float.
"""

from __future__ import annotations

from repro.distributed.collectives import CollectiveKind
from repro.distributed.partition import (
    CommSpec,
    DataParallel,
    PartitionStrategy,
    PipelineParallel,
    ShardedEvent,
    TensorParallel,
    stage_boundaries,
    trace_classes,
)
from repro.distributed.registry import MachineSpec
from repro.distributed.sharding import ShardRole, even_split, shard_op
from repro.distributed.timeline import (
    DeviceTimeline,
    DistributedTrace,
    TimelineEntry,
)
from repro.ir.trace import Trace
from repro.kernels.base import DEFAULT_TUNING
from repro.kernels.estimator import CostEstimator


def reference_events(
    strategy: PartitionStrategy, trace: Trace
) -> list[ShardedEvent]:
    """One sharded event per built source event, in trace order."""
    if isinstance(strategy, TensorParallel):
        return _tensor_parallel(strategy.world, trace)
    if isinstance(strategy, DataParallel):
        return _data_parallel(strategy.world, strategy.batch, trace)
    if isinstance(strategy, PipelineParallel):
        return _pipeline_parallel(strategy.world, trace)
    raise TypeError(f"no reference for {type(strategy).__name__}")


def _tensor_parallel(world: int, trace: Trace) -> list[ShardedEvent]:
    table = trace_classes(trace)
    weights = [1] * world
    shard_memo: dict[tuple[int, ShardRole], tuple] = {}
    resolved = []
    for op, role, kind in zip(table.ops, table.roles, table.collectives):
        shards = shard_memo.get((id(op), role))
        if shards is None:
            shards = tuple(shard_op(op, role, weights))
            shard_memo[(id(op), role)] = shards
        comm = None
        if kind is not None and world > 1:
            short = "ar" if kind is CollectiveKind.ALL_REDUCE else "ag"
            comm = CommSpec(
                kind=kind,
                payload_bytes=op.write_bytes(),
                label=f"{short}:{op.name}",
            )
        resolved.append((role, shards, comm, 0))
    return [
        ShardedEvent(event, *resolved[cls])
        for event, cls in zip(trace.events, table.index)
    ]


def _data_parallel(world: int, batch: int, trace: Trace) -> list[ShardedEvent]:
    weights = even_split(batch, world)
    shard_cache: dict[int, tuple] = {}
    sharded = []
    for event in trace.events:
        shards = shard_cache.get(id(event.op))
        if shards is None:
            shards = tuple(shard_op(event.op, ShardRole.BATCH, weights))
            shard_cache[id(event.op)] = shards
        sharded.append(ShardedEvent(event, ShardRole.BATCH, shards, None, 0))
    return sharded


def _pipeline_parallel(world: int, trace: Trace) -> list[ShardedEvent]:
    events = trace.events
    populated = min(world, len(events))
    boundaries = stage_boundaries(
        [event.cost.time_s for event in events], populated
    )
    boundaries += [len(events)] * (world - populated)
    sharded = []
    stage = 0
    for index, event in enumerate(events):
        while stage < world - 1 and index >= boundaries[stage]:
            stage += 1
        ops = [None] * world
        ops[stage] = event.op
        comm = None
        is_stage_end = (
            stage < world - 1
            and index == boundaries[stage] - 1
            and boundaries[stage] < len(events)
        )
        if is_stage_end:
            comm = CommSpec(
                kind=CollectiveKind.SEND_RECV,
                payload_bytes=event.op.write_bytes(),
                label=f"p2p:{event.op.name}",
            )
        sharded.append(
            ShardedEvent(event, ShardRole.SEQUENCE, tuple(ops), comm, stage)
        )
    return sharded


def reference_flops_per_rank(
    world: int, sharded: list[ShardedEvent]
) -> list[float]:
    """FLOPs each rank executes, summed event by event."""
    totals = [0.0] * world
    for event in sharded:
        for rank, op in enumerate(event.ops):
            if op is not None:
                totals[rank] += op.flops() * event.source.repeat
    return totals


def reference_comm_payload_bytes(sharded: list[ShardedEvent]) -> float:
    """Collective payload bytes, summed event by event."""
    return sum(
        event.comm.payload_bytes * event.source.repeat
        for event in sharded
        if event.comm is not None
    )


def reference_collective_counts(
    sharded: list[ShardedEvent],
) -> dict[CollectiveKind, int]:
    """Collective issues by kind, counted event by event."""
    counts: dict[CollectiveKind, int] = {}
    for event in sharded:
        if event.comm is not None:
            counts[event.comm.kind] = (
                counts.get(event.comm.kind, 0) + event.source.repeat
            )
    return counts


def reference_timelines(
    strategy: PartitionStrategy,
    sharded: list[ShardedEvent],
    machine: MachineSpec,
    *,
    overlap: float = 0.0,
) -> DistributedTrace:
    """Price ``sharded`` event by event on ``machine``, with entries.

    Entries are only appended, so the totals are those of a run that
    keeps none.
    """
    estimator = CostEstimator(machine.gpu, DEFAULT_TUNING)
    build = (
        _pipeline if isinstance(strategy, PipelineParallel) else _spmd
    )
    return DistributedTrace(
        strategy=strategy.describe(),
        world=strategy.world,
        machine=machine,
        timelines=build(strategy.world, sharded, machine, estimator, overlap),
        overlap=overlap,
    )


def _spmd(world, sharded, machine, estimator, overlap):
    comm_model = machine.topology.cost_model(world)
    timelines = [DeviceTimeline(rank=rank) for rank in range(world)]
    entries = [timeline.entries for timeline in timelines]
    # Kernel times per shard tuple: the partitioners share one tuple
    # between the events of a class, and the estimator would hash every
    # op by value.
    tuple_times: dict[int, list[tuple[int, str, float]]] = {}
    compute = [0.0] * world
    clocks = [0.0] * world
    comm_s = 0.0
    exposed_s = 0.0
    for source, _, ops, comm, _ in sharded:
        repeat = source.repeat
        shards = tuple_times.get(id(ops))
        if shards is None:
            shards = tuple_times[id(ops)] = [
                (rank, op.name, estimator.estimate(op).time_s)
                for rank, op in enumerate(ops)
                if op is not None
            ]
        for rank, name, base_s in shards:
            time_s = base_s * repeat if repeat != 1 else base_s
            entries[rank].append(
                TimelineEntry("compute", name, clocks[rank], time_s)
            )
            compute[rank] += time_s
            clocks[rank] += time_s
        if comm is not None and world > 1:
            comm_time = comm_model.estimate(
                comm.kind, comm.payload_bytes, world
            ).time_s * repeat
            exposed = comm_time * (1.0 - overlap)
            comm_s += comm_time
            exposed_s += exposed
            start = max(clocks)
            if exposed > 0:
                for rank_entries in entries:
                    rank_entries.append(
                        TimelineEntry("comm", comm.label, start, exposed)
                    )
            clocks = [start + exposed] * world
    for rank, timeline in enumerate(timelines):
        timeline.compute_time_s = compute[rank]
        timeline.comm_time_s = comm_s
        timeline.exposed_comm_time_s = exposed_s
        timeline.end_s = clocks[rank]
    return timelines


def _pipeline(world, sharded, machine, estimator, overlap):
    comm_model = machine.topology.cost_model(2)
    timelines = [DeviceTimeline(rank=rank) for rank in range(world)]
    clock = 0.0
    for event in sharded:
        timeline = timelines[event.stage]
        op = event.ops[event.stage]
        repeat = event.source.repeat
        base_s = estimator.estimate(op).time_s
        time_s = base_s * repeat if repeat != 1 else base_s
        timeline.entries.append(
            TimelineEntry("compute", op.name, clock, time_s)
        )
        timeline.compute_time_s += time_s
        clock += time_s
        timeline.end_s = clock
        if event.comm is not None:
            estimate = comm_model.send_recv(event.comm.payload_bytes)
            comm_time = estimate.time_s * repeat
            exposed = comm_time * (1.0 - overlap)
            if exposed > 0:
                timeline.entries.append(
                    TimelineEntry("comm", event.comm.label, clock, exposed)
                )
            timeline.comm_time_s += comm_time
            timeline.exposed_comm_time_s += exposed
            clock += exposed
            timeline.end_s = clock
    return timelines
