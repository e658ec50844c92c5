"""Per-event reference partitioners, timeline builders and planner axes.

Plans store one row per kernel class and a per-event class index, and
:func:`repro.distributed.timeline.build_timelines` walks that index.
This module keeps the form they replaced: each partitioner builds one
:class:`ShardedEvent` per source event from the built events, and the
builders price and advance every event on its own.  Likewise
:func:`bruteforce_axis` prices a planner axis event by event,
:func:`bruteforce_stages` splits such an axis into pipeline stages in
one pass over its events and :func:`bruteforce_cost` costs a config
from such an axis.  The tests require the class form to reproduce it
float for float.
"""

from __future__ import annotations

from typing import NamedTuple

import numpy as np

from repro.distributed.collectives import CollectiveKind
from repro.distributed.partition import (
    CommSpec,
    DataParallel,
    DistributedPlan,
    PartitionStrategy,
    TensorParallel,
    trace_classes,
)
from repro.distributed.planner import (
    ParallelConfig,
    PlannerBasis,
    PlanPoint,
    TPAxis,
    _check_costing,
    _compose_point,
    split_stages,
)
from repro.distributed.registry import MachineSpec
from repro.distributed.sharding import ShardRole, even_split, shard_op
from repro.distributed.timeline import (
    DeviceTimeline,
    DistributedTrace,
    TimelineEntry,
)
from repro.ir.ops import Op
from repro.ir.trace import Trace, TraceEvent
from repro.kernels.base import DEFAULT_TUNING, TuningConstants
from repro.kernels.estimator import CostEstimator
from repro.ordered_sum import ordered_sum


class ShardedEvent(NamedTuple):
    """One source trace event split across the parallel group.

    The per-event view of a :class:`DistributedPlan`
    (:func:`sharded_events`): the plan itself stores one
    :class:`~repro.distributed.partition.PlanClass` per distinct kind
    of event.  The fold factor is the source event's ``repeat``; every
    shard and the collective issue that many times.

    Attributes:
        source: the single-device event this shards.
        role: how the split was chosen.
        ops: per-rank operator shards (``None`` = rank idle).
        comm: collective required after this event, if any.
    """

    source: TraceEvent
    role: ShardRole
    ops: tuple[Op | None, ...]
    comm: CommSpec | None


def sharded_events(plan: DistributedPlan) -> list[ShardedEvent]:
    """Every source event with its class' shards, in trace order."""
    heads = [cls[:3] for cls in plan.classes]
    return [
        ShardedEvent(event, *heads[cls])
        for event, cls in zip(plan.source.events, plan.index)
    ]


def reference_events(
    strategy: PartitionStrategy, trace: Trace
) -> list[ShardedEvent]:
    """One sharded event per built source event, in trace order."""
    if isinstance(strategy, TensorParallel):
        return _tensor_parallel(strategy.world, trace)
    if isinstance(strategy, DataParallel):
        return _data_parallel(strategy.world, strategy.batch, trace)
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
        resolved.append((role, shards, comm))
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
        sharded.append(ShardedEvent(event, ShardRole.BATCH, shards, None))
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
    return ordered_sum(
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
    return DistributedTrace(
        strategy=strategy.describe(),
        world=strategy.world,
        machine=machine,
        timelines=_spmd(strategy.world, sharded, machine, estimator, overlap),
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
    for source, _, ops, comm in sharded:
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


# The per-event views of a TPAxis: each class column gathered through
# the axis' class index.


def axis_times(axis: TPAxis) -> list[float]:
    """Rank 0's kernel time for every event."""
    return axis.class_times[axis.index].tolist()


def axis_comm(axis: TPAxis) -> list[float]:
    """Exposed collective time after every event (plain variant)."""
    return axis.class_comm[axis.index].tolist()


def axis_comm_sp(axis: TPAxis) -> list[float]:
    """Exposed collective time after every event (sequence parallel)."""
    return axis.class_comm_sp[axis.index].tolist()


def axis_out_bytes(axis: TPAxis) -> list[float]:
    """The unsharded activation every event writes."""
    return axis.class_out_bytes[axis.index].tolist()


def bruteforce_axis(
    trace: Trace,
    tp: int,
    machine: MachineSpec,
    *,
    tuning: TuningConstants = DEFAULT_TUNING,
    batch: int = 1,
) -> TPAxis:
    """Per-event reference for :func:`repro.distributed.planner.build_axis`.

    Partitions the trace with :class:`TensorParallel` and prices every
    event of the plan's per-event view (:func:`sharded_events`) on its
    own, accumulating the prefix sums and collective
    totals in a plain Python loop — no class table, no gather, no
    array arithmetic.  Each event is its own class of the returned
    axis.  At ``tp == 1`` it reads the profiled event costs verbatim,
    so ``build_axis``'s re-pricing of unsharded ops is checked
    against the profile itself.  The property suite requires every
    per-event view and total to equal ``build_axis``'s.
    """
    n = len(trace.events)
    times: list[float] = []
    comm: list[float] = []
    comm_sp: list[float] = []
    out_bytes: list[float] = []
    act_peak = 0.0
    max_payload = 0.0
    if tp == 1:
        for event in trace.events:
            times.append(event.cost.time_s)
            comm.append(0.0)
            comm_sp.append(0.0)
            op = event.op
            out_bytes.append(op.write_bytes())
            transient = op.read_bytes() + op.write_bytes()
            if transient > act_peak:
                act_peak = transient
    else:
        plan = TensorParallel(tp).partition(trace)
        estimator = CostEstimator(machine.gpu, tuning)
        comm_model = machine.topology.cost_model(tp)
        for event in sharded_events(plan):
            source, _, ops, spec = event
            repeat = source.repeat
            op0 = ops[0]
            if op0 is None:
                times.append(0.0)
                transient = 0.0
            else:
                base_s = estimator.estimate(op0).time_s
                times.append(base_s * repeat if repeat != 1 else base_s)
                transient = op0.read_bytes() + op0.write_bytes()
            if transient > act_peak:
                act_peak = transient
            out_bytes.append(source.op.write_bytes())
            if spec is None:
                comm.append(0.0)
                comm_sp.append(0.0)
                continue
            plain = comm_model.estimate(
                spec.kind, spec.payload_bytes, tp
            ).time_s
            if spec.kind is CollectiveKind.ALL_REDUCE:
                sp_s = (
                    comm_model.reduce_scatter(spec.payload_bytes, tp).time_s
                    + comm_model.all_gather(spec.payload_bytes, tp).time_s
                )
            else:
                sp_s = plain
            comm.append(plain * repeat)
            comm_sp.append(sp_s * repeat)
            if spec.payload_bytes > max_payload:
                max_payload = spec.payload_bytes
    acc = [0.0] * (n + 1)
    acc_sp = [0.0] * (n + 1)
    run = run_sp = comm_total = comm_sp_total = 0.0
    for i in range(n):
        run += times[i]
        run += comm[i]
        acc[i + 1] = run
        run_sp += times[i]
        run_sp += comm_sp[i]
        acc_sp[i + 1] = run_sp
        comm_total += comm[i]
        comm_sp_total += comm_sp[i]
    return TPAxis(
        tp=tp,
        batch=batch,
        class_times=np.array(times),
        class_comm=np.array(comm),
        class_comm_sp=np.array(comm_sp),
        class_out_bytes=np.array(out_bytes),
        index=np.arange(n),
        acc=np.array(acc),
        acc_sp=np.array(acc_sp),
        comm_total_s=comm_total,
        comm_sp_total_s=comm_sp_total,
        act_peak_shard=act_peak,
        max_comm_payload=max_payload,
    )


def greedy_boundaries(weights, stages):
    """Plain greedy reference for
    :func:`repro.distributed.partition.split_cumulative`: one pass over
    the per-event weights, at most one stage close per event."""
    n = len(weights)
    total = 0.0
    for w in weights:  # left to right: sum() is compensated from 3.12
        total += w
    boundaries = []
    cumulative = 0.0
    target = 1
    for index, w in enumerate(weights):
        cumulative += w
        remaining = n - (index + 1)
        if (
            target < stages
            and remaining >= stages - target
            and (
                cumulative >= total * target / stages
                or remaining == stages - target
            )
        ):
            boundaries.append(index + 1)
            target += 1
    return boundaries


def bruteforce_stages(
    trace: Trace,
    axis: TPAxis,
    pp: int,
    sequence_parallel: bool,
    machine: MachineSpec,
) -> tuple[tuple[float, ...], tuple[float, ...]]:
    """Per-event reference for :func:`repro.distributed.planner.split_stages`.

    Weighs every event by its step of the axis' prefix, closes the
    stages with :func:`greedy_boundaries` and reads each boundary
    activation from the trace event that ends its stage, not through a
    class index.  ``axis`` is :func:`bruteforce_axis`'s over ``trace``.
    """
    n = len(trace.events)
    if pp > n:
        raise ValueError("more stages than events")
    acc = (axis.acc_sp if sequence_parallel else axis.acc).tolist()
    weights = [acc[i + 1] - acc[i] for i in range(n)]
    edges = [0, *greedy_boundaries(weights, pp), n]
    p2p_model = machine.topology.cost_model(2)
    stage_times: list[float] = []
    p2p_times: list[float] = []
    for start, end in zip(edges, edges[1:]):
        stage_times.append(acc[end] - acc[start])
        if end == n:
            p2p_times.append(0.0)
            continue
        payload = float(trace.events[end - 1].op.write_bytes())
        if sequence_parallel:
            payload = payload / axis.tp
        p2p_times.append(p2p_model.send_recv(payload).time_s)
    return tuple(stage_times), tuple(p2p_times)


def bruteforce_cost(
    basis: PlannerBasis,
    config: ParallelConfig,
    *,
    global_batch: int = 8,
    backward_ratio: float = 2.0,
    memory_margin: float = 0.9,
) -> PlanPoint:
    """Cost one config by fully re-partitioning and re-pricing the trace.

    The reference the symbolic-delta path is validated against: a fresh
    per-event :func:`bruteforce_axis` per call (re-partition + kernel/
    collective re-pricing of every event, no class table, no axis or
    stage-split reuse) composed through the planner's own pure
    ``_compose_point``.  The property suite asserts the resulting
    :class:`PlanPoint` floats are *identical* to
    :meth:`PlannerBasis.cost_config`'s.
    """
    _check_costing(global_batch, backward_ratio, memory_margin)
    replica_batch = even_split(global_batch, config.dp)[0]
    m_eff = min(config.microbatches, replica_batch)
    mb = even_split(replica_batch, m_eff)[0]
    axis = bruteforce_axis(
        basis.trace(mb), config.tp, basis.machine,
        tuning=basis.tuning, batch=mb,
    )
    if config.pp > len(axis):
        raise ValueError(
            f"pp={config.pp} exceeds the trace's {len(axis)} events"
        )
    stage_times, p2p_times = split_stages(
        axis, config.pp, config.sequence_parallel, basis.machine
    )
    return _compose_point(
        axis, stage_times, p2p_times, m_eff, mb, config,
        param_bytes=basis.param_bytes,
        kv_bytes=basis.kv_bytes,
        capacity_bytes=basis.machine.gpu.dram_capacity,
        global_batch=global_batch,
        backward_ratio=backward_ratio,
        memory_margin=memory_margin,
    )
