"""Per-device execution timelines for a sharded graph.

This is where a hardware-free :class:`DistributedPlan` meets a
:class:`MachineSpec`: every operator shard is re-priced by the kernel
cost models on the machine's GPU (shards are *smaller* shapes, so they
lose tile/wave efficiency and keep full launch overhead — the
first-order reason tensor-parallel efficiency decays), and every
collective is priced by the machine topology's link model.

Compute/communication overlap is a dial: ``overlap`` is the fraction of
each collective hidden under independent compute (0 = fully exposed,
the right default for tensor-parallel inference where the all-reduce
sits on the critical path; values near 1 model aggressive
bucketing/async schedules).  Both the full and the exposed collective
time are reported so the gap is visible.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.distributed.partition import DistributedPlan
from repro.distributed.registry import MachineSpec
from repro.kernels.base import DEFAULT_TUNING, TuningConstants
from repro.kernels.estimator import CostEstimator


@dataclass(frozen=True)
class TimelineEntry:
    """One interval on a device timeline (a kernel or a collective)."""

    kind: str  # "compute" or "comm"
    label: str
    start_s: float
    duration_s: float

    @property
    def end_s(self) -> float:
        """Interval end time."""
        return self.start_s + self.duration_s


@dataclass
class DeviceTimeline:
    """Execution timeline of one rank.

    ``entries`` may be empty when the plan was priced with
    ``keep_entries=False`` (scaling sweeps that only need aggregates);
    the time totals are always populated.
    """

    rank: int
    compute_time_s: float = 0.0
    comm_time_s: float = 0.0
    exposed_comm_time_s: float = 0.0
    end_s: float = 0.0
    entries: list[TimelineEntry] = field(default_factory=list)

    @property
    def busy_time_s(self) -> float:
        """Time the rank spends computing or communicating (exposed)."""
        return self.compute_time_s + self.exposed_comm_time_s


@dataclass
class DistributedTrace:
    """All device timelines of one priced plan, plus aggregates."""

    strategy: str
    world: int
    machine: MachineSpec
    timelines: list[DeviceTimeline]
    overlap: float

    @property
    def total_time_s(self) -> float:
        """Makespan: the latest rank finish time."""
        return max(t.end_s for t in self.timelines)

    @property
    def compute_time_s(self) -> float:
        """Critical-path compute: the slowest rank's compute total."""
        return max(t.compute_time_s for t in self.timelines)

    @property
    def comm_time_s(self) -> float:
        """Modelled collective time on the slowest rank (pre-overlap)."""
        return max(t.comm_time_s for t in self.timelines)

    @property
    def exposed_comm_time_s(self) -> float:
        """Collective time left on the critical path after overlap."""
        return max(t.exposed_comm_time_s for t in self.timelines)

    @property
    def comm_fraction(self) -> float:
        """Share of the makespan spent in exposed communication."""
        total = self.total_time_s
        return self.exposed_comm_time_s / total if total > 0 else 0.0


def build_timelines(
    plan: DistributedPlan,
    machine: MachineSpec,
    *,
    tuning: TuningConstants = DEFAULT_TUNING,
    overlap: float = 0.0,
    keep_entries: bool = True,
) -> DistributedTrace:
    """Price a plan on a machine and lay it out on per-device timelines.

    SPMD plans (tensor/data parallel) advance all ranks together and
    synchronize at every collective; pipeline plans chain stages with
    point-to-point transfers.
    """
    if not 0.0 <= overlap <= 1.0:
        raise ValueError("overlap must be in [0, 1]")
    estimator = CostEstimator(machine.gpu, tuning)
    if plan.kind == "pipeline":
        timelines = _build_pipeline(
            plan, machine, estimator, overlap, keep_entries
        )
    else:
        timelines = _build_spmd(
            plan, machine, estimator, overlap, keep_entries
        )
    return DistributedTrace(
        strategy=plan.strategy,
        world=plan.world,
        machine=machine,
        timelines=timelines,
        overlap=overlap,
    )


def _build_spmd(
    plan: DistributedPlan,
    machine: MachineSpec,
    estimator: CostEstimator,
    overlap: float,
    keep_entries: bool,
) -> list[DeviceTimeline]:
    world = plan.world
    comm_model = machine.topology.cost_model(world)
    timelines = [DeviceTimeline(rank=rank) for rank in range(world)]
    # Shard tuples are shared between events (the partitioners intern
    # them per op), so one kernel-time lookup per distinct shard tuple
    # covers the whole plan.  Only time_s is consumed here; scaling by
    # the fold factor is the same float multiply KernelCost.scaled does.
    # ``tuple_times`` also records whether every rank got an identical
    # time: tensor parallelism splits evenly, so almost every event is
    # uniform, and without entries to record a uniform event advances
    # all ranks in lockstep with one time lookup instead of one per rank.
    op_time: dict[int, float] = {}
    tuple_times: dict[int, tuple[list[float | None], float | None]] = {}
    comm_time_memo: dict[int, float] = {}

    def times_for(ops: tuple) -> tuple[list[float | None], float | None]:
        times: list[float | None] = []
        for op in ops:
            if op is None:
                times.append(None)
                continue
            base_s = op_time.get(id(op))
            if base_s is None:
                base_s = estimator.estimate(op).time_s
                op_time[id(op)] = base_s
            times.append(base_s)
        first = times[0]
        uniform = first if all(t == first for t in times) else None
        entry = tuple_times[id(ops)] = (times, uniform)
        return entry

    # Plain float lists rather than dataclass attribute updates, rows
    # unpacked as tuples and memo gets inlined: at hundreds of
    # thousands of events per sweep, attribute and call overhead are
    # the remaining cost.  Entries, when kept, are recorded before the
    # clocks advance, so the totals are the same floats either way.
    entries = (
        [timeline.entries for timeline in timelines] if keep_entries else None
    )
    ranks = range(world)
    world_gt1 = world > 1
    compute = [0.0] * world
    clocks = [0.0] * world
    comm_s = 0.0
    exposed_s = 0.0
    times_get = tuple_times.get
    comm_get = comm_time_memo.get
    for source, _, ops, comm, _ in plan.sharded_events:
        repeat = source.repeat
        entry = times_get(id(ops))
        if entry is None:
            entry = times_for(ops)
        times, uniform = entry
        if uniform is not None and entries is None:
            time_s = uniform * repeat if repeat != 1 else uniform
            for rank in ranks:
                compute[rank] += time_s
                clocks[rank] += time_s
        else:
            for rank, base_s in enumerate(times):
                if base_s is None:
                    continue
                time_s = base_s * repeat if repeat != 1 else base_s
                if entries is not None:
                    entries[rank].append(
                        TimelineEntry(
                            kind="compute",
                            label=ops[rank].name,
                            start_s=clocks[rank],
                            duration_s=time_s,
                        )
                    )
                compute[rank] += time_s
                clocks[rank] += time_s
        if comm is not None and world_gt1:
            # Every event of one partitioner class shares its CommSpec
            # instance, so identity keys are stable; a duplicate spec
            # object merely re-prices to the same deterministic value.
            base_comm_s = comm_get(id(comm))
            if base_comm_s is None:
                base_comm_s = comm_model.estimate(
                    comm.kind, comm.payload_bytes, world
                ).time_s
                comm_time_memo[id(comm)] = base_comm_s
            comm_time = base_comm_s * repeat
            exposed = comm_time * (1.0 - overlap)
            comm_s += comm_time
            exposed_s += exposed
            start = max(clocks)
            if entries is not None and exposed > 0:
                for rank_entries in entries:
                    rank_entries.append(
                        TimelineEntry(
                            kind="comm",
                            label=comm.label,
                            start_s=start,
                            duration_s=exposed,
                        )
                    )
            synced = start + exposed
            for rank in ranks:
                clocks[rank] = synced
    for rank, timeline in enumerate(timelines):
        timeline.compute_time_s = compute[rank]
        timeline.comm_time_s = comm_s
        timeline.exposed_comm_time_s = exposed_s
        timeline.end_s = clocks[rank]
    return timelines


def _build_pipeline(
    plan: DistributedPlan,
    machine: MachineSpec,
    estimator: CostEstimator,
    overlap: float,
    keep_entries: bool,
) -> list[DeviceTimeline]:
    world = plan.world
    comm_model = machine.topology.cost_model(2)
    timelines = [DeviceTimeline(rank=rank) for rank in range(world)]
    clock = 0.0  # single-sample latency: stages execute back to back
    op_time: dict[int, float] = {}
    for event in plan.sharded_events:
        rank = event.stage
        op = event.ops[rank]
        if op is not None:
            base_s = op_time.get(id(op))
            if base_s is None:
                base_s = estimator.estimate(op).time_s
                op_time[id(op)] = base_s
            repeat = event.source.repeat
            time_s = base_s * repeat if repeat != 1 else base_s
            timeline = timelines[rank]
            if keep_entries:
                timeline.entries.append(
                    TimelineEntry(
                        kind="compute",
                        label=op.name,
                        start_s=clock,
                        duration_s=time_s,
                    )
                )
            timeline.compute_time_s += time_s
            clock += time_s
            timeline.end_s = clock
        if event.comm is not None:
            estimate = comm_model.send_recv(event.comm.payload_bytes)
            comm_time = estimate.time_s * event.source.repeat
            exposed = comm_time * (1.0 - overlap)
            timeline = timelines[rank]
            if keep_entries and exposed > 0:
                timeline.entries.append(
                    TimelineEntry(
                        kind="comm",
                        label=event.comm.label,
                        start_s=clock,
                        duration_s=exposed,
                    )
                )
            timeline.comm_time_s += comm_time
            timeline.exposed_comm_time_s += exposed
            clock += exposed
            timeline.end_s = clock
    return timelines


def render_timeline_summary(trace: DistributedTrace) -> str:
    """One line per rank: compute, exposed comm, and finish time."""
    lines = [
        f"{trace.strategy} on {trace.machine.name} "
        f"(overlap={trace.overlap:.0%})"
    ]
    for timeline in trace.timelines:
        lines.append(
            f"  rank {timeline.rank}: "
            f"compute {timeline.compute_time_s * 1e3:9.2f} ms, "
            f"comm {timeline.exposed_comm_time_s * 1e3:8.2f} ms "
            f"(modelled {timeline.comm_time_s * 1e3:8.2f} ms), "
            f"done at {timeline.end_s * 1e3:9.2f} ms"
        )
    return "\n".join(lines)
