"""Per-device execution timelines for a sharded graph.

This is where a hardware-free :class:`DistributedPlan` meets a
:class:`MachineSpec`: every operator shard is re-priced by the kernel
cost models on the machine's GPU (shards are *smaller* shapes, so they
lose tile/wave efficiency and keep full launch overhead — the
first-order reason tensor-parallel efficiency decays), and every
collective is priced by the machine topology's link model.  Both happen
once per plan class in :func:`price_classes`, the one pricer of sharded
plans: the timelines here and the planner's tensor-parallel axes
(:func:`repro.distributed.planner.build_axis`) read its floats.

Compute/communication overlap is a dial: ``overlap`` is the fraction of
each collective hidden under independent compute (0 = fully exposed,
the right default for tensor-parallel inference where the all-reduce
sits on the critical path; values near 1 model aggressive
bucketing/async schedules).  Both the full and the exposed collective
time are reported so the gap is visible.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import NamedTuple

from repro.distributed.partition import DistributedPlan
from repro.distributed.registry import MachineSpec
from repro.ir.ops import Op
from repro.kernels.base import DEFAULT_TUNING, TuningConstants
from repro.kernels.estimator import CostEstimator


class TimelineEntry(NamedTuple):
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

    All ranks advance together and synchronize at every collective.
    Each plan class is priced once
    (:func:`price_classes`), then the plan's class index is walked in
    trace order, adding each event's times left to right; no event
    object is built.
    """
    if not 0.0 <= overlap <= 1.0:
        raise ValueError("overlap must be in [0, 1]")
    times, comms = price_classes(plan, machine, tuning=tuning)
    # Each class' collective as (modelled, exposed, label), or None.
    collectives = [
        None if comm_s is None
        else (comm_s, comm_s * (1.0 - overlap), cls.comm.label)
        for cls, comm_s in zip(plan.classes, comms)
    ]
    return DistributedTrace(
        strategy=plan.strategy,
        world=plan.world,
        machine=machine,
        timelines=_build_spmd(plan, times, collectives, keep_entries),
        overlap=overlap,
    )


def price_classes(
    plan: DistributedPlan,
    machine: MachineSpec,
    *,
    tuning: TuningConstants = DEFAULT_TUNING,
) -> tuple[list[tuple[float | None, ...]], list[float | None]]:
    """Every class' per-rank kernel times and its collective time.

    The one place a sharded plan is priced: each shard is re-priced on
    the machine's GPU and each collective over the topology's bounding
    link for the plan's world.  Both carry the class' fold
    factor, multiplied as :meth:`KernelCost.scaled` does, so an
    unsharded op on the GPU that profiled it prices to its profiled
    float.  A rank that idles reads ``None``, as does a class with no
    collective.  Shard ops are shared between classes, so kernel times
    are memoized per op.
    """
    estimator = CostEstimator(machine.gpu, tuning)
    comm_model = machine.topology.cost_model(plan.world)
    op_time: dict[Op, float] = {}
    times: list[tuple[float | None, ...]] = []
    comms: list[float | None] = []
    for _, ops, comm, repeat in plan.classes:
        rank_times: list[float | None] = []
        for op in ops:
            if op is None:
                rank_times.append(None)
                continue
            base_s = op_time.get(op)
            if base_s is None:
                base_s = op_time[op] = estimator.estimate(op).time_s
            rank_times.append(base_s * repeat if repeat != 1 else base_s)
        times.append(tuple(rank_times))
        comms.append(
            None if comm is None
            else comm_model.estimate(
                comm.kind, comm.payload_bytes, plan.world
            ).time_s * repeat
        )
    return times, comms


def _class_name(ops: tuple) -> str | None:
    """Kernel label of a class: the name its shards share."""
    return next((op.name for op in ops if op is not None), None)


def _build_spmd(
    plan: DistributedPlan,
    class_times: list[tuple[float | None, ...]],
    collectives: list[tuple[float, float, str] | None],
    keep_entries: bool,
) -> list[DeviceTimeline]:
    world = plan.world
    labels = (
        [_class_name(cls.ops) for cls in plan.classes]
        if keep_entries else None
    )
    entries: list[list[TimelineEntry]] = [[] for _ in range(world)]
    ranks = range(world)
    compute = [0.0] * world
    clocks = [0.0] * world
    comm_s = 0.0
    exposed_s = 0.0
    # The walk is in trace order and adds left to right, exactly as a
    # per-event loop does; entries, when kept, are recorded before the
    # clocks advance, so the totals are the same floats either way.
    for cls in plan.index:
        times = class_times[cls]
        for rank in ranks:
            time_s = times[rank]
            if time_s is None:
                continue
            if labels is not None:
                entries[rank].append(
                    TimelineEntry("compute", labels[cls], clocks[rank], time_s)
                )
            compute[rank] += time_s
            clocks[rank] += time_s
        priced = collectives[cls]
        if priced is not None:
            comm_time, exposed, label = priced
            comm_s += comm_time
            exposed_s += exposed
            start = max(clocks)
            if labels is not None and exposed > 0:
                entry = TimelineEntry("comm", label, start, exposed)
                for rank_entries in entries:
                    rank_entries.append(entry)
            synced = start + exposed
            for rank in ranks:
                clocks[rank] = synced
    return [
        DeviceTimeline(
            rank=rank,
            compute_time_s=compute[rank],
            comm_time_s=comm_s,
            exposed_comm_time_s=exposed_s,
            end_s=clocks[rank],
            entries=entries[rank],
        )
        for rank in ranks
    ]


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
