"""Parallelism auto-planner: enumerate, cost, and rank distributed configs.

The partitioners in this package can shard a profiled trace any way you
ask — but *which* (tp, pp, dp, microbatch, sequence-parallel) config to
ask for has been hand-picked so far, and the paper's point is that the
answer shifts per model and per machine.  This module searches the
space automatically:

1. :func:`enumerate_configs` walks power-of-two (tp, pp, dp) groupings
   within a GPU budget, microbatch counts, and sequence-parallel
   on/off — canonicalized so degenerate axes appear exactly once.
2. :class:`PlannerBasis` prices configs **symbolically**: one tensor-
   parallel *axis* — per-class critical-rank kernel times and
   collective times, the class of every event, and the events' running
   prefix — is built per (tp, microbatch size) and then every (pp, dp,
   m, sp) combination is costed from the prefix arrays as a per-config
   delta: stage sums, point-to-point boundary transfers, pipeline
   wavefronts.  An axis is rank 0's view of the tensor-parallel plan,
   priced once per kernel class by the timelines' own pricer
   (:func:`repro.distributed.timeline.price_classes`); only its prefix
   sums and collective totals walk the events.  The property suite
   pins this path to identical floats against a slow per-event
   reference that partitions and prices every event afresh per config
   (``tests/distributed/plan_reference.py``).
3. Pipeline behaviour comes from :mod:`repro.distributed.schedule`
   (GPipe vs 1F1B with explicit bubble accounting) for training and
   the forward wavefront for serving latency.
4. Plans carry a per-device memory estimate (weight + KV shards plus
   activation residency) and are filtered by the device HBM capacity
   under a safety margin; :func:`pareto_frontier` keeps the
   non-dominated set over (latency, throughput, device count).

The axis contract the symbolic path rests on: with uniform shard
weights, largest-remainder ties break toward rank 0, so rank 0 always
holds the largest shard of every event and therefore the latest clock
between collectives.  Accumulating rank 0's kernel time plus each
exposed collective in trace order reproduces
:func:`repro.distributed.timeline.build_timelines` makespans
**bit-exactly** (the degenerate tp=1, pp=1 config reproduces the
single-device ``trace.total_time_s`` unchanged) — tested, not assumed.

See ``docs/PLANNER.md`` for the model and its divergences.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Iterable, Sequence

import numpy as np

from repro.distributed.collectives import CollectiveKind
from repro.distributed.partition import (
    TensorParallel,
    split_cumulative,
    trace_classes,
)
from repro.distributed.registry import MachineSpec, machine_from_name
from repro.distributed.schedule import (
    ScheduleResult,
    forward_makespan,
    simulate_1f1b,
    simulate_gpipe,
)
from repro.distributed.sharding import even_split
from repro.distributed.timeline import price_classes
from repro.ir.context import AttentionImpl
from repro.ir.module import Module
from repro.ir.trace import Trace
from repro.kernels.base import DEFAULT_TUNING, TuningConstants
from repro.ordered_sum import ordered_sum


@dataclass(frozen=True)
class ParallelConfig:
    """One point in the parallelism search space.

    ``dp`` replicas each span ``tp * pp`` GPUs; a replica's batch share
    is split into ``microbatches`` pipeline microbatches.
    ``sequence_parallel`` keeps activations sharded ``1/tp`` between
    the tensor-parallel collectives (each all-reduce becomes a
    reduce-scatter + all-gather pair).
    """

    tp: int = 1
    pp: int = 1
    dp: int = 1
    microbatches: int = 1
    sequence_parallel: bool = False

    def __post_init__(self) -> None:
        for name in ("tp", "pp", "dp", "microbatches"):
            if getattr(self, name) < 1:
                raise ValueError(f"{name} must be >= 1")
        if self.sequence_parallel and self.tp == 1:
            raise ValueError("sequence parallelism requires tp > 1")

    @property
    def world(self) -> int:
        """Total GPUs the config occupies."""
        return self.tp * self.pp * self.dp

    @property
    def replica_world(self) -> int:
        """GPUs inside one data-parallel replica."""
        return self.tp * self.pp

    @property
    def label(self) -> str:
        """Compact deterministic label, e.g. ``"tp2-pp2-dp2-mb4-sp"``."""
        parts = [f"tp{self.tp}", f"pp{self.pp}", f"dp{self.dp}"]
        if self.microbatches > 1:
            parts.append(f"mb{self.microbatches}")
        if self.sequence_parallel:
            parts.append("sp")
        return "-".join(parts)


def _require_count(name: str, value: int) -> None:
    """Raise a ValueError naming ``name`` unless ``value`` is an int >= 1."""
    if not isinstance(value, int) or value < 1:
        raise ValueError(f"{name} must be an int >= 1, got {value!r}")


def _check_costing(
    global_batch: int, backward_ratio: float, memory_margin: float
) -> None:
    """Reject costing inputs that would price a plausible wrong plan.

    ``nan < 0`` is False, so every float bound is paired with
    ``math.isfinite``; each error names its field.
    """
    _require_count("global_batch", global_batch)
    if not (math.isfinite(backward_ratio) and backward_ratio >= 0):
        raise ValueError(
            f"backward_ratio must be finite and >= 0, got {backward_ratio!r}"
        )
    if not (math.isfinite(memory_margin) and 0 < memory_margin <= 1):
        raise ValueError(
            f"memory_margin must be finite and in (0, 1], "
            f"got {memory_margin!r}"
        )


def _powers_of_two(limit: int) -> list[int]:
    values = []
    v = 1
    while v <= limit:
        values.append(v)
        v *= 2
    return values


def enumerate_configs(
    *,
    gpu_budget: int = 8,
    global_batch: int = 8,
    microbatches: Sequence[int] = (1, 2, 4, 8),
    sequence_parallel: Sequence[bool] = (False, True),
) -> list[ParallelConfig]:
    """All canonical configs within a GPU budget, deterministically ordered.

    Power-of-two (tp, pp, dp) with ``tp * pp * dp <= gpu_budget`` and
    ``dp <= global_batch``.  Canonical means each degenerate axis
    appears once: ``pp == 1`` forces one microbatch, ``tp == 1`` forces
    sequence-parallel off, and microbatch counts never exceed the
    replica's batch share.
    """
    _require_count("gpu_budget", gpu_budget)
    _require_count("global_batch", global_batch)
    configs: list[ParallelConfig] = []
    for tp in _powers_of_two(gpu_budget):
        for pp in _powers_of_two(gpu_budget // tp):
            for dp in _powers_of_two(gpu_budget // (tp * pp)):
                if dp > global_batch:
                    continue
                replica_batch = even_split(global_batch, dp)[0]
                m_options = (
                    sorted({m for m in microbatches if 1 <= m <= replica_batch})
                    if pp > 1
                    else [1]
                )
                sp_options = (
                    sorted(set(sequence_parallel)) if tp > 1 else [False]
                )
                for m in m_options:
                    for sp in sp_options:
                        configs.append(
                            ParallelConfig(
                                tp=tp, pp=pp, dp=dp,
                                microbatches=m, sequence_parallel=sp,
                            )
                        )
    configs.sort(
        key=lambda c: (c.tp, c.pp, c.dp, c.microbatches, c.sequence_parallel)
    )
    return configs


@dataclass(eq=False)
class TPAxis:
    """Symbolic cost basis of one (tp degree, microbatch size) pair.

    Stored per kernel class of the trace (:func:`trace_classes`), all
    fold factors applied, with ``index`` the class of every event:

    * ``class_times[c]`` — rank 0's kernel time for an event of class
      ``c`` (rank 0 holds the largest shard, hence the critical path);
    * ``class_comm[c]`` / ``class_comm_sp[c]`` — exposed collective time
      after such an event, plain and sequence-parallel variants;
    * ``class_out_bytes[c]`` — the unsharded activation it writes
      (pipeline boundary payloads);
    * ``acc`` / ``acc_sp`` — running prefix over the events of kernel
      plus collective time in trace order (``acc[i+1] = acc[i] +
      times[i] + comm[i]``), so any contiguous stage's wall time is one
      subtraction;
    * ``comm_total_s`` / ``comm_sp_total_s`` — each variant's
      collective time over the trace, added once left to right.
    """

    tp: int
    batch: int
    class_times: np.ndarray
    class_comm: np.ndarray
    class_comm_sp: np.ndarray
    class_out_bytes: np.ndarray
    index: np.ndarray
    acc: np.ndarray
    acc_sp: np.ndarray
    comm_total_s: float
    comm_sp_total_s: float
    act_peak_shard: float
    max_comm_payload: float
    # Stage-weight running sums per sequence-parallel flag, built on the
    # first pipeline split and dying with the axis.
    _cumulative: dict[bool, np.ndarray] = field(
        default_factory=dict, init=False, repr=False
    )

    def __len__(self) -> int:
        return len(self.index)

    def cumulative_weights(self, sequence_parallel: bool) -> np.ndarray:
        """Left-to-right running sum of per-event stage weights.

        An event's stage weight is its wall time, ``acc[i+1] - acc[i]``
        (``acc_sp`` under sequence parallelism).  Built once per variant
        and cached on the axis, so every pipeline depth bisects the same
        array instead of re-walking the events.
        """
        cumulative = self._cumulative.get(sequence_parallel)
        if cumulative is None:
            acc = self.acc_sp if sequence_parallel else self.acc
            cumulative = np.cumsum(np.diff(acc))
            self._cumulative[sequence_parallel] = cumulative
        return cumulative

    @property
    def total_s(self) -> float:
        """Whole-trace wall time at this tp degree (pp = 1)."""
        return float(self.acc[-1])


def _prefix(times: np.ndarray, comm: np.ndarray) -> np.ndarray:
    """``acc`` with ``acc[i+1] = acc[i] + times[i] + comm[i]``, in order.

    Time first, then the collective — the order build_timelines
    advances the clocks in.  ``np.cumsum`` accumulates strictly left
    to right over the interleaved ``0, t0, c0, t1, c1, ...``; never
    ``sum()`` (compensated from Python 3.12), ``math.fsum`` or
    ``np.sum`` (pairwise), which would move the floats.
    """
    steps = np.zeros(2 * len(times) + 1)
    steps[1::2] = times
    steps[2::2] = comm
    return np.cumsum(steps)[0::2].copy()


def build_axis(
    trace: Trace,
    tp: int,
    machine: MachineSpec,
    *,
    tuning: TuningConstants = DEFAULT_TUNING,
    batch: int = 1,
) -> TPAxis:
    """Price one tensor-parallel axis over ``trace``, once per class.

    The axis is rank 0's view of the ``TensorParallel(tp)`` plan, priced
    per class by :func:`repro.distributed.timeline.price_classes` — the
    pricer the timelines use — and kept per class with the plan's class
    index.  This function adds only what a timeline does not model:
    the sequence-parallel collective variant, the activation peak and
    each class's unsharded output bytes.  The prefix sums and
    collective totals are the only per-event work, each one
    ``np.cumsum`` over the gathered events.  Every float equals the
    per-event reference pricing (``bruteforce_axis`` in
    ``tests/distributed/plan_reference.py``).  At ``tp == 1`` the
    plan has no collective and every op is re-priced on the machine's
    GPU, which reproduces the profiled trace whenever that GPU
    profiled it.
    """
    plan = TensorParallel(tp).partition(trace)
    shard_times, class_comm = price_classes(plan, machine, tuning=tuning)
    comm_model = machine.topology.cost_model(tp)
    times_c: list[float] = []
    comm_c: list[float] = []
    comm_sp_c: list[float] = []
    act_peak = 0.0
    max_payload = 0.0
    for cls, rank_times, comm_s in zip(plan.classes, shard_times, class_comm):
        op0 = cls.ops[0]
        if op0 is None:
            times_c.append(0.0)
        else:
            times_c.append(rank_times[0])
            transient = op0.read_bytes() + op0.write_bytes()
            if transient > act_peak:
                act_peak = transient
        if comm_s is None:
            comm_c.append(0.0)
            comm_sp_c.append(0.0)
            continue
        comm_c.append(comm_s)
        payload = cls.comm.payload_bytes
        if cls.comm.kind is CollectiveKind.ALL_REDUCE:
            # Sequence parallelism replaces the all-reduce with
            # reduce-scatter + all-gather around the sharded activation
            # region.
            comm_sp_c.append(
                (
                    comm_model.reduce_scatter(payload, tp).time_s
                    + comm_model.all_gather(payload, tp).time_s
                ) * cls.repeat
            )
        else:
            comm_sp_c.append(comm_s)
        if payload > max_payload:
            max_payload = payload
    table = trace_classes(trace)
    index = table.index_array
    class_times = np.array(times_c)
    class_comm = np.array(comm_c)
    class_comm_sp = np.array(comm_sp_c)
    times = class_times[index]
    comm = class_comm[index]
    comm_sp = class_comm_sp[index]
    return TPAxis(
        tp=tp,
        batch=batch,
        class_times=class_times,
        class_comm=class_comm,
        class_comm_sp=class_comm_sp,
        class_out_bytes=np.array([op.write_bytes() for op in table.ops]),
        index=index,
        acc=_prefix(times, comm),
        acc_sp=_prefix(times, comm_sp),
        comm_total_s=ordered_sum(comm),
        comm_sp_total_s=ordered_sum(comm_sp),
        act_peak_shard=act_peak,
        max_comm_payload=max_payload,
    )


def split_stages(
    axis: TPAxis, pp: int, sequence_parallel: bool, machine: MachineSpec
) -> tuple[tuple[float, ...], tuple[float, ...]]:
    """Per-stage forward times and boundary p2p times for one axis.

    Stages are balanced by :func:`repro.distributed.partition.split_cumulative`
    over the axis' cached stage-weight sums (one bisection per stage).
    Stage wall time is one subtraction of the ``pp + 1`` prefix entries
    at the stage edges; the boundary activation (the stage's last
    event's unsharded output, read through the class index, divided by
    ``tp`` under sequence parallelism) is priced as an adjacent-rank
    point-to-point transfer.  ``pp == 1`` returns the whole-trace total
    unchanged with a zero p2p — the degenerate-axis contract.  Every
    time is a Python float.
    """
    acc = axis.acc_sp if sequence_parallel else axis.acc
    if pp == 1:
        return (float(acc[-1]),), (0.0,)
    bounds = split_cumulative(axis.cumulative_weights(sequence_parallel), pp)
    edges = acc[[0, *bounds, len(axis)]].tolist()
    p2p_model = machine.topology.cost_model(2)
    stage_times: list[float] = []
    p2p_times: list[float] = []
    for s in range(pp):
        stage_times.append(edges[s + 1] - edges[s])
        if s < pp - 1:
            payload = float(axis.class_out_bytes[axis.index[bounds[s] - 1]])
            if sequence_parallel:
                # The boundary activation stays sharded 1/tp per rank.
                payload = payload / axis.tp
            p2p_times.append(p2p_model.send_recv(payload).time_s)
        else:
            p2p_times.append(0.0)
    return tuple(stage_times), tuple(p2p_times)


@dataclass(frozen=True)
class PlanPoint:
    """One fully-costed configuration.

    Attributes:
        config: the parallelism choice.
        latency_s: one batched forward through the replica (microbatch
            wavefront across pipeline stages).
        throughput_rps: requests/s of the whole ``config.world``-GPU
            deployment at the planner's global batch.
        per_gpu_rps: ``throughput_rps / config.world``.
        stage_times_s: per-stage forward time for one microbatch,
            boundary p2p included.
        tp_comm_s: collective time inside one microbatch's forward.
        p2p_s: pipeline boundary transfer time per microbatch.
        bubble_fraction: forward-wavefront idle share across stages.
        gpipe / one_f1b: training-step schedules (backward modelled as
            ``backward_ratio`` x forward).
        train_step_s: the cheaper schedule's makespan.
        memory_bytes: per-device estimate (weight + KV shards +
            activation residency).
        fits: ``memory_bytes <= capacity * margin``.
        microbatch: requests per microbatch on this config.
    """

    config: ParallelConfig
    latency_s: float
    throughput_rps: float
    per_gpu_rps: float
    stage_times_s: tuple[float, ...]
    tp_comm_s: float
    p2p_s: float
    bubble_fraction: float
    gpipe: ScheduleResult
    one_f1b: ScheduleResult
    train_step_s: float
    memory_bytes: float
    fits: bool
    microbatch: int


def _compose_point(
    axis: TPAxis,
    stage_times: tuple[float, ...],
    p2p_times: tuple[float, ...],
    m_eff: int,
    mb: int,
    config: ParallelConfig,
    *,
    param_bytes: float,
    kv_bytes: float,
    capacity_bytes: float,
    global_batch: int,
    backward_ratio: float,
    memory_margin: float,
) -> PlanPoint:
    """Pure composition of a priced axis into a :class:`PlanPoint`.

    Shared verbatim by the symbolic path and the property suite's
    per-event reference (``bruteforce_cost`` in
    ``tests/distributed/plan_reference.py``), so any disagreement
    between the two is confined to the axis arrays themselves.
    """
    forward = tuple(t + p for t, p in zip(stage_times, p2p_times))
    latency = forward_makespan(forward, m_eff)
    # The slowest (largest-share) replica bounds the round, so the
    # deployment completes `global_batch` requests per `latency`.
    throughput = global_batch / latency if latency > 0 else 0.0
    if config.pp == 1:
        bubble = 0.0
    else:
        work = m_eff * ordered_sum(forward)
        bubble = 1.0 - work / (config.pp * latency)
    backward = tuple(t * backward_ratio for t in forward)
    gpipe = simulate_gpipe(forward, backward, m_eff)
    one_f1b = simulate_1f1b(forward, backward, m_eff)
    shard = config.tp * config.pp
    activation = axis.act_peak_shard
    if not config.sequence_parallel:
        # Without sequence parallelism every rank materializes the full
        # activation a collective reconstitutes.
        activation += axis.max_comm_payload
    memory = param_bytes / shard + kv_bytes / shard + activation
    return PlanPoint(
        config=config,
        latency_s=latency,
        throughput_rps=throughput,
        per_gpu_rps=throughput / config.world,
        stage_times_s=forward,
        tp_comm_s=(
            axis.comm_sp_total_s if config.sequence_parallel
            else axis.comm_total_s
        ),
        p2p_s=ordered_sum(p2p_times),
        bubble_fraction=bubble,
        gpipe=gpipe,
        one_f1b=one_f1b,
        train_step_s=min(gpipe.makespan_s, one_f1b.makespan_s),
        memory_bytes=memory,
        fits=memory <= capacity_bytes * memory_margin,
        microbatch=mb,
    )


def pareto_frontier(points: Iterable[PlanPoint]) -> list[PlanPoint]:
    """Non-dominated subset over (latency min, throughput max, GPUs min).

    A point is dominated when another is at least as good on all three
    objectives and strictly better on one.  Order is preserved; exact
    duplicates on all three objectives are all kept.
    """
    pts = list(points)
    kept: list[PlanPoint] = []
    for a in pts:
        dominated = False
        for b in pts:
            if b is a:
                continue
            if (
                b.latency_s <= a.latency_s
                and b.throughput_rps >= a.throughput_rps
                and b.config.world <= a.config.world
                and (
                    b.latency_s < a.latency_s
                    or b.throughput_rps > a.throughput_rps
                    or b.config.world < a.config.world
                )
            ):
                dominated = True
                break
        if not dominated:
            kept.append(a)
    return kept


class PlannerBasis:
    """Cached symbolic basis for costing many configs of one workload.

    Holds the profiled traces (one per microbatch size) and the priced
    tensor-parallel axes (one per (tp, microbatch size)); costing a
    config is then array arithmetic.  ``stats`` counts how much work
    the caching avoided: ``configs_costed`` grows with the search,
    ``axis_builds`` and ``trace_profiles`` stay at the handful of
    distinct (tp, batch) pairs.
    """

    def __init__(
        self,
        model: Module,
        machine: MachineSpec | str,
        *,
        attention_impl: AttentionImpl = AttentionImpl.FLASH,
        tuning: TuningConstants = DEFAULT_TUNING,
        kv_bytes: float = 0.0,
    ):
        self.model = model
        self.machine = machine_from_name(machine)
        self.attention_impl = attention_impl
        self.tuning = tuning
        if not (math.isfinite(kv_bytes) and kv_bytes >= 0):
            raise ValueError(
                f"kv_bytes must be finite and >= 0, got {kv_bytes!r}"
            )
        self.kv_bytes = float(kv_bytes)
        self.param_bytes = float(model.param_bytes())
        self.model_name = getattr(model, "name", type(model).__name__)
        self._traces: dict[int, Trace] = {}
        self._axes: dict[tuple[int, int], TPAxis] = {}
        # (id(axis), pp, sp) -> (stage forward times, p2p times).
        self._stages: dict[
            tuple[int, int, bool],
            tuple[tuple[float, ...], tuple[float, ...]],
        ] = {}
        self.stats: dict[str, int] = {
            "trace_profiles": 0,
            "axis_builds": 0,
            "configs_costed": 0,
        }

    def trace(self, batch: int) -> Trace:
        """Profiled single-device trace at ``batch`` (cached)."""
        trace = self._traces.get(batch)
        if trace is None:
            from repro.profiler.profiler import profile_model

            trace = profile_model(
                self.model,
                gpu=self.machine.gpu,
                attention_impl=self.attention_impl,
                tuning=self.tuning,
                batch=batch,
            ).trace
            self._traces[batch] = trace
            self.stats["trace_profiles"] += 1
        return trace

    def axis(self, tp: int, batch: int) -> TPAxis:
        """Priced tensor-parallel axis at (tp, microbatch size) (cached)."""
        key = (tp, batch)
        axis = self._axes.get(key)
        if axis is None:
            axis = build_axis(
                self.trace(batch), tp, self.machine,
                tuning=self.tuning, batch=batch,
            )
            self._axes[key] = axis
            self.stats["axis_builds"] += 1
        return axis

    def _stage_split(
        self, axis: TPAxis, pp: int, sp: bool
    ) -> tuple[tuple[float, ...], tuple[float, ...]]:
        key = (id(axis), pp, sp)
        entry = self._stages.get(key)
        if entry is None:
            entry = split_stages(axis, pp, sp, self.machine)
            self._stages[key] = entry
        return entry

    def _forward_parts(
        self, config: ParallelConfig, replica_batch: int
    ) -> tuple[
        TPAxis, tuple[float, ...], tuple[float, ...], int, int
    ]:
        """Axis, stage times, p2p times, microbatch count and size."""
        m_eff = min(config.microbatches, replica_batch)
        mb = even_split(replica_batch, m_eff)[0]
        axis = self.axis(config.tp, mb)
        if config.pp > len(axis):
            raise ValueError(
                f"pp={config.pp} exceeds the trace's {len(axis)} events"
            )
        stage_times, p2p_times = self._stage_split(
            axis, config.pp, config.sequence_parallel
        )
        return axis, stage_times, p2p_times, m_eff, mb

    def replica_latency(
        self, config: ParallelConfig, replica_batch: int
    ) -> float:
        """One replica's batched forward latency at ``replica_batch``.

        This is the batch-latency curve the serving layer consumes
        (:func:`repro.serving.sharded.replica_from_plan`).
        """
        if replica_batch < 1:
            raise ValueError("replica_batch must be >= 1")
        _, stage_times, p2p_times, m_eff, _ = self._forward_parts(
            config, replica_batch
        )
        forward = tuple(t + p for t, p in zip(stage_times, p2p_times))
        return forward_makespan(forward, m_eff)

    def cost_config(
        self,
        config: ParallelConfig,
        *,
        global_batch: int = 8,
        backward_ratio: float = 2.0,
        memory_margin: float = 0.9,
    ) -> PlanPoint:
        """Price one configuration from the cached symbolic basis."""
        _check_costing(global_batch, backward_ratio, memory_margin)
        self.stats["configs_costed"] += 1
        replica_batch = even_split(global_batch, config.dp)[0]
        axis, stage_times, p2p_times, m_eff, mb = self._forward_parts(
            config, replica_batch
        )
        return _compose_point(
            axis, stage_times, p2p_times, m_eff, mb, config,
            param_bytes=self.param_bytes,
            kv_bytes=self.kv_bytes,
            capacity_bytes=self.machine.gpu.dram_capacity,
            global_batch=global_batch,
            backward_ratio=backward_ratio,
            memory_margin=memory_margin,
        )


@dataclass
class PlannerResult:
    """Outcome of one planner search."""

    model_name: str
    machine: MachineSpec
    gpu_budget: int
    global_batch: int
    points: list[PlanPoint]
    frontier: list[PlanPoint]
    stats: dict[str, int] = field(default_factory=dict)

    @property
    def feasible(self) -> list[PlanPoint]:
        """Points that fit the per-device memory cap."""
        return [p for p in self.points if p.fits]

    def best_throughput(self) -> PlanPoint:
        """Feasible point with the highest deployment throughput."""
        candidates = self.feasible
        if not candidates:
            raise ValueError("no feasible plan under the memory cap")
        return min(
            candidates,
            key=lambda p: (-p.throughput_rps, p.config.world, p.latency_s),
        )

    def best_latency(self) -> PlanPoint:
        """Feasible point with the lowest batched-forward latency."""
        candidates = self.feasible
        if not candidates:
            raise ValueError("no feasible plan under the memory cap")
        return min(
            candidates,
            key=lambda p: (p.latency_s, p.config.world, -p.throughput_rps),
        )


def plan_parallelism(
    model: Module,
    *,
    machine: MachineSpec | str = "dgx-a100-80g",
    gpu_budget: int = 8,
    global_batch: int = 8,
    microbatches: Sequence[int] = (1, 2, 4, 8),
    sequence_parallel: Sequence[bool] = (False, True),
    backward_ratio: float = 2.0,
    memory_margin: float = 0.9,
    kv_bytes: float = 0.0,
    attention_impl: AttentionImpl = AttentionImpl.FLASH,
    tuning: TuningConstants = DEFAULT_TUNING,
    basis: PlannerBasis | None = None,
) -> PlannerResult:
    """Search the parallelism space for one model on one machine.

    Enumerates canonical configs within ``gpu_budget``, costs each from
    the shared symbolic basis, and returns every point plus the Pareto
    frontier of the memory-feasible ones.  Deterministic: same inputs,
    same floats, same ordering — there is no randomness to seed.
    """
    _check_costing(global_batch, backward_ratio, memory_margin)
    configs = enumerate_configs(
        gpu_budget=gpu_budget,
        global_batch=global_batch,
        microbatches=microbatches,
        sequence_parallel=sequence_parallel,
    )
    if basis is None:
        basis = PlannerBasis(
            model, machine,
            attention_impl=attention_impl, tuning=tuning, kv_bytes=kv_bytes,
        )
    points: list[PlanPoint] = []
    for config in configs:
        points.append(
            basis.cost_config(
                config,
                global_batch=global_batch,
                backward_ratio=backward_ratio,
                memory_margin=memory_margin,
            )
        )
    frontier = pareto_frontier(p for p in points if p.fits)
    return PlannerResult(
        model_name=basis.model_name,
        machine=basis.machine,
        gpu_budget=gpu_budget,
        global_batch=global_batch,
        points=points,
        frontier=frontier,
        stats=dict(basis.stats),
    )
