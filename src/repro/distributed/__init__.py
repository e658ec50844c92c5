"""Distributed execution: sharding, collectives, multi-GPU machines.

The paper characterizes single-A100 inference; this package extends the
symbolic execution model to multi-GPU serving, the direction Section V
argues the field is headed:

* :mod:`repro.distributed.collectives` — alpha-beta cost model for
  all-reduce / all-gather / reduce-scatter / send-recv with ring/tree
  algorithm selection;
* :mod:`repro.distributed.topology` — link classes (NVLink, PCIe,
  InfiniBand, Infinity Fabric) wired into machine topologies;
* :mod:`repro.distributed.registry` — named multi-GPU machines pairing
  a :class:`~repro.hw.spec.GPUSpec` with its interconnect;
* :mod:`repro.distributed.sharding` /
  :mod:`repro.distributed.partition` — Megatron-style tensor
  parallelism and batch-slicing data parallelism over recorded traces;
* :mod:`repro.distributed.timeline` — per-device timelines with
  compute/communication overlap;
* :mod:`repro.distributed.scaling` — strong/weak scaling sweeps;
* :mod:`repro.distributed.schedule` — GPipe vs 1F1B pipeline-schedule
  simulators with explicit bubble accounting;
* :mod:`repro.distributed.planner` — parallelism auto-planner:
  enumerate (tp, pp, dp, microbatch, sequence-parallel) configs and
  cost them symbolically from cached per-axis bases, emitting
  Pareto-optimal plans under per-device memory caps.

See ``docs/DISTRIBUTED.md`` for the model's assumptions and
``docs/HARDWARE.md`` for the machine registry.
"""

from repro.distributed.collectives import (
    IB_HDR,
    IB_NDR,
    INFINITY_FABRIC,
    NVLINK3,
    NVLINK4,
    PCIE4_X16,
    PCIE5_X16,
    CollectiveAlgorithm,
    CollectiveCostModel,
    CollectiveEstimate,
    CollectiveKind,
    LinkSpec,
    ring_all_gather_time,
    ring_all_reduce_time,
    ring_reduce_scatter_time,
    send_recv_time,
    tree_all_reduce_time,
)
from repro.distributed.partition import (
    CommSpec,
    DataParallel,
    DistributedPlan,
    PartitionStrategy,
    PlanClass,
    TensorParallel,
    TraceClasses,
    strategy_from_name,
    trace_classes,
)
from repro.distributed.planner import (
    ParallelConfig,
    PlannerBasis,
    PlannerResult,
    PlanPoint,
    TPAxis,
    build_axis,
    enumerate_configs,
    pareto_frontier,
    plan_parallelism,
)
from repro.distributed.registry import (
    DGX_A100_40G,
    DGX_A100_80G,
    DGX_H100,
    MACHINES,
    MI300X_NODE,
    PCIE_A100,
    MachineSpec,
    machine_from_name,
    machine_names,
    register_machine,
    render_machine_table,
)
from repro.distributed.schedule import (
    ScheduleResult,
    forward_makespan,
    ideal_bubble_fraction,
    simulate_1f1b,
    simulate_gpipe,
)
from repro.distributed.scaling import (
    ScalingPoint,
    scaling_table,
    strong_scaling,
    weak_scaling,
)
from repro.distributed.sharding import (
    ShardRole,
    even_split,
    proportional_split,
    shard_op,
)
from repro.distributed.timeline import (
    DeviceTimeline,
    DistributedTrace,
    TimelineEntry,
    build_timelines,
    render_timeline_summary,
)
from repro.distributed.topology import Topology

__all__ = [
    "CollectiveAlgorithm",
    "CollectiveCostModel",
    "CollectiveEstimate",
    "CollectiveKind",
    "CommSpec",
    "DGX_A100_40G",
    "DGX_A100_80G",
    "DGX_H100",
    "DataParallel",
    "DeviceTimeline",
    "DistributedPlan",
    "DistributedTrace",
    "IB_HDR",
    "IB_NDR",
    "INFINITY_FABRIC",
    "LinkSpec",
    "MACHINES",
    "MI300X_NODE",
    "MachineSpec",
    "NVLINK3",
    "NVLINK4",
    "PCIE4_X16",
    "PCIE5_X16",
    "PCIE_A100",
    "ParallelConfig",
    "PartitionStrategy",
    "PlanClass",
    "PlanPoint",
    "PlannerBasis",
    "PlannerResult",
    "ScalingPoint",
    "ScheduleResult",
    "ShardRole",
    "TPAxis",
    "TensorParallel",
    "TimelineEntry",
    "Topology",
    "TraceClasses",
    "build_axis",
    "build_timelines",
    "enumerate_configs",
    "even_split",
    "forward_makespan",
    "ideal_bubble_fraction",
    "trace_classes",
    "machine_from_name",
    "machine_names",
    "pareto_frontier",
    "plan_parallelism",
    "proportional_split",
    "register_machine",
    "render_machine_table",
    "render_timeline_summary",
    "ring_all_gather_time",
    "ring_all_reduce_time",
    "ring_reduce_scatter_time",
    "scaling_table",
    "send_recv_time",
    "shard_op",
    "simulate_1f1b",
    "simulate_gpipe",
    "strategy_from_name",
    "strong_scaling",
    "tree_all_reduce_time",
    "weak_scaling",
]
