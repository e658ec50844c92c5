"""Sharded replicas: serving simulation over multi-GPU servers.

The fleet engine (:func:`repro.serving.fleet.simulate_fleet`) treats a
server as a batch-latency function.  A :class:`ShardedReplica` produces
that function for a *group* of GPUs running one tensor-parallel (or
pipeline-parallel) model instance: per-batch latencies come from the
distributed profiler, so collective overheads and shard inefficiency
flow straight into fleet-level latency/throughput numbers.  This closes
the Section V loop — whether throwing a TP group at a model beats
running independent replicas is exactly the capacity-planning question
the serving layer exists to answer.

The batch-latency functions a replica produces are profiled once and
then pure, so the fleet engine can memoize them.  All times are
seconds.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING

from repro.distributed.registry import MachineSpec, machine_from_name
from repro.ir.context import AttentionImpl
from repro.ir.module import Module
from repro.serving.batching import BatchLatencyFn, interpolated_batch_latency

if TYPE_CHECKING:
    from repro.distributed.planner import (
        ParallelConfig,
        PlannerBasis,
        PlanPoint,
    )
    from repro.serving.fleet import PoolSpec


@dataclass(frozen=True)
class ShardedReplica:
    """One model instance sharded across ``world`` GPUs.

    Attributes:
        model_name: which workload the replica serves.
        machine_name: registry name of the hardware it runs on.
        world: GPUs in the replica's parallel group.
        strategy: partition strategy label (e.g. ``"tp=4"``).
        latency_fn: batch size -> one service invocation's latency.
    """

    model_name: str
    machine_name: str
    world: int
    strategy: str
    latency_fn: BatchLatencyFn

    def latency(self, batch: int) -> float:
        """Service latency of one batched invocation on this replica."""
        return self.latency_fn(batch)

    @property
    def gpus(self) -> int:
        """GPU cost of the replica (for per-GPU throughput accounting)."""
        return self.world


def sharded_replica(
    model: Module,
    *,
    machine: MachineSpec | str = "dgx-a100-80g",
    world: int = 1,
    strategy: str = "tp",
    batches: tuple[int, ...] = (1, 2, 4, 8),
    attention_impl: AttentionImpl = AttentionImpl.FLASH,
    overlap: float = 0.0,
) -> ShardedReplica:
    """Build a replica whose batch-latency curve is measured sharded.

    Profiles the model at each batch size in ``batches`` under the
    given partitioning and fits the piecewise-linear latency function
    a fleet pool consumes
    (:func:`repro.serving.fleet.pool_from_replicas`).
    """
    machine = machine_from_name(machine)
    # Local import: repro.serving must stay importable without the
    # profiler stack loaded (workload generation is dependency-free).
    from repro.profiler.distributed import profile_sharded

    measured: dict[int, float] = {}
    for batch in batches:
        result = profile_sharded(
            model, machine=machine, world=world, strategy=strategy,
            attention_impl=attention_impl, batch=batch, overlap=overlap,
            keep_entries=False,
        )
        measured[batch] = result.total_time_s
    return ShardedReplica(
        model_name=getattr(model, "name", type(model).__name__),
        machine_name=machine.name,
        world=world,
        strategy=f"{strategy}={world}",
        latency_fn=interpolated_batch_latency(measured),
    )


def replica_from_plan(
    model: Module,
    config: "ParallelConfig",
    *,
    machine: MachineSpec | str = "dgx-a100-80g",
    batches: tuple[int, ...] = (1, 2, 4, 8),
    basis: "PlannerBasis | None" = None,
    attention_impl: AttentionImpl = AttentionImpl.FLASH,
    kv_bytes: float = 0.0,
) -> ShardedReplica:
    """Build a replica executing one auto-planner configuration.

    The batch-latency curve comes from the planner's symbolic basis
    (:meth:`repro.distributed.planner.PlannerBasis.replica_latency`),
    so the replica prices exactly like the plan the search ranked —
    pipeline wavefront, collectives and boundary transfers included.
    Pass the ``basis`` used for planning to reuse its cached axes.
    """
    machine = machine_from_name(machine)
    # Local import: repro.serving must stay importable without the
    # profiler/planner stack loaded.
    from repro.distributed.planner import PlannerBasis

    if basis is None:
        basis = PlannerBasis(
            model, machine,
            attention_impl=attention_impl, kv_bytes=kv_bytes,
        )
    measured = {
        batch: basis.replica_latency(config, batch) for batch in batches
    }
    return ShardedReplica(
        model_name=basis.model_name,
        machine_name=machine.name,
        world=config.replica_world,
        strategy=config.label,
        latency_fn=interpolated_batch_latency(measured),
    )


def planned_pool(
    name: str,
    model: Module,
    *,
    machine: MachineSpec | str = "dgx-a100-80g",
    gpu_budget: int = 8,
    global_batch: int = 8,
    objective: str = "throughput",
    batches: tuple[int, ...] = (1, 2, 4, 8),
    attention_impl: AttentionImpl = AttentionImpl.FLASH,
    kv_bytes: float = 0.0,
    servers: int | None = None,
    basis: "PlannerBasis | None" = None,
    **pool_kwargs: object,
) -> "tuple[PoolSpec, PlanPoint]":
    """Run the auto-planner and wire its winning plan into a fleet pool.

    Searches the parallelism space for ``model`` on ``machine``, picks
    the best feasible plan for ``objective`` (``"throughput"`` or
    ``"latency"``), and returns a :class:`repro.serving.fleet.PoolSpec`
    whose servers are that plan's replicas — ``servers`` defaults to
    the plan's data-parallel degree, so the pool occupies exactly the
    planned GPU budget — plus the winning :class:`PlanPoint`.  Pass the
    ``basis`` of an earlier search of the same model and machine to
    reuse its cached traces and axes.
    """
    if objective not in ("throughput", "latency"):
        raise ValueError("objective must be 'throughput' or 'latency'")
    machine = machine_from_name(machine)
    from repro.distributed.planner import PlannerBasis, plan_parallelism
    from repro.serving.fleet import pool_from_replicas

    if basis is None:
        basis = PlannerBasis(
            model, machine,
            attention_impl=attention_impl, kv_bytes=kv_bytes,
        )
    result = plan_parallelism(
        model, machine=machine, gpu_budget=gpu_budget,
        global_batch=global_batch, basis=basis,
    )
    point = (
        result.best_throughput() if objective == "throughput"
        else result.best_latency()
    )
    replica = replica_from_plan(
        model, point.config, machine=machine, batches=batches, basis=basis,
    )
    pool = pool_from_replicas(
        name,
        [replica],
        servers=point.config.dp if servers is None else servers,
        **pool_kwargs,
    )
    return pool, point
