"""Distributed profiling: capture a model and price it on many GPUs.

The multi-GPU counterpart of :func:`repro.profiler.profiler.profile_model`:
one call captures the model's symbolic trace on the target machine's
GPU, shards it with the requested strategy, and returns per-device
timelines with compute/communication overlap — the distributed analog
of the paper's per-kernel timeline view.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.distributed.partition import DistributedPlan, strategy_from_name
from repro.distributed.registry import MachineSpec, machine_from_name
from repro.distributed.timeline import DistributedTrace, build_timelines
from repro.ir.context import AttentionImpl
from repro.ir.module import Module
from repro.ir.trace import Trace
from repro.kernels.base import DEFAULT_TUNING, TuningConstants


@dataclass
class DistributedProfileResult:
    """Sharded-execution profile plus the configuration that produced it."""

    model_name: str
    machine: MachineSpec
    strategy: str
    world: int
    plan: DistributedPlan
    source_trace: Trace
    timelines: DistributedTrace

    @property
    def total_time_s(self) -> float:
        """End-to-end latency of the sharded inference."""
        return self.timelines.total_time_s

    @property
    def compute_time_s(self) -> float:
        """Critical-path compute time (slowest rank)."""
        return self.timelines.compute_time_s

    @property
    def comm_time_s(self) -> float:
        """Exposed communication time on the critical path."""
        return self.timelines.exposed_comm_time_s

    @property
    def comm_fraction(self) -> float:
        """Share of latency spent in exposed communication."""
        return self.timelines.comm_fraction


def profile_sharded(
    model: Module,
    *,
    machine: MachineSpec | str = "dgx-a100-80g",
    world: int = 1,
    strategy: str = "tp",
    attention_impl: AttentionImpl = AttentionImpl.FLASH,
    tuning: TuningConstants = DEFAULT_TUNING,
    batch: int = 1,
    overlap: float = 0.0,
    keep_entries: bool = True,
) -> DistributedProfileResult:
    """Profile one inference sharded over ``world`` devices.

    ``strategy`` is ``"tp"`` or ``"dp"``.  Distributed stacks
    run fused attention in practice, so the default ``attention_impl``
    is FLASH (unlike the single-device profiler, which defaults to the
    paper's baseline lowering).
    """
    machine = machine_from_name(machine)
    # Local import: repro.profiler.profiler builds on the same layers
    # this module re-packages; importing lazily keeps module import
    # order flexible for the package __init__.
    from repro.profiler.profiler import profile_model

    result = profile_model(
        model, gpu=machine.gpu, attention_impl=attention_impl,
        tuning=tuning, batch=batch,
    )
    plan = strategy_from_name(strategy, world, batch=batch).partition(
        result.trace
    )
    timelines = build_timelines(
        plan, machine, tuning=tuning, overlap=overlap,
        keep_entries=keep_entries,
    )
    return DistributedProfileResult(
        model_name=result.model_name,
        machine=machine,
        strategy=plan.strategy,
        world=world,
        plan=plan,
        source_trace=result.trace,
        timelines=timelines,
    )
