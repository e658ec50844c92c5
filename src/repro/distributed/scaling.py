"""Strong/weak scaling analysis over the distributed executor.

Section V of the paper argues that multi-modal generation will lean on
larger models and future hardware; these sweeps quantify how far
sharding one inference actually goes.  Strong scaling fixes the problem
(one batch) and grows the tensor-parallel group; weak scaling grows the
batch with the data-parallel replica count.  Both report efficiency —
``t1 / (w * tw)`` for strong, ``t1 / tw`` for weak — with communication
broken out from compute so the limiter is visible.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.distributed.partition import DataParallel, strategy_from_name
from repro.distributed.registry import MachineSpec, machine_from_name
from repro.distributed.timeline import build_timelines
from repro.ir.context import AttentionImpl
from repro.ir.module import Module
from repro.ir.trace import Trace
from repro.kernels.base import DEFAULT_TUNING, TuningConstants
from repro.reporting.table import render_table


@dataclass(frozen=True)
class ScalingPoint:
    """One world size in a scaling sweep.

    Attributes:
        world: number of devices.
        time_s: end-to-end latency of one (sharded) inference.
        compute_time_s: critical-path compute component.
        comm_time_s: exposed communication component.
        speedup: single-device time over this point's time.
        efficiency: strong: ``speedup / world``; weak: ``t1 / tw``.
    """

    world: int
    time_s: float
    compute_time_s: float
    comm_time_s: float
    speedup: float
    efficiency: float

    @property
    def comm_fraction(self) -> float:
        """Share of the latency spent in exposed communication."""
        return self.comm_time_s / self.time_s if self.time_s > 0 else 0.0


def _profile_trace(
    model: Module,
    machine: MachineSpec,
    attention_impl: AttentionImpl,
    tuning: TuningConstants,
    batch: int,
) -> Trace:
    # Imported here: profiler builds on distributed's sibling layers and
    # importing it at module scope would be circular once the profiler
    # re-exports the distributed entry points.
    from repro.profiler.profiler import profile_model

    return profile_model(
        model, gpu=machine.gpu, attention_impl=attention_impl,
        tuning=tuning, batch=batch,
    ).trace


def strong_scaling(
    model: Module,
    machine: MachineSpec | str,
    worlds: tuple[int, ...] = (1, 2, 4, 8),
    *,
    strategy: str = "tp",
    attention_impl: AttentionImpl = AttentionImpl.FLASH,
    tuning: TuningConstants = DEFAULT_TUNING,
    batch: int = 1,
    overlap: float = 0.0,
) -> list[ScalingPoint]:
    """Fixed problem, growing device count.

    The model is profiled once on the machine's GPU; each world size
    re-partitions the same trace with the chosen strategy and prices it
    against the machine topology.
    """
    if not worlds or any(w < 1 for w in worlds):
        raise ValueError("worlds must be positive")
    machine = machine_from_name(machine)
    trace = _profile_trace(model, machine, attention_impl, tuning, batch)
    # Single-device reference.  A one-rank plan of any strategy has no
    # collective and re-prices every op on the GPU that profiled it, so
    # its makespan is this total too.
    t1 = trace.total_time_s
    points: list[ScalingPoint] = []
    for world in worlds:
        dist = build_timelines(
            strategy_from_name(strategy, world, batch=batch).partition(trace),
            machine, tuning=tuning, overlap=overlap, keep_entries=False,
        )
        time_s = dist.total_time_s
        speedup = t1 / time_s if time_s > 0 else 0.0
        points.append(
            ScalingPoint(
                world=world,
                time_s=time_s,
                compute_time_s=dist.compute_time_s,
                comm_time_s=dist.exposed_comm_time_s,
                speedup=speedup,
                efficiency=speedup / world,
            )
        )
    return points


def weak_scaling(
    model: Module,
    machine: MachineSpec | str,
    worlds: tuple[int, ...] = (1, 2, 4, 8),
    *,
    base_batch: int = 1,
    attention_impl: AttentionImpl = AttentionImpl.FLASH,
    tuning: TuningConstants = DEFAULT_TUNING,
    overlap: float = 0.0,
) -> list[ScalingPoint]:
    """Problem grows with the machine: ``batch = base_batch * world``.

    Uses data parallelism (each replica keeps ``base_batch``); ideal
    efficiency is flat at 1.0, and deviations measure how much per-GPU
    batch efficiency the growing fleet keeps.
    """
    if not worlds or any(w < 1 for w in worlds):
        raise ValueError("worlds must be positive")
    machine = machine_from_name(machine)
    points: list[ScalingPoint] = []
    t1: float | None = None
    for world in worlds:
        batch = base_batch * world
        trace = _profile_trace(model, machine, attention_impl, tuning, batch)
        dist = build_timelines(
            DataParallel(world, batch=batch).partition(trace),
            machine, tuning=tuning, overlap=overlap, keep_entries=False,
        )
        time_s = dist.total_time_s
        if t1 is None:
            t1 = time_s
        points.append(
            ScalingPoint(
                world=world,
                time_s=time_s,
                compute_time_s=dist.compute_time_s,
                comm_time_s=dist.exposed_comm_time_s,
                speedup=t1 / time_s if time_s > 0 else 0.0,
                efficiency=t1 / time_s if time_s > 0 else 0.0,
            )
        )
    return points


def scaling_table(
    points: list[ScalingPoint], *, title: str = "Scaling"
) -> str:
    """Render a scaling sweep as a text table (examples, experiments)."""
    rows = [
        [
            point.world,
            f"{point.time_s * 1e3:.1f}",
            f"{point.compute_time_s * 1e3:.1f}",
            f"{point.comm_time_s * 1e3:.1f}",
            f"{point.speedup:.2f}x",
            f"{point.efficiency * 100:.0f}%",
        ]
        for point in points
    ]
    return render_table(
        ["GPUs", "latency ms", "compute ms", "comm ms", "speedup",
         "efficiency"],
        rows,
        title=title,
    )
