"""FSDP training-step cost model.

The paper trains every model with Fully Sharded Data Parallelism over
multi-node A100 clusters (Section III).  One FSDP step per layer-group:

* forward: all-gather the shard's parameters, run forward compute;
* backward: all-gather again, run backward compute (~2x forward FLOPs),
  reduce-scatter gradients.

Compute comes from the same kernel cost models as inference; the
backward pass is derived from the forward trace (each GEMM/conv has a
data-gradient and a weight-gradient counterpart).  Collectives run over
a registered machine's topology
(:mod:`repro.distributed.registry`): a communicator inside one node
moves at the fabric's bandwidth, a larger one at the network's.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.distributed.registry import MachineSpec, machine_from_name
from repro.distributed.topology import Topology
from repro.ir.trace import Trace
from repro.ordered_sum import ordered_sum

BACKWARD_COMPUTE_MULTIPLIER = 2.0
"""dgrad + wgrad are each roughly one forward's FLOPs for GEMM/conv;
with selective recompute the multiplier in practice is ~2.0-2.5."""

RECOMPUTE_FRACTION = 0.7
"""Fraction of the forward re-executed during backward under the
checkpointing policy assumed in repro.training.memory."""

COLLECTIVE_LATENCY_S = 20e-6
"""Fixed launch latency of one FSDP collective, flat in world size."""


def _ring_collective_s(
    payload_bytes: float, world_size: int, topology: Topology
) -> float:
    """One ring all-gather or reduce-scatter of ``payload_bytes``.

    Each GPU moves ``(w-1)/w`` of the payload over the communicator's
    bounding link, after one launch latency; one GPU moves nothing.
    """
    if world_size <= 1:
        return 0.0
    wire = payload_bytes * (world_size - 1) / world_size
    return (
        COLLECTIVE_LATENCY_S
        + wire / topology.link_for(world_size).bandwidth
    )


@dataclass(frozen=True)
class FsdpStepCost:
    """Wall-clock decomposition of one FSDP training step (per GPU)."""

    forward_compute_s: float
    backward_compute_s: float
    recompute_s: float
    all_gather_s: float
    reduce_scatter_s: float
    overlap_fraction: float

    @property
    def compute_s(self) -> float:
        return (
            self.forward_compute_s
            + self.backward_compute_s
            + self.recompute_s
        )

    @property
    def communication_s(self) -> float:
        return self.all_gather_s + self.reduce_scatter_s

    @property
    def exposed_communication_s(self) -> float:
        """Communication not hidden behind compute."""
        hidden = min(
            self.communication_s * self.overlap_fraction, self.compute_s
        )
        return self.communication_s - hidden

    @property
    def step_time_s(self) -> float:
        return self.compute_s + self.exposed_communication_s

    @property
    def communication_fraction(self) -> float:
        return self.exposed_communication_s / self.step_time_s


def fsdp_step_cost(
    forward_trace: Trace,
    param_count: int,
    *,
    world_size: int,
    machine: MachineSpec | str = "dgx-a100-80g",
    layer_groups: int = 32,
    overlap_fraction: float = 0.7,
    dtype_bytes: int = 2,
) -> FsdpStepCost:
    """Estimate one training step from a single-GPU forward trace.

    Args:
        forward_trace: inference/forward trace of the model at the
            training batch size.
        param_count: total trainable parameters.
        world_size: FSDP world size (data-parallel degree).
        machine: registered machine (or its name) whose topology
            carries the collectives.
        layer_groups: FSDP wrapping granularity — each group triggers
            its own collectives (latency term).
        overlap_fraction: how much communication hides behind compute.
        dtype_bytes: bytes per parameter the collectives move.

    ``world_size``, ``layer_groups`` and ``dtype_bytes`` must each be an
    int >= 1; otherwise the ``ValueError`` names the field.
    """
    for name, value in (
        ("world_size", world_size),
        ("layer_groups", layer_groups),
        ("dtype_bytes", dtype_bytes),
    ):
        if not isinstance(value, int) or value < 1:
            raise ValueError(f"{name} must be an int >= 1, got {value!r}")
    if not 0.0 <= overlap_fraction <= 1.0:
        raise ValueError("overlap fraction must be in [0, 1]")
    forward = forward_trace.total_time_s
    backward = forward * BACKWARD_COMPUTE_MULTIPLIER
    recompute = forward * RECOMPUTE_FRACTION
    topology = machine_from_name(machine).topology
    param_bytes = float(param_count * dtype_bytes)
    group_bytes = param_bytes / layer_groups
    # Ring all-gather and reduce-scatter move the same volume.  Two
    # all-gathers (forward + backward) and one reduce-scatter (fp32
    # grads are reduced in fp16 here, matching common practice), added
    # group by group.
    per_group = [
        _ring_collective_s(group_bytes, world_size, topology)
    ] * layer_groups
    all_gather = 2 * ordered_sum(per_group)
    reduce_scatter = ordered_sum(per_group)
    return FsdpStepCost(
        forward_compute_s=forward,
        backward_compute_s=backward,
        recompute_s=recompute,
        all_gather_s=all_gather,
        reduce_scatter_s=reduce_scatter,
        overlap_fraction=overlap_fraction,
    )


@dataclass(frozen=True)
class ScalingPoint:
    """Throughput at one world size."""

    world_size: int
    step_time_s: float
    samples_per_second: float
    communication_fraction: float
    scaling_efficiency: float


def scaling_sweep(
    forward_trace: Trace,
    param_count: int,
    world_sizes: list[int],
    *,
    batch_per_gpu: int = 1,
    machine: MachineSpec | str = "dgx-a100-80g",
) -> list[ScalingPoint]:
    """Weak-scaling sweep: global throughput vs world size."""
    machine = machine_from_name(machine)
    if not world_sizes:
        raise ValueError("need at least one world size")
    points: list[ScalingPoint] = []
    baseline_per_gpu: float | None = None
    for world_size in sorted(world_sizes):
        cost = fsdp_step_cost(
            forward_trace, param_count, world_size=world_size,
            machine=machine,
        )
        throughput = world_size * batch_per_gpu / cost.step_time_s
        per_gpu = throughput / world_size
        if baseline_per_gpu is None:
            baseline_per_gpu = per_gpu
        points.append(
            ScalingPoint(
                world_size=world_size,
                step_time_s=cost.step_time_s,
                samples_per_second=throughput,
                communication_fraction=cost.communication_fraction,
                scaling_efficiency=per_gpu / baseline_per_gpu,
            )
        )
    return points
