"""Hardware/backend registry: named multi-GPU machine configurations.

A :class:`MachineSpec` pairs a :class:`repro.hw.spec.GPUSpec` with the
:class:`repro.distributed.topology.Topology` its GPUs are wired into —
the unit the distributed profiler, the scaling analyses and the serving
simulator select hardware by.  The built-in registry covers the paper's
A100 baseline, its 40 GB variant, the H100 "future hardware" point
Section V argues about, a PCIe-only A100 box (to expose topology
sensitivity), and one non-NVIDIA part (AMD MI300X).

The full table, with peak FLOPs / HBM bandwidth / interconnect per
entry, is rendered in ``docs/HARDWARE.md`` via
:func:`render_machine_table`.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.distributed.collectives import (
    IB_HDR,
    IB_NDR,
    INFINITY_FABRIC,
    NVLINK3,
    NVLINK4,
    PCIE4_X16,
)
from repro.distributed.topology import Topology
from repro.hw.spec import (
    A100_40GB,
    A100_80GB,
    H100_80GB,
    MI300X_192GB,
    GPUSpec,
)
from repro.ir.dtypes import FP16


@dataclass(frozen=True)
class MachineSpec:
    """One registered multi-GPU machine configuration.

    Attributes:
        name: registry key, e.g. ``"dgx-h100"``.
        gpu: per-device hardware spec.
        topology: interconnect wiring between the devices.
        description: one-line provenance note for the docs table.
    """

    name: str
    gpu: GPUSpec
    topology: Topology
    description: str = ""


NVSWITCH3_8 = Topology(
    "NVSwitch3-8", intra_node=NVLINK3, inter_node=IB_HDR, gpus_per_node=8
)
NVSWITCH4_8 = Topology(
    "NVSwitch4-8", intra_node=NVLINK4, inter_node=IB_NDR, gpus_per_node=8
)
PCIE_8 = Topology(
    "PCIe4-8", intra_node=PCIE4_X16, inter_node=IB_HDR, gpus_per_node=8
)
IF_8 = Topology(
    "InfinityFabric-8", intra_node=INFINITY_FABRIC, inter_node=IB_NDR,
    gpus_per_node=8,
)

DGX_A100_80G = MachineSpec(
    name="dgx-a100-80g",
    gpu=A100_80GB,
    topology=NVSWITCH3_8,
    description="the paper's characterization platform (Section III)",
)
DGX_A100_40G = MachineSpec(
    name="dgx-a100-40g",
    gpu=A100_40GB,
    topology=NVSWITCH3_8,
    description="capacity-constrained A100 variant",
)
PCIE_A100 = MachineSpec(
    name="pcie-a100",
    gpu=A100_80GB,
    topology=PCIE_8,
    description="A100s without NVSwitch; exposes topology sensitivity",
)
DGX_H100 = MachineSpec(
    name="dgx-h100",
    gpu=H100_80GB,
    topology=NVSWITCH4_8,
    description="Section V's future-hardware projection point",
)
MI300X_NODE = MachineSpec(
    name="mi300x-node",
    gpu=MI300X_192GB,
    topology=IF_8,
    description="non-NVIDIA backend (CDNA3, Infinity Fabric mesh)",
)

MACHINES: dict[str, MachineSpec] = {
    machine.name: machine
    for machine in (
        DGX_A100_80G, DGX_A100_40G, PCIE_A100, DGX_H100, MI300X_NODE,
    )
}


def machine_names() -> list[str]:
    """Sorted names of all registered machines."""
    return sorted(MACHINES)


def machine_from_name(name: MachineSpec | str) -> MachineSpec:
    """Look up a registered machine by name.

    A :class:`MachineSpec` is returned unchanged, so every entry point
    that takes ``machine: MachineSpec | str`` resolves it with this one
    call.
    """
    if isinstance(name, MachineSpec):
        return name
    try:
        return MACHINES[name]
    except KeyError:
        raise ValueError(
            f"unknown machine {name!r}; known: {machine_names()}"
        ) from None


def register_machine(machine: MachineSpec, *, replace: bool = False) -> None:
    """Add a machine to the registry (for user-defined backends).

    Replacing a machine invalidates every kernel cost priced on the
    outgoing GPU spec: the cost cache is content-addressed, so a
    *changed* spec could never alias a stale entry, but a replacement
    that reuses the old GPU name must not leave dead costs pinned in
    the process-wide table.
    """
    if machine.name in MACHINES and not replace:
        raise ValueError(f"machine {machine.name!r} already registered")
    previous = MACHINES.get(machine.name)
    MACHINES[machine.name] = machine
    if previous is not None and previous.gpu != machine.gpu:
        from repro.kernels.cache import GLOBAL_COST_CACHE

        GLOBAL_COST_CACHE.invalidate_spec(previous.gpu)


def render_machine_table() -> str:
    """Markdown table of every registered machine (docs/HARDWARE.md)."""
    lines = [
        "| machine | GPU | FP16 peak | HBM BW | HBM cap | "
        "intra-node link | inter-node link | GPUs/node |",
        "|---|---|---|---|---|---|---|---|",
    ]
    for name in machine_names():
        machine = MACHINES[name]
        gpu, topo = machine.gpu, machine.topology
        lines.append(
            f"| `{name}` | {gpu.name} "
            f"| {gpu.peak_flops_for(FP16) / 1e12:.0f} TFLOP/s "
            f"| {gpu.dram_bandwidth / 1e12:.2f} TB/s "
            f"| {gpu.dram_capacity / 1024**3:.0f} GiB "
            f"| {topo.intra_node.name} "
            f"({topo.intra_node.bandwidth / 1e9:.0f} GB/s) "
            f"| {topo.inter_node.name} "
            f"({topo.inter_node.bandwidth / 1e9:.0f} GB/s) "
            f"| {topo.gpus_per_node} |"
        )
    return "\n".join(lines)
