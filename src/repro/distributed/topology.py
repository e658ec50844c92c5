"""Interconnect topologies: how a machine's GPUs are wired together.

A :class:`Topology` is two link classes and a node size: GPUs inside a
node talk over the fast fabric (NVLink/NVSwitch, Infinity Fabric, or
plain PCIe), and communicators spanning nodes are bounded by the network
link.  The collective model (:mod:`repro.distributed.collectives`)
prices every call over the bounding link with its per-link latency;
FSDP's training-step model (:mod:`repro.training.fsdp`) reads the same
link bandwidths and node size.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from repro.distributed.collectives import CollectiveCostModel, LinkSpec


@dataclass(frozen=True)
class Topology:
    """Interconnect description of one multi-GPU machine class.

    Attributes:
        name: topology name, e.g. ``"NVSwitch-8"``.
        intra_node: link between GPUs sharing a node.
        inter_node: per-GPU network link between nodes.
        gpus_per_node: GPUs inside one fast-fabric domain.
    """

    name: str
    intra_node: LinkSpec
    inter_node: LinkSpec
    gpus_per_node: int = 8

    def __post_init__(self) -> None:
        if self.gpus_per_node <= 0:
            raise ValueError("gpus_per_node must be positive")

    def link_for(self, world_size: int) -> LinkSpec:
        """Bounding link for a communicator of ``world_size`` ranks.

        Communicators contained in one node run at the fabric's speed;
        anything larger is bounded by the network (the slowest link in
        the ring).
        """
        if world_size <= 0:
            raise ValueError("world size must be positive")
        if world_size <= self.gpus_per_node:
            return self.intra_node
        return self.inter_node

    def nodes_for(self, world_size: int) -> int:
        """Number of nodes a ``world_size``-rank job occupies."""
        if world_size <= 0:
            raise ValueError("world size must be positive")
        return math.ceil(world_size / self.gpus_per_node)

    def cost_model(self, world_size: int) -> CollectiveCostModel:
        """Collective cost model over the bounding link for this world."""
        return CollectiveCostModel(self.link_for(world_size))
