"""Analytical collective-communication cost model.

Multi-GPU execution of the paper's workloads (Section V's scaling
discussion) is priced by the alpha-beta model every collective library
is tuned against: a collective over ``p`` ranks decomposes into steps,
each costing one link latency (alpha) plus wire bytes over link
bandwidth (beta).  Two algorithm families are modelled, matching the
NCCL choices that matter at inference payload sizes:

* **ring** — bandwidth-optimal; an all-reduce moves ``2(p-1)/p`` of the
  payload per rank over ``2(p-1)`` latency-bearing steps;
* **tree** — latency-optimal; ``O(log p)`` steps but the full payload
  crosses a link at every step.

:class:`CollectiveCostModel` picks the faster algorithm per call, which
reproduces NCCL's small-message/large-message switch.  Divergences from
real NCCL behaviour (protocol overheads, SM occupancy of communication
kernels, multi-rail rings) are documented in ``docs/DISTRIBUTED.md``.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass

from repro.ir.interned import IdentityEnum


@dataclass(frozen=True)
class LinkSpec:
    """One interconnect link class between devices.

    Attributes:
        name: link family, e.g. ``"NVLink3"``.
        bandwidth: per-GPU bandwidth in bytes/s, each direction.
        latency_s: per-message latency of one hop over this link.
    """

    name: str
    bandwidth: float
    latency_s: float

    def __post_init__(self) -> None:
        if self.bandwidth <= 0:
            raise ValueError("link bandwidth must be positive")
        if self.latency_s < 0:
            raise ValueError("link latency must be non-negative")

    def transfer_time(self, payload_bytes: float) -> float:
        """Point-to-point time for one message over this link."""
        if payload_bytes < 0:
            raise ValueError("payload must be non-negative")
        return self.latency_s + payload_bytes / self.bandwidth


# Link presets (per-GPU, per-direction; see docs/HARDWARE.md).
NVLINK3 = LinkSpec("NVLink3", bandwidth=300e9, latency_s=2.0e-6)
NVLINK4 = LinkSpec("NVLink4", bandwidth=450e9, latency_s=2.0e-6)
PCIE4_X16 = LinkSpec("PCIe4-x16", bandwidth=32e9, latency_s=5.0e-6)
PCIE5_X16 = LinkSpec("PCIe5-x16", bandwidth=64e9, latency_s=5.0e-6)
IB_HDR = LinkSpec("IB-HDR-200", bandwidth=25e9, latency_s=5.0e-6)
IB_NDR = LinkSpec("IB-NDR-400", bandwidth=50e9, latency_s=5.0e-6)
INFINITY_FABRIC = LinkSpec("InfinityFabric3", bandwidth=384e9,
                           latency_s=2.5e-6)


class CollectiveKind(IdentityEnum):
    """The collective operations the partitioners emit."""

    ALL_REDUCE = "all_reduce"
    ALL_GATHER = "all_gather"
    REDUCE_SCATTER = "reduce_scatter"
    SEND_RECV = "send_recv"


class CollectiveAlgorithm(enum.Enum):
    """Algorithm family used to execute a collective."""

    RING = "ring"
    TREE = "tree"


@dataclass(frozen=True)
class CollectiveEstimate:
    """Priced execution of one collective call.

    Attributes:
        kind: which collective.
        payload_bytes: logical tensor size being communicated.
        world_size: ranks participating.
        time_s: modelled wall time.
        algorithm: ring or tree, whichever was cheaper.
        wire_bytes: bytes crossing the busiest link per rank.
        link: the link class the time was computed against.
    """

    kind: CollectiveKind
    payload_bytes: float
    world_size: int
    time_s: float
    algorithm: CollectiveAlgorithm
    wire_bytes: float
    link: LinkSpec

    def scaled(self, factor: int) -> "CollectiveEstimate":
        """This collective issued ``factor`` times back to back."""
        if factor < 1:
            raise ValueError("scale factor must be >= 1")
        if factor == 1:
            return self
        return CollectiveEstimate(
            kind=self.kind,
            payload_bytes=self.payload_bytes * factor,
            world_size=self.world_size,
            time_s=self.time_s * factor,
            algorithm=self.algorithm,
            wire_bytes=self.wire_bytes * factor,
            link=self.link,
        )


def ring_all_reduce_time(
    payload_bytes: float, world_size: int, link: LinkSpec
) -> float:
    """Ring all-reduce: reduce-scatter then all-gather.

    ``2(p-1)`` steps each move ``payload/p`` over the link:
    ``t = 2(p-1) * (alpha + payload / (p * beta))``.
    """
    if world_size <= 1:
        return 0.0
    steps = 2 * (world_size - 1)
    return steps * (link.latency_s + payload_bytes / (world_size * link.bandwidth))


def tree_all_reduce_time(
    payload_bytes: float, world_size: int, link: LinkSpec
) -> float:
    """Binary-tree all-reduce (reduce up, broadcast down).

    ``2 * ceil(log2 p)`` hops each carry the full payload:
    ``t = 2 * ceil(log2 p) * (alpha + payload / beta)``.
    """
    if world_size <= 1:
        return 0.0
    hops = 2 * math.ceil(math.log2(world_size))
    return hops * link.transfer_time(payload_bytes)


def ring_all_gather_time(
    payload_bytes: float, world_size: int, link: LinkSpec
) -> float:
    """Ring all-gather: ``(p-1)`` steps each moving ``payload/p``.

    ``payload_bytes`` is the size of the *gathered* tensor (each rank
    contributes ``payload/p``).
    """
    if world_size <= 1:
        return 0.0
    steps = world_size - 1
    return steps * (link.latency_s + payload_bytes / (world_size * link.bandwidth))


def ring_reduce_scatter_time(
    payload_bytes: float, world_size: int, link: LinkSpec
) -> float:
    """Ring reduce-scatter moves the same wire volume as all-gather."""
    return ring_all_gather_time(payload_bytes, world_size, link)


def send_recv_time(payload_bytes: float, link: LinkSpec) -> float:
    """Point-to-point activation transfer (pipeline-stage boundary)."""
    return link.transfer_time(payload_bytes)


class CollectiveCostModel:
    """Prices collectives over one link class.

    The model is flat: the slowest link in the communicator bounds every
    step, which is the standard single-rail approximation (hierarchical
    NCCL rings are discussed as a divergence in ``docs/DISTRIBUTED.md``).
    """

    def __init__(self, link: LinkSpec):
        self.link = link

    def all_reduce(
        self, payload_bytes: float, world_size: int
    ) -> CollectiveEstimate:
        """Price an all-reduce, picking the cheaper of ring and tree."""
        self._check(payload_bytes, world_size)
        ring = ring_all_reduce_time(payload_bytes, world_size, self.link)
        tree = tree_all_reduce_time(payload_bytes, world_size, self.link)
        if tree < ring:
            algorithm, time_s = CollectiveAlgorithm.TREE, tree
            wire = 2 * math.ceil(math.log2(max(world_size, 2))) * payload_bytes
        else:
            algorithm, time_s = CollectiveAlgorithm.RING, ring
            wire = (
                2 * (world_size - 1) / world_size * payload_bytes
                if world_size > 1 else 0.0
            )
        return CollectiveEstimate(
            kind=CollectiveKind.ALL_REDUCE,
            payload_bytes=payload_bytes,
            world_size=world_size,
            time_s=time_s,
            algorithm=algorithm,
            wire_bytes=wire,
            link=self.link,
        )

    def all_gather(
        self, payload_bytes: float, world_size: int
    ) -> CollectiveEstimate:
        """Price a ring all-gather of the full ``payload_bytes`` tensor."""
        self._check(payload_bytes, world_size)
        time_s = ring_all_gather_time(payload_bytes, world_size, self.link)
        wire = (
            (world_size - 1) / world_size * payload_bytes
            if world_size > 1 else 0.0
        )
        return CollectiveEstimate(
            kind=CollectiveKind.ALL_GATHER,
            payload_bytes=payload_bytes,
            world_size=world_size,
            time_s=time_s,
            algorithm=CollectiveAlgorithm.RING,
            wire_bytes=wire,
            link=self.link,
        )

    def reduce_scatter(
        self, payload_bytes: float, world_size: int
    ) -> CollectiveEstimate:
        """Price a ring reduce-scatter of ``payload_bytes``."""
        self._check(payload_bytes, world_size)
        time_s = ring_reduce_scatter_time(payload_bytes, world_size, self.link)
        wire = (
            (world_size - 1) / world_size * payload_bytes
            if world_size > 1 else 0.0
        )
        return CollectiveEstimate(
            kind=CollectiveKind.REDUCE_SCATTER,
            payload_bytes=payload_bytes,
            world_size=world_size,
            time_s=time_s,
            algorithm=CollectiveAlgorithm.RING,
            wire_bytes=wire,
            link=self.link,
        )

    def send_recv(self, payload_bytes: float) -> CollectiveEstimate:
        """Price a point-to-point transfer between two ranks."""
        if payload_bytes < 0:
            raise ValueError("payload must be non-negative")
        return CollectiveEstimate(
            kind=CollectiveKind.SEND_RECV,
            payload_bytes=payload_bytes,
            world_size=2,
            time_s=send_recv_time(payload_bytes, self.link),
            algorithm=CollectiveAlgorithm.RING,
            wire_bytes=payload_bytes,
            link=self.link,
        )

    def estimate(
        self, kind: CollectiveKind, payload_bytes: float, world_size: int
    ) -> CollectiveEstimate:
        """Dispatch on :class:`CollectiveKind`."""
        if kind is CollectiveKind.ALL_REDUCE:
            return self.all_reduce(payload_bytes, world_size)
        if kind is CollectiveKind.ALL_GATHER:
            return self.all_gather(payload_bytes, world_size)
        if kind is CollectiveKind.REDUCE_SCATTER:
            return self.reduce_scatter(payload_bytes, world_size)
        return self.send_recv(payload_bytes)

    @staticmethod
    def _check(payload_bytes: float, world_size: int) -> None:
        if payload_bytes < 0:
            raise ValueError("payload must be non-negative")
        if world_size < 1:
            raise ValueError("world size must be >= 1")
