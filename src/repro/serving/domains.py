"""Correlated failure domains and recovery orchestration.

The fault layer (:mod:`repro.serving.faults`) injects *independent*
per-server crashes and stragglers; real availability is dominated by
*correlated* loss — a zone outage or a top-of-rack switch failure
takes out whole slices of capacity at once, and the retry storm on
recovery is often worse than the outage.  This module adds the
failure-domain model on top without touching the engine's event
semantics:

* a **server → host → rack → zone topology** (:class:`DomainTopology`)
  over fleet-wide server ids, built from explicit columns, a regular
  grid (:func:`grid_topology`), or the pool layout itself
  (:func:`topology_for_pools`, reading :attr:`PoolSpec.zone`);
* **correlated fault events** — :class:`ZoneOutage` /
  :class:`RackOutage` (every contained server crashes, with staggered
  deterministic jitter), :class:`NetworkPartition` (a domain severed
  from the dispatcher), :class:`DegradedLink` (a window in which
  sharded-replica collectives run over a degraded link, the slowdown
  derived from the :mod:`repro.distributed` alpha-beta cost model via
  :func:`collective_slowdown`);
* a **compiler** (:func:`compile_campaign`) that lowers those events
  to the existing per-server
  :class:`~repro.serving.faults.FaultSchedule` plus — when an
  :class:`OrchestrationConfig` is given — a
  :class:`~repro.serving.faults.RecoveryPlan` of scheduled
  cordon/uncordon control actions and domain-transition markers.

Because fault schedules are known inputs, recovery orchestration
(warm-standby promotion at detection time, staggered re-admission
after recovery to suppress thundering-herd retry storms) compiles to
*scheduled* actions rather than runtime feedback — so the engine
replays a campaign deterministically with only two tiny handlers
(cordon/uncordon).  Determinism contract: one
``random.Random(seed)`` consumed in a fixed, documented order (per
event in listed order; outages draw one jitter per contained server in
ascending server-id order, and only when ``stagger_s > 0``).

All times are seconds.  The compiler's outputs are plain
``faults``/``plan`` inputs to ``simulate_fleet``.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Mapping, Sequence, Union

from repro.serving.faults import (
    ControlAction,
    Crash,
    DomainMarker,
    FaultSchedule,
    RecoveryPlan,
    Straggler,
    _require_finite,
)
from repro.serving.fleet import PoolSpec

DOMAIN_SCOPES = ("host", "rack", "zone")
"""Domain granularities, innermost first."""


@dataclass(frozen=True)
class DomainTopology:
    """Server → host → rack → zone placement for one fleet.

    Each column maps a fleet-wide server id (the same ids
    ``simulate_fleet`` assigns: pool-by-pool in declaration order,
    active servers then standbys) to its containing domain.  The
    hierarchy must nest: every host lives in exactly one rack, every
    rack in exactly one zone.

    Attributes:
        host_of: per-server host id.
        rack_of: per-server rack id.
        zone_of: per-server zone id.
    """

    host_of: tuple[int, ...]
    rack_of: tuple[int, ...]
    zone_of: tuple[int, ...]

    def __post_init__(self) -> None:
        n = len(self.host_of)
        if n == 0:
            raise ValueError("topology needs at least one server")
        if len(self.rack_of) != n or len(self.zone_of) != n:
            raise ValueError("topology columns must align")
        for column in (self.host_of, self.rack_of, self.zone_of):
            if any(value < 0 for value in column):
                raise ValueError("domain ids must be non-negative")
        host_rack: dict[int, int] = {}
        rack_zone: dict[int, int] = {}
        for sid in range(n):
            host, rack, zone = (
                self.host_of[sid], self.rack_of[sid], self.zone_of[sid]
            )
            if host_rack.setdefault(host, rack) != rack:
                raise ValueError(
                    f"host {host} spans racks — domains must nest"
                )
            if rack_zone.setdefault(rack, zone) != zone:
                raise ValueError(
                    f"rack {rack} spans zones — domains must nest"
                )

    @property
    def servers(self) -> int:
        """Fleet-wide server count the topology covers."""
        return len(self.host_of)

    @property
    def zones(self) -> int:
        """Number of distinct zones."""
        return len(set(self.zone_of))

    @property
    def racks(self) -> int:
        """Number of distinct racks."""
        return len(set(self.rack_of))

    def domain_of(self, sid: int, scope: str) -> int:
        """The ``scope`` domain id containing server ``sid``."""
        column = self._column(scope)
        if not 0 <= sid < len(column):
            raise ValueError(
                f"server {sid} outside topology "
                f"(0..{len(column) - 1})"
            )
        return column[sid]

    def servers_in(self, scope: str, index: int) -> tuple[int, ...]:
        """All server ids inside one domain, ascending."""
        column = self._column(scope)
        return tuple(
            sid for sid, value in enumerate(column) if value == index
        )

    def _column(self, scope: str) -> tuple[int, ...]:
        if scope == "zone":
            return self.zone_of
        if scope == "rack":
            return self.rack_of
        if scope == "host":
            return self.host_of
        raise ValueError(
            f"unknown scope {scope!r}; known: {DOMAIN_SCOPES}"
        )


def grid_topology(
    servers: int,
    *,
    servers_per_host: int = 1,
    hosts_per_rack: int = 4,
    racks_per_zone: int = 4,
) -> DomainTopology:
    """A regular topology over contiguous server-id blocks.

    Server ``s`` lives on host ``s // servers_per_host``; hosts pack
    into racks and racks into zones the same way.  The last domain at
    each level may be partially filled.
    """
    if servers <= 0:
        raise ValueError("need at least one server")
    if min(servers_per_host, hosts_per_rack, racks_per_zone) < 1:
        raise ValueError("grid factors must be positive")
    host_of = tuple(
        sid // servers_per_host for sid in range(servers)
    )
    rack_of = tuple(host // hosts_per_rack for host in host_of)
    zone_of = tuple(rack // racks_per_zone for rack in rack_of)
    return DomainTopology(
        host_of=host_of, rack_of=rack_of, zone_of=zone_of
    )


def fleet_server_ids(
    pools: Sequence[PoolSpec],
) -> tuple[tuple[int, int, int], ...]:
    """Per-pool ``(first_sid, active_servers, total_servers)``.

    Replicates the engine's server-id assignment (pool-by-pool in
    declaration order, active servers before standbys) so campaign
    compilation and topologies can target "server 2 of pool 1" stably.
    """
    rows = []
    sid = 0
    for spec in pools:
        total = spec.servers + spec.standby_servers
        rows.append((sid, spec.servers, total))
        sid += total
    return tuple(rows)


def topology_for_pools(
    pools: Sequence[PoolSpec],
) -> DomainTopology:
    """The topology implied by the pool layout.

    Each pool is one rack; each server its own host; each pool's
    :attr:`PoolSpec.zone` (defaulting to the pool's declaration index
    when unset) names its zone.  This is the natural model for
    pool-per-zone fleets — the serve4 experiment's layout — and covers
    standby servers too (they share their pool's placement).
    """
    if not pools:
        raise ValueError("need at least one pool")
    host_of: list[int] = []
    rack_of: list[int] = []
    zone_of: list[int] = []
    for pidx, (spec, (sid0, _, total)) in enumerate(
        zip(pools, fleet_server_ids(pools))
    ):
        zone = spec.zone if spec.zone is not None else pidx
        for local in range(total):
            host_of.append(sid0 + local)
            rack_of.append(pidx)
            zone_of.append(zone)
    return DomainTopology(
        host_of=tuple(host_of), rack_of=tuple(rack_of),
        zone_of=tuple(zone_of),
    )


# -- correlated fault events ------------------------------------------


@dataclass(frozen=True)
class ZoneOutage:
    """Every server in one zone crashes (power/cooling loss).

    Servers die at ``at_s`` plus a deterministic per-server jitter
    drawn uniformly from ``[0, stagger_s)`` (failures propagate across
    a zone over seconds, not instantly); the zone is restored at
    ``at_s + duration_s``.

    Attributes:
        zone: zone id the outage hits.
        at_s: outage start.
        duration_s: time until the zone's power is back.
        stagger_s: crash-jitter spread (must stay below
            ``duration_s``).
    """

    zone: int
    at_s: float
    duration_s: float
    stagger_s: float = 0.0

    def __post_init__(self) -> None:
        _validate_window(self)
        _validate_stagger(self)


@dataclass(frozen=True)
class RackOutage:
    """Every server in one rack crashes (top-of-rack switch death)."""

    rack: int
    at_s: float
    duration_s: float
    stagger_s: float = 0.0

    def __post_init__(self) -> None:
        _validate_window(self)
        _validate_stagger(self)


@dataclass(frozen=True)
class NetworkPartition:
    """A domain severed from the dispatcher for a window.

    Partitioned servers can neither receive work nor return results —
    in-flight batches are lost to the client exactly as in a crash, so
    the compiler lowers a partition to simultaneous crashes (no
    jitter: a link cut is instantaneous).  Under orchestration the
    dispatcher *fences* the domain at detection time instead of
    blindly re-dispatching into it, and re-admits it with stagger.

    Attributes:
        scope: ``"zone"`` or ``"rack"``.
        index: domain id within that scope.
        at_s: partition start.
        duration_s: window length.
    """

    scope: str
    index: int
    at_s: float
    duration_s: float

    def __post_init__(self) -> None:
        _validate_window(self)
        _validate_scope(self.scope)


@dataclass(frozen=True)
class DegradedLink:
    """A window in which a domain's interconnect loses bandwidth.

    Sharded replicas keep serving but their collectives crawl: in the
    alpha-beta model (:mod:`repro.distributed.collectives`) the beta
    term scales with ``1 / bandwidth``, so a replica spending
    ``comm_fraction`` of its latency in exposed communication slows
    down by :func:`collective_slowdown`.  Compiles to
    :class:`~repro.serving.faults.Straggler` windows — the gray-failure
    mode orchestration deliberately does *not* act on.

    Attributes:
        scope: ``"zone"`` or ``"rack"``.
        index: domain id within that scope.
        at_s: window start.
        duration_s: window length.
        bandwidth_factor: remaining link bandwidth in ``(0, 1)``.
        comm_fraction: share of replica latency spent in exposed
            collectives (measure with
            :func:`repro.profiler.distributed.profile_sharded` —
            ``ShardedProfile.comm_fraction``).
    """

    scope: str
    index: int
    at_s: float
    duration_s: float
    bandwidth_factor: float
    comm_fraction: float

    def __post_init__(self) -> None:
        _validate_window(self)
        _validate_scope(self.scope)
        _require_finite(
            "bandwidth_factor", self.bandwidth_factor,
            0.0 < self.bandwidth_factor < 1.0, "in (0, 1)",
        )
        _require_finite(
            "comm_fraction", self.comm_fraction,
            0.0 <= self.comm_fraction <= 1.0, "in [0, 1]",
        )


CampaignEvent = Union[
    ZoneOutage, RackOutage, NetworkPartition, DegradedLink
]
"""Any correlated fault event a campaign may contain."""

EVENT_KIND_NAMES = {
    ZoneOutage: "zone_outage",
    RackOutage: "rack_outage",
    NetworkPartition: "partition",
    DegradedLink: "degraded_link",
}
"""Stable kind strings per event type (markers, serialization)."""

EVENT_SCOPES = ("zone", "rack")
"""Domain scopes a partition or degraded link may target."""


def _validate_window(event) -> None:
    _require_finite("at_s", event.at_s, event.at_s >= 0, "non-negative")
    _require_finite(
        "duration_s", event.duration_s, event.duration_s > 0, "positive"
    )


def _validate_stagger(event) -> None:
    _require_finite(
        "stagger_s", event.stagger_s,
        0.0 <= event.stagger_s < event.duration_s, "in [0, duration_s)",
    )


def _validate_scope(scope: str) -> None:
    if scope not in EVENT_SCOPES:
        raise ValueError(
            f"unknown scope {scope!r}; known: {EVENT_SCOPES}"
        )


def event_domain(event: CampaignEvent) -> tuple[str, int]:
    """The ``(scope, index)`` domain an event targets."""
    if isinstance(event, ZoneOutage):
        return ("zone", event.zone)
    if isinstance(event, RackOutage):
        return ("rack", event.rack)
    return (event.scope, event.index)


def collective_slowdown(
    comm_fraction: float, bandwidth_factor: float
) -> float:
    """Latency multiplier for collectives over a degraded link.

    With ``f`` the share of replica latency in exposed communication
    and the link at ``bandwidth_factor`` of nominal bandwidth, the
    alpha-beta transfer term inflates by ``1 / bandwidth_factor`` and
    compute is untouched::

        slowdown = (1 - f) + f / bandwidth_factor

    Returns 1.0 (no slowdown) when ``f == 0``.
    """
    if not 0.0 <= comm_fraction <= 1.0:
        raise ValueError("comm_fraction must be in [0, 1]")
    if not 0.0 < bandwidth_factor <= 1.0:
        raise ValueError("bandwidth_factor must be in (0, 1]")
    return (
        (1.0 - comm_fraction) + comm_fraction / bandwidth_factor
    )


# -- recovery orchestration -------------------------------------------


@dataclass(frozen=True)
class OrchestrationConfig:
    """How the fleet reacts to a detected domain failure.

    Attributes:
        detection_delay_s: time from failure onset to detection
            (the MTTD the monitoring stack achieves).
        readmission_stagger_s: spacing between successive server
            re-admissions when a domain recovers.  Zero re-admits the
            whole domain at one instant — the thundering-herd control
            arm.
        promote_stagger_s: spacing between successive warm-standby
            promotions after detection.
        max_promotions: cap on standbys promoted per event (``None``
            promotes up to the number of servers lost).
        demote_on_recovery: cordon promoted standbys once the failed
            domain is fully re-admitted.
    """

    detection_delay_s: float = 10.0
    readmission_stagger_s: float = 5.0
    promote_stagger_s: float = 0.0
    max_promotions: int | None = None
    demote_on_recovery: bool = True

    def __post_init__(self) -> None:
        for name in (
            "detection_delay_s", "readmission_stagger_s",
            "promote_stagger_s",
        ):
            value = getattr(self, name)
            _require_finite(name, value, value >= 0, "non-negative")
        if self.max_promotions is not None and self.max_promotions < 0:
            raise ValueError("max_promotions must be non-negative")


@dataclass(frozen=True)
class CompiledEvent:
    """One campaign event after lowering (the accounting view).

    Attributes:
        kind: event kind string (:data:`EVENT_KIND_NAMES`).
        label: domain label, ``"zone:2"`` / ``"rack:0"``.
        at_s: failure onset.
        detected_s: detection time under orchestration, else ``None``.
        restored_s: when the last affected server is back in service
            (includes re-admission stagger — MTTR is
            ``restored_s - at_s``).
        servers: affected fleet-wide server ids, ascending.
    """

    kind: str
    label: str
    at_s: float
    detected_s: float | None
    restored_s: float
    servers: tuple[int, ...]

    @property
    def mttd_s(self) -> float | None:
        """Time to detect, or ``None`` when never detected."""
        if self.detected_s is None:
            return None
        return self.detected_s - self.at_s

    @property
    def mttr_s(self) -> float:
        """Time from onset to full restoration."""
        return self.restored_s - self.at_s


@dataclass(frozen=True)
class CompiledCampaign:
    """A campaign lowered to engine inputs plus accounting.

    ``faults`` and ``plan`` go straight into ``simulate_fleet(...,
    faults=..., plan=...)``; ``events`` feeds
    :func:`repro.serving.slo.domain_slo_report`.  ``plan`` is ``None``
    when compiled without orchestration.
    """

    faults: FaultSchedule
    plan: RecoveryPlan | None
    events: tuple[CompiledEvent, ...]
    topology: DomainTopology
    seed: int


def compile_campaign(
    topology: DomainTopology,
    events: Sequence[CampaignEvent],
    *,
    pools: Sequence[PoolSpec] | None = None,
    seed: int = 0,
    orchestration: OrchestrationConfig | None = None,
) -> CompiledCampaign:
    """Lower correlated domain events to per-server engine inputs.

    Draw order (the determinism contract): one ``random.Random(seed)``
    consumed per event in listed order; zone/rack outages with
    ``stagger_s > 0`` draw one jitter per contained server in
    ascending server-id order, every other event draws nothing — so
    adding a partition never perturbs an outage's jitter.

    With ``orchestration`` set, the compiler also plans recovery:
    warm-standby promotion (``uncordon`` of standby servers outside
    the failed domain, needing ``pools`` to locate standbys),
    partition fencing (``cordon`` at detection), staggered
    re-admission, demotion after restoration, and domain-transition
    markers.  Without it, every affected server recovers at the same
    instant — the thundering-herd baseline.

    Overlapping events on one domain are lowered independently
    (best-effort: the engine ignores crashes on already-down servers and
    redundant cordons); generators keep domains disjoint in time.
    """
    rng = random.Random(seed)
    crashes: list[Crash] = []
    stragglers: list[Straggler] = []
    actions: list[ControlAction] = []
    markers: list[DomainMarker] = []
    compiled: list[CompiledEvent] = []
    standby_sids: tuple[int, ...] = ()
    if pools is not None:
        rows = fleet_server_ids(pools)
        total = rows[-1][0] + rows[-1][2] if rows else 0
        if total != topology.servers:
            raise ValueError(
                f"topology covers {topology.servers} servers but the "
                f"pools define {total} (including standbys)"
            )
        standby_sids = tuple(
            sid
            for sid0, active, count in rows
            for sid in range(sid0 + active, sid0 + count)
        )

    for event in events:
        scope, index = event_domain(event)
        servers = topology.servers_in(scope, index)
        if not servers:
            raise ValueError(
                f"{scope}:{index} contains no servers"
            )
        label = f"{scope}:{index}"
        kind = EVENT_KIND_NAMES[type(event)]
        end = event.at_s + event.duration_s

        if isinstance(event, DegradedLink):
            slowdown = collective_slowdown(
                event.comm_fraction, event.bandwidth_factor
            )
            if slowdown > 1.0:
                for sid in servers:
                    stragglers.append(Straggler(
                        server=sid, at_s=event.at_s,
                        duration_s=event.duration_s,
                        slowdown=slowdown,
                    ))
            compiled.append(CompiledEvent(
                kind=kind, label=label, at_s=event.at_s,
                detected_s=None, restored_s=end, servers=servers,
            ))
            continue

        if isinstance(event, (ZoneOutage, RackOutage)):
            jitters = [
                rng.uniform(0.0, event.stagger_s)
                if event.stagger_s > 0.0 else 0.0
                for _ in servers
            ]
            crash_times = [
                event.at_s + jitter for jitter in jitters
            ]
        else:  # NetworkPartition: the link cut is instantaneous.
            crash_times = [event.at_s] * len(servers)

        detected: float | None = None
        fence: float | None = None
        if orchestration is not None:
            detect = event.at_s + orchestration.detection_delay_s
            if isinstance(event, NetworkPartition):
                # Fence the domain at detection: in-flight work at
                # partition start is lost once, then the dispatcher
                # stops routing there until recovery.
                if detect < end:
                    detected = detect
                    fence = detect
            else:
                detected = detect

        stagger = (
            orchestration.readmission_stagger_s
            if orchestration is not None else 0.0
        )
        rejoin_times = [
            end + k * stagger for k in range(len(servers))
        ]
        restored = rejoin_times[-1]

        for sid, crash_at, rejoin in zip(
            servers, crash_times, rejoin_times
        ):
            if fence is not None:
                # Orchestrated partition: the crash window ends at the
                # fence; a cordon holds the server out until rejoin.
                crashes.append(Crash(
                    server=sid, at_s=crash_at,
                    downtime_s=fence - crash_at,
                ))
                actions.append(ControlAction(
                    at_s=fence, kind="cordon", server=sid
                ))
                actions.append(ControlAction(
                    at_s=rejoin, kind="uncordon", server=sid
                ))
            else:
                crashes.append(Crash(
                    server=sid, at_s=crash_at,
                    downtime_s=rejoin - crash_at,
                ))

        if orchestration is not None and detected is not None:
            markers.append(DomainMarker(
                at_s=event.at_s, kind="domain_down",
                domain=label, event=kind,
            ))
            markers.append(DomainMarker(
                at_s=detected, kind="domain_detected",
                domain=label, event=kind,
            ))
            markers.append(DomainMarker(
                at_s=restored, kind="domain_up",
                domain=label, event=kind,
            ))
            # Warm-standby promotion: activate standbys outside the
            # failed domain, staggered, demoted after restoration.
            candidates = [
                sid for sid in standby_sids
                if topology.domain_of(sid, scope) != index
            ]
            limit = len(servers)
            if orchestration.max_promotions is not None:
                limit = min(limit, orchestration.max_promotions)
            for k, sid in enumerate(candidates[:limit]):
                promote_at = (
                    detected + k * orchestration.promote_stagger_s
                )
                actions.append(ControlAction(
                    at_s=promote_at, kind="uncordon", server=sid
                ))
                if orchestration.demote_on_recovery:
                    actions.append(ControlAction(
                        at_s=restored, kind="cordon", server=sid
                    ))

        compiled.append(CompiledEvent(
            kind=kind, label=label, at_s=event.at_s,
            detected_s=detected, restored_s=restored,
            servers=servers,
        ))

    crashes.sort(key=lambda crash: (crash.at_s, crash.server))
    stragglers.sort(key=lambda window: (window.at_s, window.server))
    actions.sort(
        key=lambda action: (action.at_s, action.server, action.kind)
    )
    markers.sort(
        key=lambda marker: (marker.at_s, marker.domain, marker.kind)
    )
    plan = (
        RecoveryPlan(actions=tuple(actions), markers=tuple(markers))
        if orchestration is not None else None
    )
    return CompiledCampaign(
        faults=FaultSchedule(
            crashes=tuple(crashes), stragglers=tuple(stragglers)
        ),
        plan=plan,
        events=tuple(compiled),
        topology=topology,
        seed=seed,
    )


def domain_downtime(
    compiled: CompiledCampaign, makespan_s: float
) -> Mapping[str, float]:
    """Server-downtime seconds per domain label, clipped to the run.

    Sums every compiled crash window intersected with
    ``[0, makespan_s]``, attributed to the zone (and rack) containing
    the crashed server — the numerator of per-domain availability.
    """
    if makespan_s < 0:
        raise ValueError("makespan must be non-negative")
    down: dict[str, float] = {}
    topology = compiled.topology
    for crash in compiled.faults.crashes:
        start = min(crash.at_s, makespan_s)
        stop = min(crash.recover_s, makespan_s)
        window = stop - start
        if window <= 0.0:
            continue
        for scope in ("zone", "rack"):
            label = f"{scope}:{topology.domain_of(crash.server, scope)}"
            down[label] = down.get(label, 0.0) + window
    return down
