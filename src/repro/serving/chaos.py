"""Chaos campaigns: seeded fault generation, invariants, shrinking.

A *campaign* is a reproducible set of correlated fault events over a
failure-domain topology (:mod:`repro.serving.domains`).  This module
provides the harness around them:

* :func:`generate_campaign` — a seeded generator drawing randomized
  zone/rack outages, partitions, and degraded-link windows from
  per-domain Poisson processes (one ``random.Random(seed)``, fixed
  draw order, so campaigns are bit-reproducible);
* a **versioned byte-deterministic JSONL serialization**
  (:func:`dumps_campaign` / :func:`loads_campaign`) in the
  canonical-JSONL envelope every record file shares
  (:mod:`repro.jsonl`), so campaigns can be committed, diffed, and
  validated in CI (``tools/check_jsonl.py``);
* :func:`check_invariants` — structural correctness checks every
  fleet report must satisfy regardless of what chaos did: each
  submitted request reaches exactly one terminal state, clocks are
  monotone per request, nothing terminates after the makespan,
  shed + completed + failed conserve the offered count, and quality
  debt stays bounded by the brownout ladder;
* :func:`shrink_campaign` — greedy ddmin-style minimization of a
  failing campaign, so an invariant violation found under a 40-event
  campaign comes back as the two events that actually trigger it.

Run ``python -m repro.serving.chaos`` for a self-contained smoke
campaign (generate, round-trip the campaign file, compile, simulate
unorchestrated and orchestrated, assert the invariants) — the CI
chaos gate.
"""

from __future__ import annotations

import random
from dataclasses import MISSING, asdict, dataclass, fields, replace
from itertools import chain
from pathlib import Path
from typing import Callable, Sequence

import numpy as np

from repro import jsonl
from repro.serving.domains import (
    EVENT_KIND_NAMES,
    CampaignEvent,
    CompiledCampaign,
    DegradedLink,
    DomainTopology,
    NetworkPartition,
    OrchestrationConfig,
    RackOutage,
    ZoneOutage,
    compile_campaign,
    event_domain,
)
from repro.serving.faults import _require_finite
from repro.serving.fleet import FleetReport
from repro.serving.resilience import BrownoutConfig
from repro.serving.workload import as_request_batch

CAMPAIGN_SCHEMA = "repro-chaos-campaign"
"""Schema identifier stamped into every campaign file header."""

CAMPAIGN_VERSION = 1
"""Current campaign schema version."""


@dataclass(frozen=True)
class ChaosCampaign:
    """A reproducible correlated-fault scenario.

    Attributes:
        topology: the failure-domain tree the events live in.
        events: correlated fault events, sorted by onset time.
        duration_s: the traffic window the campaign was generated
            for (events start inside it; recovery may run past it).
        seed: generator seed (0 for hand-written campaigns).
    """

    topology: DomainTopology
    events: tuple[CampaignEvent, ...]
    duration_s: float
    seed: int = 0

    def __post_init__(self) -> None:
        if self.duration_s <= 0:
            raise ValueError("duration must be positive")
        last = 0.0
        for event in self.events:
            if event.at_s < last:
                raise ValueError("events must be time-ordered")
            last = event.at_s

    def compile(
        self,
        *,
        pools=None,
        orchestration: OrchestrationConfig | None = None,
    ) -> CompiledCampaign:
        """Lower to engine inputs (see :func:`compile_campaign`).

        The compile seed is the campaign seed, so jitter is pinned by
        the campaign file itself.
        """
        return compile_campaign(
            self.topology, self.events, pools=pools,
            seed=self.seed, orchestration=orchestration,
        )


@dataclass(frozen=True)
class ChaosConfig:
    """Event-rate knobs for :func:`generate_campaign`.

    Rates are events per second per domain (a zone-outage rate of
    ``1/3600`` gives each zone one outage per simulated hour on
    average).  Zone outages draw over zones; rack outages, partitions,
    and degraded links draw over racks.

    Attributes:
        zone_outage_rate: zone power-loss rate per zone.
        rack_outage_rate: rack-switch-death rate per rack.
        partition_rate: rack partition rate per rack.
        degraded_rate: degraded-link-window rate per rack.
        mean_duration_s: mean event duration; each event draws
            uniformly from ``[0.5, 1.5] * mean``.
        stagger_s: outage crash-jitter spread (clamped below the
            drawn duration).
        bandwidth_factor: remaining bandwidth during degraded links.
        comm_fraction: exposed-collective share for degraded links.
    """

    zone_outage_rate: float = 0.0
    rack_outage_rate: float = 0.0
    partition_rate: float = 0.0
    degraded_rate: float = 0.0
    mean_duration_s: float = 60.0
    stagger_s: float = 0.0
    bandwidth_factor: float = 0.25
    comm_fraction: float = 0.3

    def __post_init__(self) -> None:
        for name in (
            "zone_outage_rate", "rack_outage_rate", "partition_rate",
            "degraded_rate", "stagger_s",
        ):
            value = getattr(self, name)
            _require_finite(name, value, value >= 0, "non-negative")
        _require_finite(
            "mean_duration_s", self.mean_duration_s,
            self.mean_duration_s > 0, "positive",
        )
        _require_finite(
            "bandwidth_factor", self.bandwidth_factor,
            0.0 < self.bandwidth_factor < 1.0, "in (0, 1)",
        )
        _require_finite(
            "comm_fraction", self.comm_fraction,
            0.0 <= self.comm_fraction <= 1.0, "in [0, 1]",
        )


def generate_campaign(
    topology: DomainTopology,
    config: ChaosConfig,
    *,
    duration_s: float,
    seed: int = 0,
) -> ChaosCampaign:
    """Draw a randomized correlated-fault campaign over the tree.

    Draw order (the determinism contract): one ``random.Random(seed)``
    consumed as a Poisson process per ``(event kind, domain)`` pair —
    zone outages over zones ascending, then rack outages, partitions,
    and degraded links over racks ascending.  Each arrival draws an
    exponential gap then a uniform duration.  Within one ``(kind,
    domain)`` stream events never overlap (the clock advances past
    each event's end); across kinds overlap is possible and the
    compiler tolerates it.
    """
    _require_finite("duration_s", duration_s, duration_s > 0, "positive")
    rng = random.Random(seed)
    events: list[CampaignEvent] = []

    def _windows(rate: float):
        """Poisson arrivals with non-overlapping durations."""
        if rate <= 0.0:
            return
        t = rng.expovariate(rate)
        while t < duration_s:
            span = config.mean_duration_s * (0.5 + rng.random())
            yield t, span
            t = t + span + rng.expovariate(rate)

    zone_ids = sorted(set(topology.zone_of))
    rack_ids = sorted(set(topology.rack_of))
    for zone in zone_ids:
        for at, span in _windows(config.zone_outage_rate):
            stagger = min(config.stagger_s, 0.5 * span)
            events.append(ZoneOutage(
                zone=zone, at_s=at, duration_s=span,
                stagger_s=stagger,
            ))
    for rack in rack_ids:
        for at, span in _windows(config.rack_outage_rate):
            stagger = min(config.stagger_s, 0.5 * span)
            events.append(RackOutage(
                rack=rack, at_s=at, duration_s=span,
                stagger_s=stagger,
            ))
    for rack in rack_ids:
        for at, span in _windows(config.partition_rate):
            events.append(NetworkPartition(
                scope="rack", index=rack, at_s=at, duration_s=span,
            ))
    for rack in rack_ids:
        for at, span in _windows(config.degraded_rate):
            events.append(DegradedLink(
                scope="rack", index=rack, at_s=at, duration_s=span,
                bandwidth_factor=config.bandwidth_factor,
                comm_fraction=config.comm_fraction,
            ))
    events.sort(key=lambda event: (event.at_s,) + event_domain(event))
    return ChaosCampaign(
        topology=topology, events=tuple(events),
        duration_s=duration_s, seed=seed,
    )


# -- serialization ----------------------------------------------------


_EVENT_TYPES = {name: kind for kind, name in EVENT_KIND_NAMES.items()}
_CASTS = {"zone": int, "rack": int, "index": int, "scope": str}
"""On-disk event fields that are not floats, with their types."""


def _event_record(event: CampaignEvent) -> dict:
    return {
        "kind": "event", "event": EVENT_KIND_NAMES[type(event)],
        **asdict(event),
    }


def _event_from_record(record: dict) -> CampaignEvent:
    event_type = _EVENT_TYPES.get(record["event"])
    if event_type is None:
        raise ValueError(f"unknown event {record['event']!r}")
    return event_type(**{
        spec.name: _CASTS.get(spec.name, float)(record[spec.name])
        for spec in fields(event_type)
        if spec.name in record or spec.default is MISSING
    })


def _topology_from_record(record: dict) -> DomainTopology:
    return DomainTopology(**{
        column: tuple(int(v) for v in record[column])
        for column in ("host_of", "rack_of", "zone_of")
    })


def dumps_campaign(campaign: ChaosCampaign) -> str:
    """Serialize to the versioned campaign JSONL schema (v1).

    The file is in the canonical-JSONL envelope (:mod:`repro.jsonl`):
    line 1 is the header (schema id, version, seed, duration, server
    count); line 2 the topology columns; then one ``event`` record per
    event in campaign order.  Equal campaigns serialize to identical
    bytes and save -> load -> save is the identity (pinned by tests
    and the CI record schema gate).
    """
    topology = campaign.topology
    header = {
        "schema": CAMPAIGN_SCHEMA,
        "version": CAMPAIGN_VERSION,
        "seed": int(campaign.seed),
        "duration_s": float(campaign.duration_s),
        "servers": topology.servers,
    }
    return jsonl.dumps(header, chain(
        [{
            "kind": "topology",
            "host_of": list(topology.host_of),
            "rack_of": list(topology.rack_of),
            "zone_of": list(topology.zone_of),
        }],
        map(_event_record, campaign.events),
    ))


def loads_campaign(text: str) -> ChaosCampaign:
    """Parse campaign JSONL produced by :func:`dumps_campaign`."""
    header, records = jsonl.loads(
        text, schema=CAMPAIGN_SCHEMA, version=CAMPAIGN_VERSION,
        parsers={"topology": _topology_from_record,
                 "event": _event_from_record},
    )
    if len(records["topology"]) != 1:
        raise ValueError(
            "a campaign file needs exactly one topology record, this "
            f"one has {len(records['topology'])}"
        )
    return ChaosCampaign(
        topology=records["topology"][0],
        events=tuple(records["event"]),
        duration_s=float(header["duration_s"]),
        seed=int(header["seed"]),
    )


def save_campaign(campaign: ChaosCampaign, path: str | Path) -> None:
    """Write a campaign to ``path`` as canonical JSONL."""
    Path(path).write_text(dumps_campaign(campaign), encoding="utf-8")


def load_campaign(path: str | Path) -> ChaosCampaign:
    """Read a campaign written by :func:`save_campaign`."""
    return loads_campaign(Path(path).read_text(encoding="utf-8"))


# -- invariant checking -----------------------------------------------

INVARIANTS = (
    "terminal_exactly_once",
    "conservation",
    "clock_monotone",
    "no_post_makespan_events",
    "quality_debt_bounded",
    "pool_accounting",
    "finite_times",
)
"""Names of the structural invariants, in check order."""


@dataclass(frozen=True)
class InvariantReport:
    """Outcome of :func:`check_invariants`.

    Attributes:
        checked: invariant names that ran (:data:`INVARIANTS`).
        violations: human-readable violation descriptions; empty
            means the report is structurally sound.
    """

    checked: tuple[str, ...]
    violations: tuple[str, ...]

    @property
    def ok(self) -> bool:
        """True when no invariant was violated."""
        return not self.violations

    def render(self) -> str:
        """Multi-line summary (for CLI/experiment output)."""
        if self.ok:
            return (
                f"invariants ok ({len(self.checked)} checked)"
            )
        lines = [
            f"INVARIANT VIOLATIONS ({len(self.violations)}):"
        ]
        lines.extend(f"  - {v}" for v in self.violations)
        return "\n".join(lines)


def check_invariants(
    requests,
    report: FleetReport,
    *,
    brownout: BrownoutConfig | None = None,
) -> InvariantReport:
    """Verify the structural invariants every fleet run must satisfy.

    These hold for *any* faults, campaign, resilience config, or
    recovery plan — chaos may degrade service arbitrarily but must
    never corrupt the accounting:

    1. **terminal_exactly_once** — every submitted request id appears
       in exactly one terminal record (completed, failed, or shed),
       and no unknown ids appear.
    2. **conservation** — ``offered == completed + failed + shed``
       and matches the submitted count; ``resilience.shed`` matches.
    3. **clock_monotone** — per completion
       ``arrival <= queued_since <= start <= finish``; failures and
       sheds terminate at or after arrival.
    4. **no_post_makespan_events** — no terminal timestamp exceeds
       ``makespan_s``.
    5. **quality_debt_bounded** — brownout rungs stay inside the
       ladder, per-completion quality matches its rung's quality,
       and ``rung_completions`` sums to the completion count.
    6. **pool_accounting** — pool completion counts sum to the
       completion total, utilization stays in ``[0, 1]``, and pool
       shed counts never exceed the shed total.
    7. **finite_times** — every completion's queued-since, start and
       finish, every failure and shed time, and ``makespan_s`` are
       finite (an ``inf`` passes the clock and makespan checks).

    ``requests`` is what was submitted (a ``Request`` sequence, a
    ``RequestBatch`` or a ``TrafficTrace``).  The checks run over the
    report's columns; no per-request records are built.
    """
    violations: list[str] = []
    submitted = as_request_batch(requests).request_ids
    rids = report.req_request_ids
    arrival = report.req_arrival_s
    completed = report.completed_count
    failed = report.failed_count
    shed = report.shed_count

    terminal_ids, counts = np.unique(
        np.concatenate([
            rids[report.comp_req], rids[report.fail_req],
            rids[report.shed_req],
        ]),
        return_counts=True,
    )
    multi = terminal_ids[counts != 1].tolist()
    missing = np.setdiff1d(submitted, terminal_ids).tolist()
    unknown = np.setdiff1d(terminal_ids, submitted).tolist()
    if multi:
        violations.append(
            f"terminal_exactly_once: ids with multiple terminal "
            f"states: {multi[:5]}"
        )
    if missing:
        violations.append(
            f"terminal_exactly_once: submitted ids with no terminal "
            f"state: {missing[:5]}"
        )
    if unknown:
        violations.append(
            f"terminal_exactly_once: terminal ids never submitted: "
            f"{unknown[:5]}"
        )

    total = completed + failed + shed
    if report.offered != total:
        violations.append(
            f"conservation: offered={report.offered} but "
            f"completed+failed+shed={total}"
        )
    if report.offered != len(submitted):
        violations.append(
            f"conservation: offered={report.offered} but "
            f"{len(submitted)} requests submitted"
        )
    if report.resilience.shed != shed:
        violations.append(
            f"conservation: resilience.shed="
            f"{report.resilience.shed} but {shed} shed records"
        )

    comp_arrival = arrival[report.comp_req]
    queued = report.comp_queued_since_s
    start = report.comp_start_s
    finish = report.comp_finish_s
    disordered = ~(
        (comp_arrival <= queued) & (queued <= start) & (start <= finish)
    )
    for row in np.flatnonzero(disordered).tolist():
        violations.append(
            f"clock_monotone: request {rids[report.comp_req[row]]}"
            f" arrival={comp_arrival[row]} queued={queued[row]} "
            f"start={start[row]} finish={finish[row]}"
        )
    for kind, req, at in (
        ("failed", report.fail_req, report.fail_at_s),
        ("shed", report.shed_req, report.shed_at_s),
    ):
        for row in np.flatnonzero(at < arrival[req]).tolist():
            violations.append(
                f"clock_monotone: request {rids[req[row]]} {kind} at "
                f"{at[row]} before arrival {arrival[req[row]]}"
            )

    makespan = report.makespan_s
    for kind, req, at in (
        ("completion", report.comp_req, finish),
        ("failure", report.fail_req, report.fail_at_s),
        ("shed", report.shed_req, report.shed_at_s),
    ):
        for row in np.flatnonzero(at > makespan).tolist():
            violations.append(
                f"no_post_makespan_events: {kind} of {rids[req[row]]} "
                f"at {at[row]} > makespan {makespan}"
            )

    ladder = brownout.rungs if brownout is not None else ()
    rung = report.comp_rung
    outside = (rung < 0) | (rung > len(ladder))
    rung_quality = np.array(
        [1.0] + [step.quality for step in ladder], dtype=np.float64
    )
    expected = rung_quality[np.clip(rung, 0, len(ladder))]
    wrong = ~outside & (report.comp_quality != expected)
    for row in np.flatnonzero(outside | wrong).tolist():
        rid = rids[report.comp_req[row]]
        if outside[row]:
            violations.append(
                f"quality_debt_bounded: request {rid} served at rung "
                f"{rung[row]} outside ladder of {len(ladder)}"
            )
        else:
            violations.append(
                f"quality_debt_bounded: request {rid} quality "
                f"{report.comp_quality[row]} != rung-{rung[row]} "
                f"quality {expected[row]}"
            )
    rung_counts = report.resilience.rung_completions
    if sum(rung_counts) != completed:
        violations.append(
            f"quality_debt_bounded: rung_completions sum to "
            f"{sum(rung_counts)} but {completed} completions"
        )
    if len(rung_counts) > len(ladder) + 1 and any(
        count for count in rung_counts[len(ladder) + 1:]
    ):
        violations.append(
            "quality_debt_bounded: completions recorded beyond the "
            "ladder's deepest rung"
        )

    pool_completed = sum(stats.completed for stats in report.pools)
    if pool_completed != completed:
        violations.append(
            f"pool_accounting: pool completed counts sum to "
            f"{pool_completed} but {completed} completions"
        )
    for stats in report.pools:
        if not 0.0 <= stats.utilization <= 1.0:
            violations.append(
                f"pool_accounting: pool {stats.name} utilization "
                f"{stats.utilization} outside [0, 1]"
            )
    pool_shed = sum(stats.shed for stats in report.pools)
    if pool_shed > shed:
        violations.append(
            f"pool_accounting: pool shed counts sum to {pool_shed} "
            f"> {shed} shed records"
        )

    for kind, req, at in (
        ("completion queued-since", report.comp_req, queued),
        ("completion start", report.comp_req, start),
        ("completion finish", report.comp_req, finish),
        ("failure", report.fail_req, report.fail_at_s),
        ("shed", report.shed_req, report.shed_at_s),
    ):
        for row in np.flatnonzero(~np.isfinite(at)).tolist():
            violations.append(
                f"finite_times: {kind} of {rids[req[row]]} at {at[row]}"
            )
    if not np.isfinite(makespan):
        violations.append(f"finite_times: makespan {makespan}")

    return InvariantReport(
        checked=INVARIANTS, violations=tuple(violations)
    )


# -- shrinking --------------------------------------------------------


def shrink_campaign(
    campaign: ChaosCampaign,
    predicate: Callable[[ChaosCampaign], bool],
) -> ChaosCampaign:
    """Greedily minimize a failing campaign.

    ``predicate(campaign)`` must return ``True`` (the failure
    reproduces) on the input campaign; shrinking removes event chunks
    — halves first, then ever-smaller slices down to single events —
    keeping any removal that still reproduces.  Deterministic: chunk
    order is fixed, so the same failing campaign always shrinks to
    the same minimal one.  The result is 1-minimal per chunk size:
    removing any single remaining event stops the failure.
    """
    if not predicate(campaign):
        raise ValueError(
            "predicate does not fail on the input campaign"
        )
    events = list(campaign.events)
    chunk = max(1, len(events) // 2)
    while chunk >= 1:
        start = 0
        while start < len(events):
            trial = events[:start] + events[start + chunk:]
            candidate = replace(campaign, events=tuple(trial))
            if predicate(candidate):
                events = trial
            else:
                start += chunk
        chunk //= 2
    return replace(campaign, events=tuple(events))


# -- CLI smoke --------------------------------------------------------


def _smoke(seed: int, duration_s: float) -> int:
    """Generate a campaign, simulate both arms, check invariants."""
    from repro.serving.domains import topology_for_pools
    from repro.serving.faults import RetryPolicy
    from repro.serving.fleet import (
        PoolSpec,
        affine_batch_latency,
        simulate_fleet,
    )
    from repro.serving.workload import WorkloadMix, generate_requests

    fns = {"sd": affine_batch_latency(2.0, marginal_fraction=0.6)}
    pools = [
        PoolSpec(
            name=f"zone{z}", machine="dgx-a100-80g", servers=4,
            latency_fns=fns, max_servers=5, zone=z,
        )
        for z in range(3)
    ]
    topology = topology_for_pools(pools)
    config = ChaosConfig(
        zone_outage_rate=1.0 / 300.0,
        partition_rate=1.0 / 400.0,
        degraded_rate=1.0 / 400.0,
        mean_duration_s=45.0,
        stagger_s=4.0,
    )
    campaign = generate_campaign(
        topology, config, duration_s=duration_s, seed=seed
    )
    round_trip = loads_campaign(dumps_campaign(campaign))
    if dumps_campaign(round_trip) != dumps_campaign(campaign):
        print("FAIL: campaign serialization is not a round trip")
        return 1
    mix = WorkloadMix(shares={"sd": 1.0}, service_s={"sd": 2.0})
    requests = generate_requests(
        mix, arrival_rate=3.0, duration_s=duration_s, seed=seed
    )
    retry = RetryPolicy(max_retries=3, backoff_s=0.5, timeout_s=30.0)
    status = 0
    for arm, orchestration in (
        ("unorchestrated", None),
        ("orchestrated", OrchestrationConfig()),
    ):
        compiled = campaign.compile(
            pools=pools, orchestration=orchestration
        )
        report = simulate_fleet(
            requests, pools, faults=compiled.faults, retry=retry,
            plan=compiled.plan,
        )
        verdict = check_invariants(requests, report)
        if not verdict.ok:
            print(f"FAIL [{arm}]: {verdict.render()}")
            status = 1
        print(
            f"[{arm}] events={len(campaign.events)} "
            f"completed={report.completed_count} "
            f"failed={report.failed_count} "
            f"makespan={report.makespan_s:.1f}s "
            f"invariants={'ok' if verdict.ok else 'VIOLATED'}"
        )
    return status


def main(argv: Sequence[str] | None = None) -> int:
    """CLI entry: ``python -m repro.serving.chaos [--seed N]``."""
    import argparse

    parser = argparse.ArgumentParser(
        description=(
            "chaos smoke: seeded campaign, round trip, "
            "simulation + invariants"
        )
    )
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument(
        "--duration", type=float, default=600.0,
        help="traffic/campaign window in seconds",
    )
    options = parser.parse_args(argv)
    return _smoke(options.seed, options.duration)


if __name__ == "__main__":
    raise SystemExit(main())
