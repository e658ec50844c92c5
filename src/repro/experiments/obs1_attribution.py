"""obs1: telemetry attributes a p99 regression to breaker flapping.

A fleet-level p99 regression has two classic proximate causes that
aggregate counters cannot distinguish: the servers got slower, or the
control plane took capacity away and queues built up.  This experiment
stages exactly that ambiguity and resolves it from telemetry alone —
request spans, time-series gauges and fleet events collected by
:class:`repro.obs.Telemetry` — never from :class:`FleetReport`
aggregates.

Setup: one 24-server pool at ~0.8 load, with a mild gray failure — a
1.4x slowdown on a third of the servers for a ten-minute window.  Two
breaker configurations serve the identical workload:

* **tuned** counts only crashes as failures (``slow_factor=None``).
  The stragglers cost ~40% latency on a third of batches; p99 barely
  moves.
* **flappy** counts any batch 1.3x over nominal as a failure and
  trips on the first one (``failure_threshold=1``).  Every straggler
  batch re-opens the breaker, so all eight slow servers flap
  open/half-open for the whole window — the fleet loses a third of
  its capacity to a 1.4x slowdown, queues explode and p99 regresses
  by an order of magnitude.

The attribution chain, read off the telemetry: breaker-open events
cluster inside the straggler window and *precede* the queue-depth
blow-up (event ordering); tail requests spend their lives queued
while breakers are open (span/interval overlap); and the multi-window
burn-rate alert pages on the flappy arm only.  Telemetry is also
proven inert: the flappy arm re-run with collection disabled produces
the byte-identical completion stream.  The committed golden
(``tests/golden/obs1.json``) pins every number.
"""

from __future__ import annotations

from repro.experiments.base import ClaimCheck, ExperimentResult, fleet_values
from repro.experiments.suite_cache import all_profiles
from repro.obs import BurnRateRule, Telemetry, TelemetryLog, evaluate_alerts
from repro.serving.faults import FaultSchedule, RetryPolicy, Straggler
from repro.serving.fleet import (
    PoolSpec,
    affine_batch_latency,
    simulate_fleet,
)
from repro.serving.resilience import CircuitBreakerConfig, ResilienceConfig
from repro.serving.slo import slo_report
from repro.serving.workload import (
    WorkloadMix,
    generate_requests,
    suite_mix_from_profiles,
)

EXPERIMENT_ID = "obs1"

MODELS = ("stable_diffusion", "muse")
SHARES = {"stable_diffusion": 0.7, "muse": 0.3}
SEED = 23
DURATION_S = 1800.0
SERVERS = 24
LOAD = 0.8
STRAGGLER_SERVERS = tuple(range(8))
STRAGGLE_START_S = 600.0
STRAGGLE_END_S = 1200.0
SLOWDOWN = 1.4
DEADLINE_FACTOR = 5.0
SAMPLE_INTERVAL_S = 5.0
QUEUE_ALARM_DEPTH = 2.0 * SERVERS
RETRY = RetryPolicy(max_retries=2, backoff_s=2.0, timeout_s=None)

TUNED = ResilienceConfig(
    breaker=CircuitBreakerConfig(
        failure_threshold=3,
        window_s=60.0,
        cooldown_s=30.0,
        slow_factor=None,
    )
)
FLAPPY = ResilienceConfig(
    breaker=CircuitBreakerConfig(
        failure_threshold=1,
        window_s=30.0,
        cooldown_s=30.0,
        slow_factor=1.3,
    )
)

ALERT_RULES = (
    BurnRateRule(
        name="page-fast-burn",
        objective=0.95,
        long_window_s=300.0,
        short_window_s=60.0,
        threshold=10.0,
        severity="page",
    ),
)


def _requests(service: dict[str, float]):
    mix = WorkloadMix(shares=SHARES, service_s=service)
    rate = LOAD * SERVERS / mix.mean_service_s
    return generate_requests(
        mix, arrival_rate=rate, duration_s=DURATION_S, seed=SEED
    )


def _pool(service: dict[str, float]) -> PoolSpec:
    return PoolSpec(
        name="a100",
        machine="dgx-a100-80g",
        servers=SERVERS,
        latency_fns={
            model: affine_batch_latency(time, marginal_fraction=0.9)
            for model, time in service.items()
        },
        max_batch=8,
    )


def _faults() -> FaultSchedule:
    return FaultSchedule(
        stragglers=tuple(
            Straggler(
                server=server,
                at_s=STRAGGLE_START_S,
                duration_s=STRAGGLE_END_S - STRAGGLE_START_S,
                slowdown=SLOWDOWN,
            )
            for server in STRAGGLER_SERVERS
        )
    )


def _run_scenarios():
    """Simulate both breaker arms with telemetry, plus a blind re-run.

    Returns ``(scenarios, blind_report, deadlines)`` where
    ``scenarios`` maps arm label -> ``(report, slo, telemetry_log)``
    and ``blind_report`` is the flappy arm re-simulated with telemetry
    disabled (the inertness control).
    """
    service = suite_mix_from_profiles(all_profiles(), SHARES).service_s
    deadlines = {
        name: DEADLINE_FACTOR * service[name] for name in MODELS
    }
    requests = _requests(service)
    pool = _pool(service)
    faults = _faults()
    scenarios: dict[str, tuple] = {}
    for label, resilience in (("tuned", TUNED), ("flappy", FLAPPY)):
        telemetry = Telemetry(sample_interval_s=SAMPLE_INTERVAL_S)
        report = simulate_fleet(
            requests, [pool], retry=RETRY, faults=faults,
            resilience=resilience, telemetry=telemetry,
        )
        scenarios[label] = (
            report, slo_report(report, deadlines), telemetry.log()
        )
    blind_report = simulate_fleet(
        requests, [pool], retry=RETRY, faults=faults,
        resilience=FLAPPY,
    )
    return scenarios, blind_report, deadlines


def _open_intervals(log: TelemetryLog) -> list[tuple[float, float]]:
    """Every breaker-open interval in the run, across servers."""
    return [
        interval
        for spans in log.breaker_open_intervals().values()
        for interval in spans
    ]


def tail_overlap_fraction(
    log: TelemetryLog, latency_floor_s: float
) -> float:
    """Fraction of tail completions queued while a breaker was open.

    A completion is *tail* when its span latency exceeds
    ``latency_floor_s``; its queue interval is submit -> dispatch.
    The overlap fraction is the span-level attribution: when it is
    near 1, the tail was made in the queue during open-breaker time,
    not on slow servers.
    """
    intervals = _open_intervals(log)
    table = log.span_table
    tail = 0
    overlapping = 0
    for index, _, queued_from, state, ts in table.terminals():
        if state != "complete" or ts - queued_from <= latency_floor_s:
            continue
        tail += 1
        dispatch = table.first_ts(index, "dispatch")
        queued_until = (
            dispatch if dispatch is not None else log.makespan_s
        )
        if any(
            start < queued_until and end > queued_from
            for start, end in intervals
        ):
            overlapping += 1
    return overlapping / tail if tail else 0.0


def run() -> ExperimentResult:
    """Regenerate this experiment and check its claims."""
    scenarios, blind_report, deadlines = _run_scenarios()
    tuned_report, tuned_slo, tuned_log = scenarios["tuned"]
    flappy_report, flappy_slo, flappy_log = scenarios["flappy"]

    rows: list[list[object]] = []
    for label, (report, slo, log) in scenarios.items():
        entry = {m.model: m for m in slo.per_model}
        sd = entry["stable_diffusion"]
        rows.append([
            label,
            sum(m.offered for m in slo.per_model),
            f"{sd.p50_s:.2f}",
            f"{sd.p99_s:.2f}",
            f"{slo.goodput * 100:.1f}%",
            int(log.counter_final("breaker_opens")),
            f"{log.series_named('pool.a100.queue_depth').peak:.0f}",
        ])

    inert = blind_report == flappy_report

    tuned_sd_p99 = {
        m.model: m for m in tuned_slo.per_model
    }["stable_diffusion"].p99_s
    flappy_sd_p99 = {
        m.model: m for m in flappy_slo.per_model
    }["stable_diffusion"].p99_s
    regression = (
        flappy_sd_p99 / tuned_sd_p99 if tuned_sd_p99 else float("inf")
    )

    opens = flappy_log.events_named("breaker_open")
    open_times = [event.ts_s for event in opens]
    opens_in_window = (
        bool(open_times)
        and min(open_times) >= STRAGGLE_START_S
        and max(open_times) <= STRAGGLE_END_S + 60.0
    )
    per_server = flappy_log.breaker_open_intervals()
    flapping = all(
        len(per_server.get(server, ())) >= 2
        for server in STRAGGLER_SERVERS
    )
    tuned_opens = int(tuned_log.counter_final("breaker_opens"))

    queue = flappy_log.series_named("pool.a100.queue_depth")
    queue_alarm_t = queue.first_time_above(QUEUE_ALARM_DEPTH)
    first_open_t = min(open_times) if open_times else None
    ordering = (
        first_open_t is not None
        and queue_alarm_t is not None
        and first_open_t < queue_alarm_t
    )

    overlap = tail_overlap_fraction(flappy_log, tuned_sd_p99)

    flappy_alerts = evaluate_alerts(
        flappy_log, deadlines, rules=ALERT_RULES
    )
    tuned_alerts = evaluate_alerts(
        tuned_log, deadlines, rules=ALERT_RULES
    )
    pages = [f for f in flappy_alerts if f.severity == "page"]

    alerts = {"tuned": tuned_alerts, "flappy": flappy_alerts}
    overlaps = {
        "tuned": tail_overlap_fraction(tuned_log, tuned_sd_p99),
        "flappy": overlap,
    }
    values: dict = {"blind_completed": float(blind_report.completed_count)}
    for label, (report, slo, log) in scenarios.items():
        values[label] = {
            **fleet_values(report, slo),
            "breaker_opens": log.counter_final("breaker_opens"),
            "retries": log.counter_final("retries"),
            "queue_depth_peak": log.series_named(
                "pool.a100.queue_depth"
            ).peak,
            "open_intervals_per_server": {
                str(server): float(len(intervals))
                for server, intervals in
                log.breaker_open_intervals().items()
            },
            "tail_overlap": overlaps[label],
            "alerts": [
                {
                    "rule": firing.rule,
                    "start_s": firing.start_s,
                    "end_s": firing.end_s,
                    "peak_burn": firing.peak_burn,
                }
                for firing in alerts[label]
            ],
        }

    claims = [
        ClaimCheck(
            claim="telemetry collection is inert: the flappy arm "
            "re-run with telemetry disabled yields the identical "
            "completion, failure and shed streams",
            paper="observability must not perturb the system "
            "under observation",
            measured=(
                f"{flappy_report.completed_count} completions "
                f"compare {'equal' if inert else 'UNEQUAL'}"
            ),
            holds=inert,
        ),
        ClaimCheck(
            claim="the flappy breaker turns a 1.4x gray failure into "
            "a >1.5x p99 regression at identical load",
            paper="misconfigured protection amplifies tail latency "
            "(gray-failure literature)",
            measured=(
                f"stable_diffusion p99 {tuned_sd_p99:.2f}s tuned vs "
                f"{flappy_sd_p99:.2f}s flappy ({regression:.1f}x)"
            ),
            holds=regression > 1.5,
        ),
        ClaimCheck(
            claim="fleet events localize the mechanism: every "
            "straggler server flaps (>= 2 open intervals), all opens "
            "fall inside the straggler window, and the tuned arm "
            "records zero opens",
            paper="span/event telemetry attributes regressions to "
            "control-plane behaviour",
            measured=(
                f"{len(opens)} opens across "
                f"{len(per_server)} servers in "
                f"[{min(open_times):.0f}, {max(open_times):.0f}]s; "
                f"tuned opens = {tuned_opens}"
            ) if open_times else "no breaker opens recorded",
            holds=(
                opens_in_window and flapping and tuned_opens == 0
                and set(per_server) == set(STRAGGLER_SERVERS)
            ),
        ),
        ClaimCheck(
            claim="causality runs breaker -> queue: the first "
            "breaker open precedes the queue-depth alarm "
            f"(depth > {QUEUE_ALARM_DEPTH:.0f})",
            paper="time-series ordering distinguishes cause from "
            "symptom",
            measured=(
                f"first open at {first_open_t:.0f}s, queue alarm at "
                f"{queue_alarm_t:.0f}s"
                if ordering else "ordering unresolved"
            ),
            holds=ordering,
        ),
        ClaimCheck(
            claim="the tail is made in the queue, not on slow "
            "servers: over 80% of completions slower than the tuned "
            "p99 were queued while a breaker was open",
            paper="span-level attribution (queue interval vs "
            "open-breaker intervals)",
            measured=f"{overlap * 100:.0f}% of tail spans overlap",
            holds=overlap > 0.8,
        ),
        ClaimCheck(
            claim="the multi-window burn-rate rule pages on the "
            "flappy arm and stays silent on the tuned arm",
            paper="SLO burn-rate alerting (SRE workbook, minute-"
            "scale windows for a half-hour run)",
            measured=(
                f"flappy: {len(pages)} page firing(s), peak burn "
                + (f"{max(f.peak_burn for f in pages):.0f}x; "
                   if pages else "n/a; ")
                + f"tuned: {len(tuned_alerts)} firing(s)"
            ),
            holds=bool(pages) and not tuned_alerts,
        ),
    ]
    notes = [
        "Both arms serve the identical request stream and fault "
        f"schedule: {SLOWDOWN}x stragglers on servers "
        f"{STRAGGLER_SERVERS[0]}-{STRAGGLER_SERVERS[-1]} during "
        f"[{STRAGGLE_START_S:.0f}, {STRAGGLE_END_S:.0f}]s.",
        "All mechanism claims are computed from the telemetry log "
        "(spans, gauges, fleet events) — FleetReport aggregates are "
        "only used for the inertness control.",
        "p50/p99 columns are stable_diffusion latencies; opens and "
        "peak-queue columns come from fleet.breaker_opens and "
        "pool.a100.queue_depth.",
    ]
    return ExperimentResult(
        experiment_id=EXPERIMENT_ID,
        title="Telemetry attributes a p99 regression to breaker "
        "flapping, not server slowdown",
        headers=[
            "breaker", "offered", "p50 s", "p99 s", "goodput",
            "opens", "peak queue",
        ],
        rows=rows,
        claims=claims,
        notes=notes,
        values=values,
    )
