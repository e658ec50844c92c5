"""serve2: overload protection and graceful degradation.

serve1 establishes that TTI/TTV serving is a systems problem; this
experiment asks what a deployment does when offered load exceeds
capacity anyway.  The same SD 2.1 / Muse flash service times are
driven through the fleet simulator with flash-crowd bursts at ~1.9x
capacity plus a generated crash/straggler schedule, under five
protection configurations:

1. **unprotected** — the serve1 fleet, no resilience mechanisms;
2. **shed-only** — admission control (queue-depth cap + per-model
   wait budgets) rejects requests it cannot serve in time;
3. **hedge-only** — a duplicate attempt is launched on the
   least-loaded other server once a request outlives the running p95;
4. **brownout-only** — a two-rung degradation ladder re-profiles the
   *actual model graphs* at reduced step counts (SD 50 -> 30 -> 20
   denoising steps, Muse 24 -> 16 -> 10 decode steps) and serves
   degraded requests while backlog persists;
5. **all-on** — all of the above plus a per-server circuit breaker
   that quarantines crash-looping or straggling servers.

Rung latencies are not guessed scalars: each rung's service time comes
from :func:`repro.profiler.profiler.profile_model` on the re-configured
graph, so the brownout trade-off inherits the paper's cost model.  The
checked claims pin the core resilience story: every mechanism conserves
requests (offered = completed + failed + shed), and the all-on fleet
strictly improves *both* p99 and goodput over the unprotected one.
"""

from __future__ import annotations

from dataclasses import replace

from repro.experiments.base import ClaimCheck, ExperimentResult, fleet_values
from repro.experiments.suite_cache import all_profiles
from repro.ir.context import AttentionImpl
from repro.models.muse import Muse, MuseConfig
from repro.models.stable_diffusion import (
    StableDiffusion,
    StableDiffusionConfig,
)
from repro.profiler.profiler import profile_model
from repro.serving.faults import RetryPolicy, generate_faults
from repro.serving.fleet import (
    FleetReport,
    PoolSpec,
    affine_batch_latency,
    simulate_fleet,
)
from repro.serving.resilience import (
    RESILIENCE_OFF,
    AdmissionConfig,
    BrownoutConfig,
    CircuitBreakerConfig,
    DegradedRung,
    HedgeConfig,
    ResilienceConfig,
)
from repro.serving.slo import SloReport, percentile, slo_report
from repro.serving.workload import (
    WorkloadMix,
    bursty_rate,
    generate_requests_pattern,
    suite_mix_from_profiles,
)

EXPERIMENT_ID = "serve2"

MODELS = ("stable_diffusion", "muse")
SHARES = {"stable_diffusion": 0.7, "muse": 0.3}
SEED = 17
FAULT_SEED = 23
DURATION_S = 600.0
SERVERS = 4
BASE_LOAD = 0.75
BURST_LOAD = 1.9
BURSTS = ((100.0, 80.0), (350.0, 80.0))
# Degradation ladder step counts: nominal -> rung 1 -> rung 2.
SD_STEPS = (50, 30, 20)
MUSE_STEPS = (24, 16, 10)
RETRY = RetryPolicy(
    max_retries=2, backoff_s=1.0, multiplier=2.0, max_backoff_s=8.0,
    jitter=0.5,
)


def _degraded_service_times(rung: int) -> dict[str, float]:
    """Flash service times of the graphs re-configured for ``rung``.

    The rung re-prices the actual pipelines — fewer UNet invocations
    for SD, fewer parallel-decode steps for Muse — through the same
    profiler every other experiment uses.
    """
    sd = StableDiffusion(
        replace(StableDiffusionConfig(), denoising_steps=SD_STEPS[rung])
    )
    muse = Muse(replace(MuseConfig(), base_steps=MUSE_STEPS[rung]))
    return {
        model.name: profile_model(
            model, attention_impl=AttentionImpl.FLASH
        ).total_time_s
        for model in (sd, muse)
    }


def _rung(rung: int, service_s: dict[str, float]) -> DegradedRung:
    # Quality proxy: mean fraction of the nominal step count kept —
    # the knob the ladder actually turns (fewer denoising / decode
    # steps is the standard quality-for-latency trade in diffusion
    # serving).
    quality = 0.5 * (
        SD_STEPS[rung] / SD_STEPS[0] + MUSE_STEPS[rung] / MUSE_STEPS[0]
    )
    return DegradedRung(
        label=f"sd{SD_STEPS[rung]}/muse{MUSE_STEPS[rung]}",
        latency_fns={
            model: affine_batch_latency(time, marginal_fraction=0.7)
            for model, time in service_s.items()
        },
        quality=quality,
    )


def _pool(service_s: dict[str, float]) -> PoolSpec:
    return PoolSpec(
        name="a100",
        machine="dgx-a100-80g",
        servers=SERVERS,
        latency_fns={
            model: affine_batch_latency(time, marginal_fraction=0.7)
            for model, time in service_s.items()
        },
        max_batch=8,
    )


def _requests(service_s: dict[str, float]):
    mix = WorkloadMix(shares=dict(SHARES), service_s=dict(service_s))
    capacity = SERVERS * mix.saturation_rate()
    rate_fn = bursty_rate(
        BASE_LOAD * capacity,
        burst_rate=BURST_LOAD * capacity,
        bursts=BURSTS,
    )
    return generate_requests_pattern(
        mix, rate_fn, peak_rate=BURST_LOAD * capacity,
        duration_s=DURATION_S, seed=SEED,
    )


def _configs(
    deadlines: dict[str, float], brownout: BrownoutConfig
) -> list[tuple[str, ResilienceConfig]]:
    admission = AdmissionConfig(
        max_queue_depth=64,
        wait_budget_s={
            model: 2.0 * deadline
            for model, deadline in deadlines.items()
        },
    )
    hedge = HedgeConfig(quantile=95.0, min_samples=30)
    breaker = CircuitBreakerConfig(
        failure_threshold=3, window_s=60.0, cooldown_s=30.0,
        slow_factor=2.5,
    )
    return [
        ("unprotected", RESILIENCE_OFF),
        ("shed-only", ResilienceConfig(admission=admission)),
        ("hedge-only", ResilienceConfig(hedge=hedge)),
        ("brownout-only", ResilienceConfig(brownout=brownout)),
        (
            "all-on",
            ResilienceConfig(
                admission=admission, breaker=breaker, hedge=hedge,
                brownout=brownout,
            ),
        ),
    ]


def _run_scenarios() -> list[tuple[str, FleetReport, SloReport]]:
    service = suite_mix_from_profiles(all_profiles(), SHARES).service_s
    deadlines = {name: 3.0 * service[name] for name in MODELS}
    brownout = BrownoutConfig(
        rungs=(
            _rung(1, _degraded_service_times(1)),
            _rung(2, _degraded_service_times(2)),
        ),
        step_down_backlog=4.0,
        step_up_backlog=1.0,
        check_interval_s=5.0,
        dwell_s=10.0,
    )
    requests = _requests(service)
    faults = generate_faults(
        servers=SERVERS, duration_s=DURATION_S, seed=FAULT_SEED,
        crash_rate_per_hour=6.0, mean_downtime_s=60.0,
        straggler_rate_per_hour=6.0, mean_straggler_s=90.0,
        slowdown=4.0,
    )
    scenarios = []
    for label, config in _configs(deadlines, brownout):
        report = simulate_fleet(
            requests, [_pool(service)], retry=RETRY, faults=faults,
            resilience=config,
        )
        scenarios.append((label, report, slo_report(report, deadlines)))
    return scenarios


def run() -> ExperimentResult:
    """Regenerate this experiment and check its claims."""
    scenarios = _run_scenarios()
    rows: list[list[object]] = []
    p99: dict[str, float] = {}
    by_label: dict[str, tuple[FleetReport, SloReport]] = {}
    values: dict = {}
    for label, report, slo in scenarios:
        by_label[label] = (report, slo)
        latencies = report.latency_s.tolist()
        p99[label] = percentile(latencies, 99.0)
        stats = report.resilience
        values[label] = {
            **fleet_values(report, slo),
            "p50_s": percentile(latencies, 50.0),
            "p95_s": percentile(latencies, 95.0),
            "p99_s": p99[label],
            "burn_rate_90": slo.burn_rate(0.9),
            "hedges_launched": float(stats.hedges_launched),
            "hedge_wins": float(stats.hedge_wins),
            "hedge_wasted_s": stats.hedge_wasted_s,
            "breaker_opens": float(stats.breaker_opens),
            "degraded": float(stats.degraded_completions),
            "quality_debt": slo.quality_debt,
            "rung_changes": stats.rung_changes,
            "rung_completions": {
                str(rung): float(count)
                for rung, count in enumerate(stats.rung_completions)
            },
        }
        rows.append(
            [
                label,
                f"{percentile(latencies, 50.0):.2f}",
                f"{percentile(latencies, 95.0):.2f}",
                f"{p99[label]:.2f}",
                f"{slo.goodput * 100:.1f}%",
                f"{slo.burn_rate(0.9):.1f}x",
                report.shed_count,
                report.failed_count,
                f"{stats.hedge_wins}/{stats.hedges_launched}",
                stats.degraded_completions,
                f"{slo.quality_debt:.1f}",
            ]
        )

    base_report, base_slo = by_label["unprotected"]
    all_report, all_slo = by_label["all-on"]
    conservation_ok = all(
        report.offered
        == report.completed_count + report.failed_count + report.shed_count
        for _, report, _ in scenarios
    )
    rung_ok = all(
        sum(report.resilience.rung_completions) == report.completed_count
        for _, report, _ in scenarios
    )
    brown_report, _ = by_label["brownout-only"]
    hedge_report, _ = by_label["hedge-only"]
    shed_slo = by_label["shed-only"][1]
    claims = [
        ClaimCheck(
            claim="all protections on strictly improves both p99 and "
            "goodput over the unprotected fleet under the same "
            "overload and faults",
            paper="graceful degradation as a serving requirement",
            measured=(
                f"p99 {p99['unprotected']:.1f}s -> {p99['all-on']:.1f}s, "
                f"goodput {base_slo.goodput * 100:.1f}% -> "
                f"{all_slo.goodput * 100:.1f}%"
            ),
            holds=(
                p99["all-on"] < p99["unprotected"]
                and all_slo.goodput > base_slo.goodput
            ),
        ),
        ClaimCheck(
            claim="every mechanism conserves requests: offered = "
            "completed + failed + shed, and per-rung counts sum to "
            "the completion count",
            paper="simulator invariant (no lost or invented requests)",
            measured=(
                f"conservation {'holds' if conservation_ok else 'FAILS'} "
                f"across {len(scenarios)} scenarios; rung sums "
                f"{'hold' if rung_ok else 'FAIL'}"
            ),
            holds=conservation_ok and rung_ok,
        ),
        ClaimCheck(
            claim="admission control trades completions for tail "
            "latency: shedding cuts p99 below unprotected",
            paper="load shedding bounds queueing delay",
            measured=(
                f"p99 {p99['unprotected']:.1f}s -> "
                f"{p99['shed-only']:.1f}s with "
                f"{shed_slo.shed} requests shed"
            ),
            holds=(
                p99["shed-only"] < p99["unprotected"]
                and shed_slo.shed > 0
            ),
        ),
        ClaimCheck(
            claim="hedging alone cannot create capacity — under "
            "sustained overload nearly every hedge loses — but once "
            "shedding and brownout keep queues short, hedges win "
            "races against slow servers",
            paper="tail-tolerant hedging helps tails, not throughput",
            measured=(
                f"hedge-only {hedge_report.resilience.hedge_wins}/"
                f"{hedge_report.resilience.hedges_launched} wins; "
                f"all-on {all_report.resilience.hedge_wins}/"
                f"{all_report.resilience.hedges_launched} "
                f"({hedge_report.resilience.hedge_wasted_s:.0f}s vs "
                f"{all_report.resilience.hedge_wasted_s:.0f}s wasted)"
            ),
            holds=(
                hedge_report.resilience.hedges_launched > 0
                and hedge_report.resilience.hedge_wins
                < 0.05 * hedge_report.resilience.hedges_launched
                and all_report.resilience.hedge_wins
                > hedge_report.resilience.hedge_wins
            ),
        ),
        ClaimCheck(
            claim="the brownout ladder serves degraded-but-on-time "
            "requests during bursts and steps back up after them",
            paper="quality-for-latency degradation (fewer "
            "denoising/decode steps)",
            measured=(
                f"{brown_report.resilience.degraded_completions} "
                f"degraded completions, quality debt "
                f"{by_label['brownout-only'][1].quality_debt:.1f}, "
                f"{brown_report.resilience.rung_changes} rung changes"
            ),
            holds=(
                brown_report.resilience.degraded_completions > 0
                and brown_report.resilience.rung_changes >= 2
            ),
        ),
    ]
    return ExperimentResult(
        experiment_id=EXPERIMENT_ID,
        title="Overload protection: shedding, hedging, circuit "
        "breaking and brownout under flash-crowd bursts",
        headers=[
            "scenario", "p50 s", "p95 s", "p99 s", "goodput",
            "burn@0.9", "shed", "failed", "hedge w/l", "degraded",
            "debt",
        ],
        rows=rows,
        claims=claims,
        notes=[
            "Bursts run at 1.9x fleet capacity; faults are a seeded "
            "crash+straggler schedule shared by all scenarios.",
            "Brownout rung latencies are profiled from the "
            "re-configured SD/Muse graphs (not scaled), qualities are "
            "the kept fraction of nominal step counts.",
            "burn@0.9 is the error-budget burn rate against a 90% "
            "goodput objective.",
        ],
        values=values,
    )
