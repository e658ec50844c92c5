"""serve1: fleet serving under load, faults and hardware mixes.

The paper's closing argument — TTI/TTV deployment is a systems problem
— made quantitative: the same SD 2.1 / Muse service times every other
experiment uses are fed through the fleet simulator at ~70% offered
load, and the serving metrics a deployment team is paged on (p50/p95/
p99, goodput under deadline, utilization, availability) fall out.

Four seed-pinned scenarios on two pool configurations:

1. all-A100 pool, baseline attention, fault-free;
2. all-A100 pool, Flash Attention, fault-free — Table II's 1.6x SD
   service-time cut becomes a p95 cut at equal traffic;
3. all-A100 pool, Flash, with one server crashed mid-run — goodput
   and availability degrade, SLO-violation seconds appear;
4. mixed A100+H100 fleet (H100 service times profiled on that GPU, not
   scaled), Flash, fault-free — the Section V future-hardware point as
   extra fleet headroom.

Checked claims: Flash cuts p95 at equal load; a single crash
measurably costs goodput and violation seconds; the mixed fleet beats
the all-A100 fleet's p95; the fault-free fleet lands near its target
utilization.
"""

from __future__ import annotations

from repro.distributed.registry import machine_from_name
from repro.experiments.base import ClaimCheck, ExperimentResult, fleet_values
from repro.experiments.suite_cache import all_profiles, model_instance
from repro.ir.context import AttentionImpl
from repro.serving.faults import Crash, FaultSchedule, RetryPolicy
from repro.serving.fleet import (
    FleetReport,
    PoolSpec,
    affine_batch_latency,
    simulate_fleet,
)
from repro.serving.slo import SloReport, percentile, slo_report
from repro.serving.workload import (
    WorkloadMix,
    generate_requests,
    suite_mix_from_profiles,
)

EXPERIMENT_ID = "serve1"

MODELS = ("stable_diffusion", "muse")
SHARES = {"stable_diffusion": 0.7, "muse": 0.3}
SEED = 11
DURATION_S = 600.0
TARGET_LOAD = 0.7
A100_SERVERS = 4
CRASH = Crash(server=0, at_s=120.0, downtime_s=240.0)
RETRY = RetryPolicy(max_retries=2, backoff_s=1.0, timeout_s=None)


def _h100_service_times() -> dict[str, float]:
    """Flash service times profiled on the H100, not peak-scaled."""
    from repro.profiler.profiler import profile_model

    gpu = machine_from_name("dgx-h100").gpu
    return {
        name: profile_model(
            model_instance(name), gpu=gpu,
            attention_impl=AttentionImpl.FLASH,
        ).total_time_s
        for name in MODELS
    }


def _pool(
    name: str, machine: str, servers: int, service_s: dict[str, float]
) -> PoolSpec:
    # Diffusion/TTI inference is compute-bound at serving batch sizes
    # (Section II-C: low-batch is the natural TTI regime), so batching
    # amortizes little: the batch-latency curve is close to linear.
    return PoolSpec(
        name=name,
        machine=machine,
        servers=servers,
        latency_fns={
            model: affine_batch_latency(time, marginal_fraction=0.7)
            for model, time in service_s.items()
        },
        max_batch=8,
    )


def _scenario(
    service_s: dict[str, float],
    pools: list[PoolSpec],
    *,
    faults: FaultSchedule,
    deadlines: dict[str, float],
) -> tuple[FleetReport, SloReport]:
    mix = WorkloadMix(shares=dict(SHARES), service_s=dict(service_s))
    # Offered load targets 70% of the single-request capacity of the
    # all-A100 configuration, so every scenario sees identical traffic
    # timing (the service times differ, the arrival process does not).
    arrival_rate = TARGET_LOAD * A100_SERVERS * mix.saturation_rate()
    requests = generate_requests(
        mix, arrival_rate=arrival_rate, duration_s=DURATION_S, seed=SEED
    )
    report = simulate_fleet(
        requests, pools, retry=RETRY, faults=faults
    )
    return report, slo_report(report, deadlines)


def run() -> ExperimentResult:
    """Regenerate this experiment and check its claims."""
    baseline_service = suite_mix_from_profiles(
        all_profiles(), SHARES, use_flash=False
    ).service_s
    flash_service = suite_mix_from_profiles(
        all_profiles(), SHARES, use_flash=True
    ).service_s
    h100_service = _h100_service_times()
    # Deadlines: 3x the flash service time per model, shared by every
    # scenario so goodput numbers are comparable across them.
    deadlines = {name: 3.0 * flash_service[name] for name in MODELS}
    one_crash = FaultSchedule(crashes=(CRASH,))

    # (values key, row label, fault injected, report, slo)
    scenarios: list[tuple[str, str, str, FleetReport, SloReport]] = []
    for key, label, service, faults in (
        ("baseline", "a100x4 baseline", baseline_service, FaultSchedule()),
        ("flash", "a100x4 flash", flash_service, FaultSchedule()),
        ("flash_crash", "a100x4 flash +crash", flash_service, one_crash),
    ):
        pools = [
            _pool("a100", "dgx-a100-80g", A100_SERVERS, service),
        ]
        report, slo = _scenario(
            service, pools, faults=faults, deadlines=deadlines
        )
        injected = "yes" if not faults.is_empty else "no"
        scenarios.append((key, label, injected, report, slo))
    mixed_pools = [
        _pool("a100", "dgx-a100-80g", 2, flash_service),
        _pool("h100", "dgx-h100", 2, h100_service),
    ]
    mixed_report, mixed_slo = _scenario(
        flash_service, mixed_pools, faults=FaultSchedule(),
        deadlines=deadlines,
    )
    scenarios.append(
        ("mixed", "a100x2+h100x2 flash", "no", mixed_report, mixed_slo)
    )

    rows: list[list[object]] = []
    fleet_p95: dict[str, float] = {}
    values: dict = {}
    for key, label, injected, report, slo in scenarios:
        latencies = report.latency_s.tolist()
        fleet_p95[label] = percentile(latencies, 95.0)
        values[key] = {
            **fleet_values(report, slo),
            "p50_s": percentile(latencies, 50.0),
            "p95_s": fleet_p95[label],
            "p99_s": percentile(latencies, 99.0),
            "violation_s": slo.violation_s,
            "availability": slo.availability,
            "completion_rate": report.completion_rate,
            "utilization": {
                stats.name: stats.utilization for stats in report.pools
            },
        }
        utilization = ", ".join(
            f"{stats.name} {stats.utilization * 100:.0f}%"
            for stats in report.pools
        )
        rows.append(
            [
                label,
                injected,
                f"{percentile(latencies, 50.0):.2f}",
                f"{percentile(latencies, 95.0):.2f}",
                f"{percentile(latencies, 99.0):.2f}",
                f"{slo.goodput * 100:.1f}%",
                f"{slo.violation_s:.0f}",
                f"{slo.availability * 100:.2f}%",
                utilization,
            ]
        )

    baseline_label = "a100x4 baseline"
    flash_label = "a100x4 flash"
    crash_label = "a100x4 flash +crash"
    mixed_label = "a100x2+h100x2 flash"
    slo_by_label = {label: slo for _, label, _, _, slo in scenarios}
    report_by_label = {
        label: report for _, label, _, report, _ in scenarios
    }
    p95_cut = 1.0 - fleet_p95[flash_label] / fleet_p95[baseline_label]
    goodput_drop = (
        slo_by_label[flash_label].goodput
        - slo_by_label[crash_label].goodput
    )
    violation_added = (
        slo_by_label[crash_label].violation_s
        - slo_by_label[flash_label].violation_s
    )
    fault_free_util = report_by_label[flash_label].pools[0].utilization
    sd_speedup = (
        baseline_service["stable_diffusion"]
        / flash_service["stable_diffusion"]
    )
    claims = [
        ClaimCheck(
            claim="Flash Attention's service-time cut becomes a p95 "
            "latency cut at ~70% load, same traffic",
            paper=f"SD service time cut {sd_speedup:.2f}x (Table II)",
            measured=(
                f"fleet p95 {fleet_p95[baseline_label]:.2f}s -> "
                f"{fleet_p95[flash_label]:.2f}s "
                f"({p95_cut * 100:.0f}% lower)"
            ),
            holds=p95_cut >= 0.15,
        ),
        ClaimCheck(
            claim="one crashed server (240 s outage) measurably costs "
            "goodput and adds SLO-violation seconds",
            paper="availability is a serving metric, not a given",
            measured=(
                f"goodput -{goodput_drop * 100:.1f}pp, "
                f"+{violation_added:.0f} violation-seconds, "
                f"availability "
                f"{slo_by_label[crash_label].availability * 100:.2f}%"
            ),
            holds=goodput_drop > 0.0 and violation_added > 10.0,
        ),
        ClaimCheck(
            claim="a mixed A100+H100 fleet beats the all-A100 fleet's "
            "p95 at identical traffic",
            paper="future hardware as fleet headroom (Section V)",
            measured=(
                f"p95 {fleet_p95[flash_label]:.2f}s (A100x4) vs "
                f"{fleet_p95[mixed_label]:.2f}s (mixed)"
            ),
            holds=fleet_p95[mixed_label] < fleet_p95[flash_label],
        ),
        ClaimCheck(
            claim="the fault-free flash fleet runs near its 70% load "
            "target (dynamic batching absorbs part of it)",
            paper="70% offered load",
            measured=f"A100 pool utilization {fault_free_util * 100:.0f}%",
            holds=0.40 <= fault_free_util <= 0.85,
        ),
    ]
    return ExperimentResult(
        experiment_id=EXPERIMENT_ID,
        title="Fleet serving: Flash speedup, fault injection and "
        "hardware mix at ~70% load",
        headers=[
            "scenario", "fault", "p50 s", "p95 s", "p99 s", "goodput",
            "violation s", "avail", "pool utilization",
        ],
        rows=rows,
        claims=claims,
        notes=[
            "Deadlines are 3x each model's Flash service time; traffic "
            "is one seed-pinned Poisson stream shared by all scenarios.",
            "H100 pool service times are profiled on the H100 spec, "
            "not peak-ratio scaled.",
        ],
        values=values,
    )
