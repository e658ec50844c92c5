"""Fleet-scale serving study: faults, autoscaling, and SLOs.

A day-in-the-life walk through the fleet simulator: diurnal TTI
traffic over a heterogeneous A100+H100 fleet, a crash injected at the
morning peak, and the resulting latency percentiles, goodput, and
per-pool utilization.  Service times are illustrative constants so the
example runs in milliseconds; ``repro.experiments.serve1_fleet`` wires
the same machinery to profiled service times from the paper's models.

Run:  python examples/serving_study.py
"""

from repro.reporting import render_table
from repro.serving import (
    AutoscalerConfig,
    Crash,
    FAULT_FREE,
    FaultSchedule,
    PoolSpec,
    RetryPolicy,
    WorkloadMix,
    affine_batch_latency,
    diurnal_rate,
    generate_requests_pattern,
    simulate_fleet,
    slo_report,
)

MIX = WorkloadMix(
    shares={"stable_diffusion": 0.7, "muse": 0.3},
    service_s={"stable_diffusion": 2.6, "muse": 1.3},
)
DEADLINES = {"stable_diffusion": 8.0, "muse": 4.0}
DURATION_S = 3600.0  # one compressed "day" of traffic
MEAN_RATE = 1.3  # requests/s averaged over the day


def build_pools(h100_speedup: float = 1.7) -> list[PoolSpec]:
    """Two pools: a large A100 pool and a small, faster H100 pool."""
    a100 = PoolSpec(
        name="a100",
        machine="dgx-a100-80g",
        servers=4,
        latency_fns={
            model: affine_batch_latency(service, marginal_fraction=0.7)
            for model, service in MIX.service_s.items()
        },
        max_batch=4,
        policy="affinity",
        swap_cost_s=0.5,
        min_servers=2,  # the autoscaler may drain to two off-peak
        max_servers=5,  # and activate one standby server at the peak
    )
    h100 = PoolSpec(
        name="h100",
        machine="dgx-h100",
        servers=2,
        latency_fns={
            model: affine_batch_latency(
                service / h100_speedup, marginal_fraction=0.7
            )
            for model, service in MIX.service_s.items()
        },
        max_batch=4,
        policy="affinity",
        swap_cost_s=0.5,
    )
    return [a100, h100]


def main() -> None:
    rate_fn = diurnal_rate(MEAN_RATE, peak_to_trough=3.0, period_s=DURATION_S)
    requests = generate_requests_pattern(
        MIX,
        rate_fn,
        peak_rate=3.0 * MEAN_RATE,
        duration_s=DURATION_S,
        seed=17,
    )
    print(
        f"{len(requests)} requests over {DURATION_S:.0f} s "
        f"(diurnal, peak-to-trough 3x)"
    )

    # Crash one A100 server right at the traffic peak (t = period/4
    # for the sinusoidal profile) and keep it down for ten minutes.
    peak_s = DURATION_S / 4
    crash = FaultSchedule(
        crashes=(Crash(server=0, at_s=peak_s, downtime_s=600.0),)
    )
    retry = RetryPolicy(max_retries=2, backoff_s=1.0, timeout_s=60.0)
    autoscaler = AutoscalerConfig(
        check_interval_s=15.0, scale_up_backlog=3.0, startup_s=45.0
    )

    rows = []
    pool_rows = []
    for label, faults in (("healthy", FAULT_FREE), ("peak crash", crash)):
        report = simulate_fleet(
            requests,
            build_pools(),
            retry=retry,
            faults=faults,
            autoscaler=autoscaler,
        )
        slo = slo_report(report, DEADLINES)
        sd = slo.model("stable_diffusion")
        rows.append(
            [
                label,
                f"{sd.p50_s:.2f} s",
                f"{sd.p95_s:.2f} s",
                f"{sd.p99_s:.2f} s",
                f"{slo.goodput*100:.1f}%",
                f"{slo.availability*100:.2f}%",
                str(report.retried_count),
                str(len(report.failed)),
            ]
        )
        for stats in report.pools:
            pool_rows.append(
                [
                    label,
                    stats.name,
                    f"{stats.peak_servers}/{stats.servers}",
                    f"{stats.utilization*100:.0f}%",
                    str(stats.swaps),
                    f"{stats.down_s:.0f} s",
                ]
            )

    print()
    print(render_table(
        [
            "scenario", "SD p50", "SD p95", "SD p99",
            "goodput", "availability", "retries", "failed",
        ],
        rows,
        title="Diurnal TTI traffic on 4xA100 + 2xH100 "
        "(crash at the morning peak)",
    ))
    print()
    print(render_table(
        ["scenario", "pool", "peak/total servers", "util", "swaps", "down"],
        pool_rows,
        title="Per-pool accounting (autoscaler active)",
    ))
    print()
    print(
        "The crash strands the in-flight batch, forces retries, and "
        "pushes the p99 tail; goodput and availability record the "
        "damage that mean latency alone would hide."
    )


if __name__ == "__main__":
    main()
