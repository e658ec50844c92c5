"""Deployment capacity planning from the performance model.

Connects the kernel-level characterization to the fleet-level question
a serving team actually asks: *how many GPUs do we need for this
traffic at this latency SLO?*  Service times come from the simulated
profiles (Table II's before/after Flash Attention), arrivals are
Poisson over a TTI traffic mix, and one FIFO pool of the fleet engine
(one request per launch) produces the latency percentiles.

Run:  python examples/deployment_study.py
"""

from repro.experiments.suite_cache import all_profiles
from repro.reporting import render_table
from repro.serving import (
    FleetReport,
    PoolSpec,
    Request,
    affine_batch_latency,
    generate_requests,
    percentile,
    simulate_fleet,
    suite_mix_from_profiles,
)

SHARES = {"stable_diffusion": 0.6, "muse": 0.3, "prod_image": 0.1}
ARRIVAL_RATE = 2.0  # requests/s
DURATION_S = 600.0
P95_SLO_S = 3.0
MAX_GPUS = 64


def serve(
    requests: list[Request], service_s: dict[str, float], gpus: int
) -> FleetReport:
    """Run the stream through one FIFO pool of ``gpus`` servers.

    One request per launch, each priced at its model's service time.
    """
    pool = PoolSpec(
        name="gpus",
        machine="dgx-a100-80g",
        servers=gpus,
        latency_fns={
            model: affine_batch_latency(service, marginal_fraction=1.0)
            for model, service in service_s.items()
        },
        max_batch=1,
    )
    return simulate_fleet(requests, [pool])


def p95_s(report: FleetReport) -> float:
    """Nearest-rank p95 of the client-observed latencies."""
    return percentile(report.latency_s.tolist(), 95.0)


def main() -> None:
    print("Profiling the serving mix (cached after first run)...")
    profiles = all_profiles()
    rows = []
    slo_rows = []
    for label, use_flash in (("baseline", False), ("flash", True)):
        mix = suite_mix_from_profiles(
            profiles, SHARES, use_flash=use_flash
        )
        # The pool prices each request from its model's profiled
        # service time, so the stream carries no per-request jitter.
        requests = generate_requests(
            mix, arrival_rate=ARRIVAL_RATE, duration_s=DURATION_S, seed=7,
            service_jitter=0.0,
        )
        for gpus in (2, 3, 4):
            report = serve(requests, mix.service_s, gpus)
            rows.append(
                [
                    label,
                    gpus,
                    f"{report.pool_stats('gpus').utilization*100:.0f}%",
                    f"{report.latency_s.mean():.2f} s",
                    f"{p95_s(report):.2f} s",
                ]
            )
        # Capacity search: the smallest pool whose p95 meets the SLO.
        needed = None
        for gpus in range(1, MAX_GPUS + 1):
            if p95_s(serve(requests, mix.service_s, gpus)) <= P95_SLO_S:
                needed = gpus
                break
        slo_rows.append(
            [label, f"{mix.mean_service_s:.2f} s", needed or f">{MAX_GPUS}"]
        )
    print()
    print(render_table(
        ["attention", "GPUs", "utilization", "mean latency", "p95"],
        rows,
        title=f"TTI serving mix at {ARRIVAL_RATE:.0f} req/s "
        f"({DURATION_S:.0f} s of traffic)",
    ))
    print()
    print(render_table(
        ["attention", "mean service", "GPUs for p95 <= 3 s"],
        slo_rows, title="Capacity to meet a 3-second p95 SLO",
    ))
    print()
    print(
        "Kernel-level optimization is fleet capacity: the Table II "
        "speedups translate directly into fewer GPUs per unit of "
        "traffic at the same SLO."
    )


if __name__ == "__main__":
    main()
