"""serve3: client-structured traffic flips an admission-control call.

serve1 and serve2 drive the fleet with (rate-modulated) Poisson
arrivals — every request exchangeable with every other.  ServeGen
(arXiv:2505.09999) shows production traffic is client-structured
instead: per-client rates are heavy-tailed, clients burst on and off,
and clients differ in what they ask for.  This experiment makes the
systems consequence concrete: the *same* admission-control policy,
judged at the *same offered load*, is the right call under
client-structured traffic and the wrong call under Poisson traffic.

Setup: a client population over the flash-profiled SD 2.1 / Muse
service times (with denoising-step and image-size request properties),
run through a launch-day-spike scenario, and its :func:`poissonized`
twin — the identical request multiset (same count, same service-time
and model composition) re-arrived as homogeneous Poisson.  Each trace
is simulated with admission control off and on; goodput decides.

The admission front door is a token bucket refilled at 1.05x the
trace's own average rate (plus queue-depth and estimated-wait caps) —
a sound configuration *if* arrivals were Poisson.  Under
client-structured traffic the spike plus per-client bursts spend long
stretches far above the average, piling queues beyond the deadline
horizon; shedding that excess protects everyone else and admission
*raises* goodput.  Under the Poisson twin the same offered load never
sustains excursions, so the bucket only trims ordinary fluctuation —
requests that would have finished on time — and admission *lowers*
goodput.  A capacity plan or policy choice validated on
Poisson arrivals therefore mis-ranks the configurations — the paper's
deployability argument needs the traffic model, not just the cost
model.  The committed golden (``tests/golden/serve3.json``) pins the
flip exactly; the per-tier breakdown (:func:`tier_slo_report`) shows
the heavy tier both causes and absorbs most of the damage.
"""

from __future__ import annotations

import numpy as np

from repro.experiments.base import ClaimCheck, ExperimentResult, fleet_values
from repro.experiments.suite_cache import all_profiles
from repro.serving.fleet import (
    PoolSpec,
    affine_batch_latency,
    simulate_fleet,
)
from repro.serving.resilience import (
    RESILIENCE_OFF,
    AdmissionConfig,
    ResilienceConfig,
)
from repro.serving.slo import slo_report, tier_slo_report
from repro.serving.traffic import (
    BurstModel,
    ClientPopulation,
    ModelTrafficCard,
    RateWindow,
    TrafficTrace,
    generate_traffic,
    poissonized,
    steps_spec,
)
from repro.serving.workload import suite_mix_from_profiles

EXPERIMENT_ID = "serve3"

MODELS = ("stable_diffusion", "muse")
SHARES = {"stable_diffusion": 0.7, "muse": 0.3}
SEED = 11
POISSON_SEED = 12
DURATION_S = 1800.0
SERVERS = 6
N_CLIENTS = 400
BASE_LOAD = 0.62
TAIL_ALPHA = 1.6
BURST = BurstModel(mean_on_s=60.0, mean_off_s=600.0, on_factor=8.0)
DISPERSION_BIN_S = 60.0
RATE_HEADROOM = 1.05
BUCKET_BURST = 30.0


def _population(service: dict[str, float]) -> ClientPopulation:
    """The launch-day client base over the profiled service times.

    SD requests vary their denoising-step count (the base service time
    is the 20-step point; 30- and 50-step variants scale it), Muse
    requests are fixed-shape.  ``mean_rate_per_client`` is solved so
    the offered load outside the spike lands at ``BASE_LOAD`` of
    capacity; the 3x spike over a fifth of the day lifts the time
    average to 1.4x that.
    """
    cards = (
        ModelTrafficCard(
            name="stable_diffusion",
            base_service_s=service["stable_diffusion"],
            share=SHARES["stable_diffusion"],
            properties=(steps_spec(),),
        ),
        ModelTrafficCard(
            name="muse",
            base_service_s=service["muse"],
            share=SHARES["muse"],
            properties=(),
        ),
    )
    base = ClientPopulation(
        cards=cards,
        n_clients=N_CLIENTS,
        mean_rate_per_client=1.0,  # placeholder, rescaled below
        tail_alpha=TAIL_ALPHA,
        burst=BURST,
        model_loyalty=0.5,
        property_spread=1.5,
    )
    capacity = SERVERS / base.mean_service_s()
    return ClientPopulation(
        cards=cards,
        n_clients=N_CLIENTS,
        mean_rate_per_client=BASE_LOAD * capacity / N_CLIENTS,
        tail_alpha=TAIL_ALPHA,
        burst=BURST,
        model_loyalty=0.5,
        property_spread=1.5,
        # The launch-day spike: 3x over the middle fifth of the day.
        rate_windows=(RateWindow(0.4 * DURATION_S, 0.2 * DURATION_S, 3.0),),
    )


def _pool(service: dict[str, float]) -> PoolSpec:
    return PoolSpec(
        name="a100",
        machine="dgx-a100-80g",
        servers=SERVERS,
        latency_fns={
            model: affine_batch_latency(time, marginal_fraction=0.7)
            for model, time in service.items()
        },
        max_batch=8,
    )


def _admission(
    deadlines: dict[str, float], mean_rate: float
) -> ResilienceConfig:
    """Admission provisioned against the *declared* average load.

    The token bucket refills at 1.05x the trace's mean offered rate —
    a perfectly reasonable front door if arrivals were Poisson, since
    the average never exceeds it.  Client-structured traffic spends
    long stretches far above its own average, which is exactly the
    case this policy protects against (and Poisson fluctuation is the
    case it needlessly penalizes).
    """
    return ResilienceConfig(
        admission=AdmissionConfig(
            max_queue_depth=48,
            wait_budget_s={
                model: 1.5 * deadline
                for model, deadline in deadlines.items()
            },
            rate_per_s=RATE_HEADROOM * mean_rate,
            burst=BUCKET_BURST,
        )
    )


def dispersion_index(
    trace: TrafficTrace, bin_s: float = DISPERSION_BIN_S
) -> float:
    """Variance-to-mean ratio of arrival counts in fixed bins.

    1.0 for a homogeneous Poisson process; client-structured traffic
    is overdispersed (bursts and rate windows inflate the variance).
    """
    bins = int(trace.duration_s / bin_s)
    counts, _ = np.histogram(
        trace.batch.arrival_s, bins=bins, range=(0.0, trace.duration_s)
    )
    mean = float(counts.mean()) if bins else 0.0
    if mean == 0.0:
        return 0.0
    return float(counts.var()) / mean


def _run_scenarios():
    """Simulate {client, poisson} x {no admission, admission}.

    Returns ``(scenarios, traces, deadlines)`` where ``scenarios`` is
    a list of ``(traffic_label, policy_label, report, slo)``.
    """
    service = suite_mix_from_profiles(all_profiles(), SHARES).service_s
    deadlines = {name: 3.0 * service[name] for name in MODELS}
    client_trace = generate_traffic(
        _population(service), duration_s=DURATION_S, seed=SEED
    )
    poisson_trace = poissonized(client_trace, seed=POISSON_SEED)
    pool = _pool(service)
    admission = _admission(deadlines, client_trace.offered_rate)
    scenarios = []
    for traffic_label, trace in (
        ("client", client_trace), ("poisson", poisson_trace)
    ):
        for policy_label, resilience in (
            ("no-admission", RESILIENCE_OFF),
            ("admission", admission),
        ):
            report = simulate_fleet(
                trace, [pool], resilience=resilience
            )
            scenarios.append((
                traffic_label, policy_label, report,
                slo_report(report, deadlines),
            ))
    traces = {"client": client_trace, "poisson": poisson_trace}
    return scenarios, traces, deadlines


def run() -> ExperimentResult:
    """Regenerate this experiment and check its claims."""
    scenarios, traces, deadlines = _run_scenarios()
    client_trace = traces["client"]
    poisson_trace = traces["poisson"]
    rows: list[list[object]] = []
    goodput: dict[tuple[str, str], float] = {}
    by_key: dict[tuple[str, str], tuple] = {}
    values: dict = {}
    for traffic_label, policy_label, report, slo in scenarios:
        key = (traffic_label, policy_label)
        by_key[key] = (report, slo)
        goodput[key] = slo.goodput
        values[f"{traffic_label}|{policy_label}"] = fleet_values(report, slo)
        entry = {m.model: m for m in slo.per_model}
        sd = entry["stable_diffusion"]
        rows.append([
            traffic_label,
            policy_label,
            sum(m.offered for m in slo.per_model),
            f"{sd.p50_s:.2f}",
            f"{sd.p95_s:.2f}",
            f"{sd.p99_s:.2f}",
            f"{slo.goodput * 100:.1f}%",
            slo.shed,
            slo.failed,
        ])

    flip_holds = (
        goodput[("client", "admission")]
        > goodput[("client", "no-admission")]
        and goodput[("poisson", "admission")]
        < goodput[("poisson", "no-admission")]
    )
    disp_client = dispersion_index(client_trace)
    disp_poisson = dispersion_index(poisson_trace)
    values["traces"] = {
        label: {
            "requests": float(len(trace)),
            "service_sum_s": float(trace.batch.service_s.sum()),
            "dispersion": dispersion,
        }
        for label, trace, dispersion in (
            ("client", client_trace, disp_client),
            ("poisson", poisson_trace, disp_poisson),
        )
    }

    tiers = tier_slo_report(
        by_key[("client", "no-admission")][0], client_trace, deadlines
    )
    values["client_tiers"] = {
        entry.tier: {
            "clients": float(entry.clients),
            "offered": float(entry.offered),
            "p95_s": entry.p95_s,
            "goodput": entry.goodput,
        }
        for entry in tiers.per_tier
    }
    heavy = tiers.tier("heavy")
    light = tiers.tier("light")
    total_offered = sum(t.offered for t in tiers.per_tier)
    heavy_share = (
        heavy.offered / total_offered if total_offered else 0.0
    )
    heavy_clients = heavy.clients
    client_frac = (
        heavy_clients / client_trace.n_clients
        if client_trace.n_clients else 0.0
    )

    conservation_ok = all(
        report.offered
        == report.completed_count + report.failed_count + report.shed_count
        for _, _, report, _ in scenarios
    )
    equal_load = len(client_trace) == len(poisson_trace) and (
        abs(
            float(client_trace.batch.service_s.sum())
            - float(poisson_trace.batch.service_s.sum())
        ) < 1e-6
    )

    claims = [
        ClaimCheck(
            claim="the admission-control ranking flips with the "
            "traffic model: at equal offered load, shedding raises "
            "goodput under client-structured traffic and lowers it "
            "under the Poisson twin",
            paper="deployability conclusions depend on workload "
            "structure (ServeGen), not only on the cost model",
            measured=(
                f"client {goodput[('client', 'no-admission')] * 100:.1f}%"
                f" -> {goodput[('client', 'admission')] * 100:.1f}% "
                f"with admission; poisson "
                f"{goodput[('poisson', 'no-admission')] * 100:.1f}% -> "
                f"{goodput[('poisson', 'admission')] * 100:.1f}%"
            ),
            holds=flip_holds,
        ),
        ClaimCheck(
            claim="both arms offer identical load: same request "
            "count and total service seconds",
            paper="controlled comparison (poissonized twin)",
            measured=(
                f"{len(client_trace)} requests, "
                f"{float(client_trace.batch.service_s.sum()):.1f} "
                "service-seconds in both arms"
            ),
            holds=equal_load,
        ),
        ClaimCheck(
            claim="client-structured arrivals are strongly "
            "overdispersed relative to the Poisson twin "
            "(index of dispersion in 60 s bins)",
            paper="autocorrelated per-client bursts",
            measured=(
                f"dispersion {disp_client:.1f} vs "
                f"{disp_poisson:.1f} (Poisson ~ 1)"
            ),
            holds=disp_client > 3.0 * disp_poisson,
        ),
        ClaimCheck(
            claim="per-client rates are heavy-tailed: the heavy tier "
            "(top ~5% of clients) carries over a quarter of all "
            "offered requests",
            paper="power-law client rates",
            measured=(
                f"{heavy_clients}/{client_trace.n_clients} clients "
                f"({client_frac * 100:.0f}%) carry "
                f"{heavy_share * 100:.0f}% of requests"
            ),
            holds=heavy_share > 0.25,
        ),
        ClaimCheck(
            claim="every run conserves requests (offered = completed "
            "+ failed + shed) and the tier breakdown partitions them",
            paper="simulator invariant",
            measured=(
                f"conservation {'holds' if conservation_ok else 'FAILS'}"
                f" across {len(scenarios)} runs; tier rows sum to "
                f"{total_offered} offered"
            ),
            holds=conservation_ok and total_offered == (
                by_key[("client", "no-admission")][0].completed_count
                + by_key[("client", "no-admission")][0].failed_count
                + by_key[("client", "no-admission")][0].shed_count
            ),
        ),
    ]
    notes = [
        "Both traffic arms replay the same request multiset; the "
        "poisson arm erases client structure via poissonized().",
        "Client arm: launch-day-spike scenario over a Pareto "
        f"(alpha={TAIL_ALPHA}) population of {N_CLIENTS} clients with "
        "on/off bursts; p50/p95/p99 columns are stable_diffusion "
        "latencies.",
        "Per-tier view (client, no admission): heavy "
        f"p95 {_fmt_tier(heavy.p95_s)} s vs light "
        f"p95 {_fmt_tier(light.p95_s)} s.",
    ]
    return ExperimentResult(
        experiment_id=EXPERIMENT_ID,
        title="Client-structured vs Poisson traffic: the admission "
        "verdict flips at equal offered load",
        headers=[
            "traffic", "policy", "offered", "p50 s", "p95 s",
            "p99 s", "goodput", "shed", "failed",
        ],
        rows=rows,
        claims=claims,
        notes=notes,
        values=values,
    )


def _fmt_tier(value: float | None) -> str:
    from repro.serving.slo import fmt_missing

    return fmt_missing(value)
