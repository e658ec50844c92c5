"""The benchmark's four workloads: their inputs, operations and checks.

Each builder takes the seed and its sizes as arguments (the defaults are
the benchmark's sizes; the tests pass tiny ones) and returns a
:class:`Workload`.  Building one imports what its operations need and
builds their fixed inputs; that is the part ``setup_s`` times.

A workload yields :class:`Op` s that one client runs back to back.  The
``run`` half of an op is timed and does the work a user waits for; the
``inspect`` half is untimed and turns the op's outputs into the number of
work items done, a digest of the simulated outputs and the reasons the op
failed, if any.  Simulated results count only as outputs here: every time
the benchmark reports is host time.
"""

from __future__ import annotations

import hashlib
import inspect as _inspect
import math
import random
from contextlib import AbstractContextManager
from dataclasses import dataclass
from itertools import count, product
from typing import Callable, Iterator, Mapping

SpanFactory = Callable[[str], AbstractContextManager]


@dataclass(frozen=True)
class Outcome:
    """What an op produced, as the benchmark accounts for it."""

    items: int
    digest: str
    failures: tuple[str, ...] = ()


@dataclass(frozen=True)
class Op:
    """One closed-loop operation: a timed ``run`` and an untimed ``inspect``.

    ``run`` receives a span factory; the battery opens one span per
    experiment with it, the other workloads ignore it.
    """

    label: str
    run: Callable[[SpanFactory], object]
    inspect: Callable[[object], Outcome]


@dataclass(frozen=True)
class Workload:
    """A named set of ops plus an optional untimed check of the last op.

    With ``passes`` set, ``ops`` yields one pass that runs whole in its
    own process, because a second pass in the same process would find
    every cache warm; peak RSS is read at its end.  Otherwise ``ops`` is
    an endless stream cut by the time budget, and peak RSS is read after
    the first op.  Either way RSS covers a fixed amount of work, so it
    does not grow with the number of ops a faster commit fits into the
    budget.

    With ``pass_latency`` set as well, the latency a user waits for is
    the whole pass, and the op time the benchmark reports is the sum of
    the pass's ops.
    """

    name: str
    item: str
    sizes: Mapping[str, object]
    ops: Callable[[], Iterator[Op]]
    final_check: Callable[[object], tuple[str, ...]] | None = None
    passes: bool = False
    pass_latency: bool = False


def _digest(*parts: object) -> str:
    hasher = hashlib.sha256()
    for part in parts:
        hasher.update(repr(part).encode())
        hasher.update(b"\0")
    return hasher.hexdigest()


def simulate_columnar(requests, pools, **kwargs):
    """``simulate_fleet`` on the columnar engine, while one can be chosen.

    Passes ``engine="columnar"`` only when the signature still has the
    parameter, so the benchmark keeps running unchanged once the fleet
    layer has a single engine.
    """
    import repro.serving.fleet as fleet

    if "engine" in _inspect.signature(fleet.simulate_fleet).parameters:
        kwargs["engine"] = "columnar"
    return fleet.simulate_fleet(requests, pools, **kwargs)


# -- battery -----------------------------------------------------------


def battery(seed: int, *, ids: tuple[str, ...] | None = None) -> Workload:
    """Every registered experiment, run and rendered, in registry order.

    The experiments are fixed, so the seed is ignored.  One op is one
    experiment; an op fails when its experiment raises or one of its
    claims does not hold.  The latency reported is the whole pass, the
    wall time of ``python -m repro.experiments all``: the median
    experiment would jump between experiments of different lengths from
    run to run.
    """
    from repro.experiments.runner import EXPERIMENTS

    chosen = tuple(EXPERIMENTS) if ids is None else tuple(ids)
    unknown = [exp_id for exp_id in chosen if exp_id not in EXPERIMENTS]
    if unknown:
        raise ValueError(f"unknown experiment ids: {unknown}")

    def op(exp_id: str) -> Op:
        def run(span: SpanFactory):
            with span(f"experiments.{exp_id}"):
                result = EXPERIMENTS[exp_id]()
                return result, result.render()

        def inspect(outputs) -> Outcome:
            result, text = outputs
            return Outcome(
                items=1,
                digest=_digest(text),
                failures=tuple(
                    f"{exp_id}: claim does not hold: {claim.claim}"
                    for claim in result.claims
                    if not claim.holds
                ),
            )

        return Op(exp_id, run, inspect)

    return Workload(
        name="battery",
        item="experiments",
        sizes={"experiments": len(chosen)},
        ops=lambda: (op(exp_id) for exp_id in chosen),
        passes=True,
        pass_latency=True,
    )


# -- design_sweep ------------------------------------------------------

SWEEP_MACHINES = ("A100_80GB", "H100_80GB", "MI300X_192GB")
SWEEP_BATCHES = (1, 2, 3, 4, 6, 8, 12, 16)


def design_sweep(
    seed: int,
    *,
    models: tuple[str, ...] | None = None,
    machines: tuple[str, ...] = SWEEP_MACHINES,
    batch_choices: tuple[int, ...] = SWEEP_BATCHES,
    batches_per_pass: int = 2,
) -> Workload:
    """Cold ``profile_model`` calls over models x machines x attention x batch.

    A pass profiles the whole grid, with ``batches_per_pass`` batch
    sizes drawn from the seed, in a seeded order.  Every op builds a
    fresh model, so the per-model profile memo never answers; the
    kernel-cost cache starts cold with the pass's process and is shared
    across its ops, as in any sweep.
    """
    import repro.profiler.profiler as profiler
    from repro.hw import spec as hw_spec
    from repro.ir.context import AttentionImpl
    from repro.models.registry import build_model, suite_names

    if not 1 <= batches_per_pass <= len(batch_choices):
        raise ValueError("need 1 <= batches_per_pass <= len(batch_choices)")
    names = tuple(suite_names()) if models is None else tuple(models)
    gpus = tuple(getattr(hw_spec, machine) for machine in machines)
    impls = (AttentionImpl.BASELINE, AttentionImpl.FLASH)

    def op(name, gpu, impl, batch) -> Op:
        def run(span: SpanFactory):
            return profiler.profile_model(
                build_model(name), gpu=gpu, attention_impl=impl,
                batch=batch,
            )

        def inspect(result) -> Outcome:
            total = result.total_time_s
            failures = []
            if not (math.isfinite(total) and total > 0.0):
                failures.append(f"total {total!r} is not finite and positive")
            events = math.fsum(event.cost.time_s for event in result.trace)
            if not math.isclose(events, total, rel_tol=1e-9, abs_tol=0.0):
                failures.append(
                    f"total {total!r} differs from its events' sum {events!r}"
                )
            return Outcome(
                items=1,
                digest=_digest(
                    name, gpu.name, impl.value, batch, total.hex(),
                    result.total_flops.hex(), len(result.trace),
                ),
                failures=tuple(failures),
            )

        return Op(f"{name}/{gpu.name}/{impl.value}/b{batch}", run, inspect)

    rng = random.Random(seed)
    batches = sorted(rng.sample(batch_choices, batches_per_pass))
    grid = list(product(names, gpus, impls, batches))
    rng.shuffle(grid)

    return Workload(
        name="design_sweep",
        item="profiles",
        sizes={
            "models": len(names),
            "machines": list(machines),
            "batches": batches,
            "ops_per_pass": len(grid),
        },
        ops=lambda: (op(*entry) for entry in grid),
        passes=True,
    )


# -- fleet workloads ---------------------------------------------------
#
# The fleet ops call the serving and obs layers through their modules
# (``traffic.generate_traffic``, ...), looked up at call time, so that a
# traced run sees the benchmark's own calls into each layer.

FLEET_SHARES = {"sd": 0.7, "muse": 0.3}
FLEET_SERVICE_S = {"sd": 2.0, "muse": 0.5}
DEADLINE_FACTOR = 3.0
#: fleet_day: requests per second of one client, before its Pareto rate
#: factor and on/off bursts.
CLIENT_RATE = 0.0061
#: fleet_control: zone pools, each with active servers and warm standbys,
#: offered this share of the active servers' saturation rate.
ZONES = 4
SERVERS_PER_ZONE = 3
STANDBY_PER_ZONE = 2
CONTROL_LOAD = 0.7


def _latency_fns(service_s: Mapping[str, float]):
    from repro.serving.fleet import affine_batch_latency

    return {
        model: affine_batch_latency(time, marginal_fraction=0.7)
        for model, time in service_s.items()
    }


def _deadlines() -> dict[str, float]:
    return {
        model: DEADLINE_FACTOR * time
        for model, time in FLEET_SERVICE_S.items()
    }


def fleet_day(
    seed: int,
    *,
    n_clients: int = 2000,
    duration_s: float = 14_400.0,
    servers: int = 20,
) -> Workload:
    """Client-structured days through the columnar engine, then SLOs.

    Op ``k`` generates a day from ``seed + k`` (Pareto-rated clients
    with on/off bursts), simulates it and computes its SLO report.  An
    op fails when the report's offered count differs from the generated
    one; the structural invariants run untimed on the last day.
    """
    import repro.serving.chaos as chaos
    import repro.serving.slo as slo
    import repro.serving.traffic as traffic
    from repro.serving.fleet import PoolSpec
    from repro.serving.workload import WorkloadMix

    mix = WorkloadMix(shares=FLEET_SHARES, service_s=FLEET_SERVICE_S)
    population = traffic.ClientPopulation(
        cards=traffic.cards_from_mix(mix),
        n_clients=n_clients,
        mean_rate_per_client=CLIENT_RATE,
        # bench-1m uses 1.8; below 2 the Pareto rates have infinite
        # variance and one seed in about twenty draws a day ~60% above
        # the mean, which overloads the pool and changes what is measured.
        tail_alpha=2.5,
        burst=traffic.BurstModel(
            mean_on_s=600.0, mean_off_s=1200.0, on_factor=2.0
        ),
        model_loyalty=0.3,
    )
    pools = [
        PoolSpec(
            name="a100",
            machine="dgx-a100-80g",
            servers=servers,
            latency_fns=_latency_fns(FLEET_SERVICE_S),
            max_batch=8,
        )
    ]
    deadlines = _deadlines()

    def op(day_seed: int) -> Op:
        def run(span: SpanFactory):
            trace = traffic.generate_traffic(
                population, duration_s=duration_s, seed=day_seed
            )
            report = simulate_columnar(trace, pools)
            return trace, report, slo.slo_report(report, deadlines)

        def inspect(outputs) -> Outcome:
            trace, report, slo_day = outputs
            generated = len(trace.batch)
            failures = ()
            if report.offered != generated:
                failures = (
                    f"offered {report.offered} != generated {generated}",
                )
            return Outcome(
                items=generated,
                digest=_digest(day_seed, generated, slo_day.render()),
                failures=failures,
            )

        return Op(f"day{day_seed}", run, inspect)

    def final_check(outputs) -> tuple[str, ...]:
        trace, report, _ = outputs
        return chaos.check_invariants(trace.batch, report).violations

    return Workload(
        name="fleet_day",
        item="requests",
        sizes={
            "clients": n_clients,
            "duration_s": duration_s,
            "mean_requests_per_day": round(
                n_clients * CLIENT_RATE * duration_s
            ),
            "servers": servers,
        },
        ops=lambda: (op(seed + k) for k in count()),
        final_check=final_check,
    )


def fleet_control(seed: int, *, requests_per_day: int = 6000) -> Workload:
    """Chaos days on zone pools with every protection and telemetry on.

    Op ``k`` draws a day from ``seed + k``: Poisson requests, a zone
    outage and a degraded rack link compiled with recovery
    orchestration, then the default fleet engine with retries,
    admission, breaker, hedging and brownout and a telemetry collector;
    then SLO and per-domain reports, the telemetry log, its JSONL export
    and burn-rate alerts.  After every op the structural invariants run
    untimed; a violation fails the op.
    """
    import repro.obs.alerts as alerts
    import repro.obs.export as export
    import repro.serving.chaos as chaos
    import repro.serving.fleet as fleet
    import repro.serving.slo as slo
    import repro.serving.workload as workload
    from repro.obs import Telemetry
    from repro.serving.domains import (
        DegradedLink,
        OrchestrationConfig,
        ZoneOutage,
        topology_for_pools,
    )
    from repro.serving.faults import RetryPolicy
    from repro.serving.resilience import (
        AdmissionConfig,
        BrownoutConfig,
        CircuitBreakerConfig,
        DegradedRung,
        HedgeConfig,
        ResilienceConfig,
    )

    mix = workload.WorkloadMix(shares=FLEET_SHARES, service_s=FLEET_SERVICE_S)
    pools = [
        fleet.PoolSpec(
            name=f"zone{zone}",
            machine="dgx-a100-80g",
            servers=SERVERS_PER_ZONE,
            latency_fns=_latency_fns(FLEET_SERVICE_S),
            max_batch=8,
            max_servers=SERVERS_PER_ZONE + STANDBY_PER_ZONE,
            zone=zone,
        )
        for zone in range(ZONES)
    ]
    topology = topology_for_pools(pools)
    rate = CONTROL_LOAD * ZONES * SERVERS_PER_ZONE * mix.saturation_rate()
    duration_s = requests_per_day / rate
    deadlines = _deadlines()
    retry = RetryPolicy(
        max_retries=3, backoff_s=0.5, multiplier=2.0, max_backoff_s=4.0,
        jitter=0.5, timeout_s=30.0,
    )
    resilience = ResilienceConfig(
        admission=AdmissionConfig(
            max_queue_depth=64,
            wait_budget_s={
                model: 2.0 * deadline for model, deadline in deadlines.items()
            },
        ),
        breaker=CircuitBreakerConfig(
            failure_threshold=3, window_s=60.0, cooldown_s=30.0,
            slow_factor=2.5,
        ),
        hedge=HedgeConfig(quantile=95.0, min_samples=30),
        brownout=BrownoutConfig(
            rungs=tuple(
                DegradedRung(
                    label=f"steps-x{factor}",
                    latency_fns=_latency_fns({
                        model: factor * time
                        for model, time in FLEET_SERVICE_S.items()
                    }),
                    quality=factor,
                )
                for factor in (0.75, 0.5)
            ),
        ),
    )
    orchestration = OrchestrationConfig(
        detection_delay_s=10.0, readmission_stagger_s=8.0,
        promote_stagger_s=2.0,
    )

    def campaign(day_seed: int) -> chaos.ChaosCampaign:
        rng = random.Random(day_seed)
        down = rng.randrange(ZONES)
        slow = rng.choice([zone for zone in range(ZONES) if zone != down])
        return chaos.ChaosCampaign(
            topology=topology,
            events=(
                ZoneOutage(
                    zone=down,
                    at_s=rng.uniform(0.15, 0.3) * duration_s,
                    duration_s=rng.uniform(0.15, 0.25) * duration_s,
                    stagger_s=6.0,
                ),
                DegradedLink(
                    scope="rack", index=slow,
                    at_s=rng.uniform(0.55, 0.7) * duration_s,
                    duration_s=rng.uniform(0.1, 0.2) * duration_s,
                    bandwidth_factor=0.25, comm_fraction=0.3,
                ),
            ),
            duration_s=duration_s,
            seed=day_seed,
        )

    def op(day_seed: int) -> Op:
        def run(span: SpanFactory):
            requests = workload.generate_requests(
                mix, arrival_rate=rate, duration_s=duration_s,
                seed=day_seed,
            )
            compiled = campaign(day_seed).compile(
                pools=pools, orchestration=orchestration
            )
            telemetry = Telemetry(sample_interval_s=5.0)
            report = fleet.simulate_fleet(
                requests, pools, retry=retry, faults=compiled.faults,
                resilience=resilience, telemetry=telemetry,
                plan=compiled.plan,
            )
            slo_day = slo.slo_report(report, deadlines)
            domains = slo.domain_slo_report(report, compiled)
            log = telemetry.log()
            exported = export.dumps_telemetry(log)
            firings = alerts.evaluate_alerts(log, deadlines)
            return requests, report, slo_day, domains, exported, firings

        def inspect(outputs) -> Outcome:
            requests, report, slo_day, domains, exported, firings = outputs
            return Outcome(
                items=len(requests),
                digest=_digest(
                    day_seed, len(requests), slo_day.render(),
                    domains.render(), exported, firings,
                ),
                failures=chaos.check_invariants(
                    requests, report, brownout=resilience.brownout
                ).violations,
            )

        return Op(f"day{day_seed}", run, inspect)

    return Workload(
        name="fleet_control",
        item="requests",
        sizes={
            "requests_per_day": requests_per_day,
            "zones": ZONES,
            "servers_per_zone": SERVERS_PER_ZONE,
            "standby_per_zone": STANDBY_PER_ZONE,
            "duration_s": duration_s,
        },
        ops=lambda: (op(seed + k) for k in count()),
    )


WORKLOADS: dict[str, Callable[[int], Workload]] = {
    "battery": battery,
    "design_sweep": design_sweep,
    "fleet_day": fleet_day,
    "fleet_control": fleet_control,
}
