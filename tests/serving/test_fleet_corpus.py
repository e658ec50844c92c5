"""Recorded fleet corpus: the engine must keep reproducing its digests.

``tests/golden/fleet_corpus.json`` holds SHA-256 digests of 308 small
seeded fleets, recorded from the event-at-a-time reference engine that
the columnar engine replaced (the columnar engine reproduced every one
bit-for-bit before the reference engine was deleted).  Each fleet is
rebuilt here from a plain ``random.Random(seed)`` — never from
Hypothesis, whose draws change between releases — and must match all
of its digests:

* ``records`` — every completion, failure and shed record plus pool
  stats, makespan, offered count and resilience stats, floats as
  ``float.hex``;
* ``slo`` — :func:`repro.serving.slo.slo_report` (replayed traces add
  :func:`repro.serving.slo.tier_slo_report` as ``tier_slo``);
* ``telemetry`` — the :func:`repro.obs.dumps_telemetry` bytes, for
  every third fleet of each family (``null`` when telemetry was off).

Every corpus fleet must also pass
:func:`repro.serving.chaos.check_invariants`.

Families: ``fleet`` (random pools, policies, faults, retries,
autoscaler and each resilience mechanism toggled), ``trace``
(client-structured traces replayed through the JSONL round trip),
``chaos`` (pool-per-zone fleets under generated correlated-fault
campaigns, optionally orchestrated) and ``targeted`` (one hand-built
scenario per mechanism, plus planner-built pools).

``--update-golden`` does not touch the corpus, so a refresh cannot
launder a divergence.  A deliberate re-pin — one that the change making
it announces, with the reason the engine's output moved — is::

    PYTHONPATH=src python tests/serving/test_fleet_corpus.py --record
"""

from __future__ import annotations

import builtins
import dataclasses
import hashlib
import json
import random
import sys
from functools import lru_cache
from pathlib import Path
from typing import Callable

import pytest

from repro.obs import Telemetry, dumps_telemetry
from repro.serving.chaos import check_invariants
from repro.serving.faults import (
    FAULT_FREE,
    NO_RETRIES,
    RetryPolicy,
    generate_faults,
)
from repro.serving.fleet import (
    AutoscalerConfig,
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
from repro.serving.slo import slo_report, tier_slo_report
from repro.serving.traffic import (
    BurstModel,
    ClientPopulation,
    TrafficTrace,
    cards_from_mix,
    dumps_trace,
    generate_traffic,
    loads_trace,
    poissonized,
    steps_spec,
)
from repro.serving.workload import WorkloadMix, generate_requests
from tests.py312_sum import py312_sum

CORPUS_PATH = (
    Path(__file__).resolve().parents[1] / "golden" / "fleet_corpus.json"
)
CORPUS_SCHEMA = "repro-fleet-corpus"

MODELS = ("sd", "muse", "video")
SERVICE_S = {"sd": 2.0, "muse": 0.5, "video": 6.0}
DEADLINES = {"sd": 8.0, "muse": 3.0, "video": 20.0}
MACHINES = ("dgx-a100-80g", "dgx-h100")
# Not ``SCHEDULING_POLICIES``: ``rng.choice`` reads this order, so the
# recorded fleets depend on it.
POLICIES = ("fifo", "sjf", "affinity")
TELEMETRY_INTERVAL_S = 7.0

FAMILY_SIZES = {"fleet": 150, "trace": 90, "chaos": 60}
FAMILY_SEED_BASE = {"fleet": 0, "trace": 10_000, "chaos": 20_000}


@dataclasses.dataclass
class CorpusFleet:
    """One corpus entry: simulation inputs plus SLO deadlines."""

    requests: object
    pools: list
    kwargs: dict
    deadlines: dict = dataclasses.field(default_factory=lambda: DEADLINES)
    telemetry: bool = False


def _mix(model_count: int) -> WorkloadMix:
    names = MODELS[:model_count]
    share = 1.0 / len(names)
    return WorkloadMix(
        shares={name: share for name in names},
        service_s={name: SERVICE_S[name] for name in names},
    )


def _latency_fns(names, scale=1.0):
    return {
        name: affine_batch_latency(
            SERVICE_S[name] * scale, marginal_fraction=0.6
        )
        for name in names
    }


def _brownout(names) -> BrownoutConfig:
    return BrownoutConfig(
        rungs=(
            DegradedRung(
                label="fast",
                latency_fns=_latency_fns(names, scale=0.5),
                quality=0.8,
            ),
        ),
        step_down_backlog=2.0,
        step_up_backlog=0.5,
        check_interval_s=5.0,
        dwell_s=5.0,
    )


# -- family builders ----------------------------------------------------


def random_fleet(rng: random.Random) -> CorpusFleet:
    """Random small fleet: mixed pools, every built-in policy, faults,
    retries, autoscaler and each resilience mechanism toggled."""
    model_count = rng.randint(1, 3)
    names = MODELS[:model_count]
    requests = generate_requests(
        _mix(model_count),
        arrival_rate=rng.uniform(0.5, 8.0),
        duration_s=rng.uniform(20.0, 90.0),
        seed=rng.randrange(2**16),
    )
    pools = []
    total_servers = 0
    for index in range(rng.randint(1, 2)):
        servers = rng.randint(1, 4)
        standby = rng.randint(0, 2)
        # Pool 0 serves everything (keeps most runs routable); later
        # pools may drop models, exercising routing and unroutable.
        served = (
            names if index == 0
            else names[rng.randint(0, model_count - 1):]
        )
        pools.append(PoolSpec(
            name=f"pool{index}",
            machine=MACHINES[index % len(MACHINES)],
            servers=servers,
            latency_fns=_latency_fns(served),
            max_batch=rng.randint(1, 4),
            policy=rng.choice(POLICIES),
            swap_cost_s=rng.choice((0.0, 0.4)),
            max_servers=servers + standby,
        ))
        total_servers += servers + standby
    retry = NO_RETRIES
    if rng.random() < 0.5:
        retry = RetryPolicy(
            max_retries=rng.randint(0, 2),
            backoff_s=rng.choice((0.0, 0.5, 1.0)),
            timeout_s=rng.choice((None, 5.0, 15.0)),
            multiplier=rng.choice((1.0, 2.0)),
            jitter=rng.choice((0.0, 0.5)),
        )
    faults = FAULT_FREE
    if rng.random() < 0.5:
        faults = generate_faults(
            servers=total_servers,
            duration_s=120.0,
            seed=rng.randrange(2**16),
            crash_rate_per_hour=rng.choice((0.0, 60.0)),
            mean_downtime_s=10.0,
            straggler_rate_per_hour=rng.choice((0.0, 120.0)),
            mean_straggler_s=15.0,
            slowdown=3.0,
        )
    resilience = ResilienceConfig(
        admission=rng.choice((
            None,
            AdmissionConfig(max_queue_depth=4),
            AdmissionConfig(wait_budget_s=6.0),
            AdmissionConfig(rate_per_s=2.0, burst=4.0),
        )),
        breaker=rng.choice((
            None,
            CircuitBreakerConfig(
                failure_threshold=2, window_s=60.0, cooldown_s=10.0,
                slow_factor=2.0,
            ),
        )),
        hedge=rng.choice((
            None,
            HedgeConfig(delay_s=4.0),
            HedgeConfig(quantile=90.0, min_samples=5),
        )),
        brownout=rng.choice((None, _brownout(names))),
    )
    autoscaler = rng.choice((
        None,
        AutoscalerConfig(
            check_interval_s=10.0, scale_up_backlog=2.0,
            scale_down_backlog=0.5, startup_s=5.0, cooldown_s=10.0,
        ),
    ))
    return CorpusFleet(
        requests=requests,
        pools=pools,
        kwargs=dict(
            retry=retry, faults=faults, autoscaler=autoscaler,
            resilience=resilience,
        ),
    )


def replayed_trace(rng: random.Random) -> CorpusFleet:
    """A client-structured trace replayed through the JSONL round trip
    (exactly what a trace file carries), on one pool."""
    model_count = rng.randint(1, 3)
    names = MODELS[:model_count]
    burst = None
    if rng.random() < 0.5:
        mean_on = rng.choice((20.0, 60.0))
        mean_off = rng.choice((120.0, 300.0))
        cap = (mean_on + mean_off) / mean_on  # 1 / p_on
        burst = BurstModel(
            mean_on_s=mean_on,
            mean_off_s=mean_off,
            on_factor=min(rng.choice((2.0, 5.0)), 0.99 * cap),
        )
    population = ClientPopulation(
        cards=cards_from_mix(
            _mix(model_count), {names[0]: (steps_spec(),)}
        ),
        n_clients=rng.randint(1, 30),
        mean_rate_per_client=rng.uniform(0.01, 0.3),
        tail_alpha=rng.uniform(1.3, 2.5),
        burst=burst,
        model_loyalty=rng.uniform(0.0, 1.0),
        property_spread=rng.uniform(0.0, 1.5),
    )
    trace = generate_traffic(
        population,
        duration_s=rng.uniform(30.0, 120.0),
        seed=rng.randrange(2**16),
    )
    if rng.random() < 0.5:
        trace = poissonized(trace, seed=rng.randrange(2**16))
    trace = loads_trace(dumps_trace(trace))
    pool = PoolSpec(
        name="pool0",
        machine="dgx-a100-80g",
        servers=rng.randint(1, 4),
        latency_fns=_latency_fns(trace.models),
        max_batch=rng.randint(1, 4),
        policy=rng.choice(POLICIES),
    )
    return CorpusFleet(requests=trace, pools=[pool], kwargs={})


def chaos_campaign(rng: random.Random) -> CorpusFleet:
    """A pool-per-zone fleet under a generated correlated-fault
    campaign, optionally orchestrated (cordon/uncordon, standby
    promotion, staggered re-admission)."""
    from repro.serving.chaos import ChaosConfig, generate_campaign
    from repro.serving.domains import (
        OrchestrationConfig,
        topology_for_pools,
    )

    model_count = rng.randint(1, 2)
    names = MODELS[:model_count]
    requests = generate_requests(
        _mix(model_count),
        arrival_rate=rng.uniform(1.0, 5.0),
        duration_s=150.0,
        seed=rng.randrange(2**16),
    )
    pools = [
        PoolSpec(
            name=f"zone{zone}",
            machine=MACHINES[zone % len(MACHINES)],
            servers=rng.randint(2, 3),
            latency_fns=_latency_fns(names),
            max_batch=rng.randint(1, 4),
            max_servers=rng.randint(3, 5),
            zone=zone,
        )
        for zone in range(rng.randint(2, 3))
    ]
    config = ChaosConfig(
        zone_outage_rate=rng.choice((0.0, 1 / 200.0)),
        rack_outage_rate=rng.choice((0.0, 1 / 300.0)),
        partition_rate=rng.choice((0.0, 1 / 300.0)),
        degraded_rate=rng.choice((0.0, 1 / 300.0)),
        mean_duration_s=30.0,
        stagger_s=rng.choice((0.0, 4.0)),
    )
    campaign = generate_campaign(
        topology_for_pools(pools), config, duration_s=150.0,
        seed=rng.randrange(2**16),
    )
    orchestration = rng.choice((
        None,
        OrchestrationConfig(
            detection_delay_s=5.0, readmission_stagger_s=3.0,
            promote_stagger_s=2.0,
        ),
        OrchestrationConfig(
            detection_delay_s=15.0, readmission_stagger_s=0.0,
            max_promotions=1,
        ),
    ))
    compiled = campaign.compile(pools=pools, orchestration=orchestration)
    retry = rng.choice((
        NO_RETRIES,
        RetryPolicy(max_retries=2, backoff_s=0.5, timeout_s=15.0),
    ))
    return CorpusFleet(
        requests=requests,
        pools=pools,
        kwargs=dict(
            retry=retry, faults=compiled.faults, plan=compiled.plan
        ),
    )


FAMILIES: dict[str, Callable[[random.Random], CorpusFleet]] = {
    "fleet": random_fleet,
    "trace": replayed_trace,
    "chaos": chaos_campaign,
}


# -- targeted scenarios -------------------------------------------------


def _requests(rate=4.0, duration=120.0, seed=11, models=3):
    return generate_requests(
        _mix(models), arrival_rate=rate, duration_s=duration, seed=seed
    )


def _pools(**kwargs):
    base = dict(
        name="pool0", machine="dgx-a100-80g", servers=3,
        latency_fns=_latency_fns(MODELS), max_batch=4,
    )
    base.update(kwargs)
    return [PoolSpec(**base)]


def _targeted(requests, pools, **kwargs) -> CorpusFleet:
    return CorpusFleet(requests=requests, pools=pools, kwargs=kwargs)


def crashes_with_retries_and_timeouts() -> CorpusFleet:
    return _targeted(
        _requests(), _pools(),
        retry=RetryPolicy(max_retries=2, backoff_s=0.5, timeout_s=10.0),
        faults=generate_faults(
            servers=3, duration_s=120.0, seed=5,
            crash_rate_per_hour=120.0, mean_downtime_s=8.0,
        ),
    )


def breaker_open_probe_close_cycle() -> CorpusFleet:
    return _targeted(
        _requests(), _pools(),
        retry=RetryPolicy(max_retries=3, backoff_s=0.5, timeout_s=None),
        faults=generate_faults(
            servers=3, duration_s=120.0, seed=5,
            crash_rate_per_hour=180.0, mean_downtime_s=5.0,
            straggler_rate_per_hour=240.0, mean_straggler_s=20.0,
        ),
        resilience=ResilienceConfig(
            breaker=CircuitBreakerConfig(
                failure_threshold=1, window_s=30.0, cooldown_s=5.0,
                slow_factor=1.5,
            )
        ),
    )


def hedging_quantile_with_two_pools() -> CorpusFleet:
    pools = _pools() + [
        PoolSpec(
            name="pool1", machine="dgx-h100", servers=2,
            latency_fns=_latency_fns(MODELS), max_batch=2,
        )
    ]
    return _targeted(
        _requests(rate=6.0), pools,
        resilience=ResilienceConfig(
            hedge=HedgeConfig(quantile=75.0, min_samples=5)
        ),
    )


def brownout_ladder_steps_down_and_up() -> CorpusFleet:
    rungs = tuple(
        DegradedRung(
            label=label,
            latency_fns=_latency_fns(MODELS, scale=scale),
            quality=quality,
        )
        for label, scale, quality in (("r1", 0.6, 0.9), ("r2", 0.3, 0.7))
    )
    return _targeted(
        _requests(rate=8.0, duration=60.0), _pools(servers=2),
        resilience=ResilienceConfig(
            brownout=BrownoutConfig(
                rungs=rungs, step_down_backlog=1.5, step_up_backlog=0.5,
                check_interval_s=5.0, dwell_s=5.0,
            )
        ),
    )


def autoscaler_up_and_down() -> CorpusFleet:
    return _targeted(
        _requests(rate=8.0, duration=60.0),
        _pools(servers=1, max_servers=4),
        autoscaler=AutoscalerConfig(
            check_interval_s=5.0, scale_up_backlog=2.0,
            scale_down_backlog=0.5, startup_s=3.0, cooldown_s=5.0,
        ),
        resilience=RESILIENCE_OFF,
    )


def bursty_trace_under_admission_control() -> CorpusFleet:
    # The serve3 mechanism in miniature: an overdispersed
    # client-structured trace against a token-bucket front door.
    population = ClientPopulation(
        cards=cards_from_mix(_mix(2)),
        n_clients=25,
        mean_rate_per_client=0.15,
        tail_alpha=1.5,
        burst=BurstModel(mean_on_s=20.0, mean_off_s=100.0, on_factor=5.0),
    )
    trace = loads_trace(dumps_trace(generate_traffic(
        population, duration_s=150.0, seed=17
    )))
    return _targeted(
        trace, _pools(servers=2),
        resilience=ResilienceConfig(
            admission=AdmissionConfig(
                max_queue_depth=12, wait_budget_s=15.0,
                rate_per_s=1.05 * trace.offered_rate, burst=6.0,
            )
        ),
    )


def full_stack_everything_on() -> CorpusFleet:
    pools = [
        PoolSpec(
            name="pool0", machine="dgx-a100-80g", servers=3,
            latency_fns=_latency_fns(MODELS), max_batch=4,
            swap_cost_s=0.3, max_servers=5,
            policy="affinity",
        ),
        PoolSpec(
            name="pool1", machine="dgx-h100", servers=2,
            latency_fns=_latency_fns(MODELS[:2]), max_batch=2,
            policy="sjf",
        ),
    ]
    return _targeted(
        _requests(rate=6.0, duration=180.0, seed=29), pools,
        retry=RetryPolicy(
            max_retries=2, backoff_s=0.5, timeout_s=12.0,
            multiplier=2.0, jitter=0.5,
        ),
        faults=generate_faults(
            servers=7, duration_s=180.0, seed=23,
            crash_rate_per_hour=90.0, mean_downtime_s=8.0,
            straggler_rate_per_hour=90.0, mean_straggler_s=15.0,
        ),
        autoscaler=AutoscalerConfig(
            check_interval_s=10.0, scale_up_backlog=2.0,
            scale_down_backlog=0.5, startup_s=5.0, cooldown_s=10.0,
        ),
        resilience=ResilienceConfig(
            admission=AdmissionConfig(
                max_queue_depth=16, wait_budget_s=20.0,
                rate_per_s=6.0, burst=10.0,
            ),
            breaker=CircuitBreakerConfig(
                failure_threshold=2, window_s=60.0, cooldown_s=8.0,
                slow_factor=2.0,
            ),
            hedge=HedgeConfig(quantile=90.0, min_samples=8),
            brownout=BrownoutConfig(
                rungs=(
                    DegradedRung(
                        label="fast",
                        latency_fns=_latency_fns(MODELS, scale=0.5),
                        quality=0.8,
                    ),
                ),
                step_down_backlog=2.0,
            ),
        ),
    )


@lru_cache(maxsize=1)
def _planned_pools():
    """An auto-planned pool plus a hand-configured TP-2 pool, so routing
    crosses pools with different planner-built latency curves."""
    from repro.distributed.planner import ParallelConfig
    from repro.models.registry import build_model
    from repro.serving.fleet import pool_from_replicas
    from repro.serving.sharded import planned_pool, replica_from_plan

    model = build_model("stable_diffusion")
    auto_pool, point = planned_pool(
        "auto", model, machine="dgx-a100-80g",
        gpu_budget=4, global_batch=4, batches=(1, 2, 4),
    )
    hand = replica_from_plan(
        model, ParallelConfig(tp=2), machine="dgx-h100",
        batches=(1, 2, 4),
    )
    hand_pool = pool_from_replicas("hand-tp2", [hand], servers=2)
    return [auto_pool, hand_pool], point, hand.latency(1)


def planned_pools_replay_trace() -> CorpusFleet:
    pools, point, service_s = _planned_pools()
    population = ClientPopulation(
        cards=cards_from_mix(WorkloadMix(
            shares={"stable_diffusion": 1.0},
            service_s={"stable_diffusion": service_s},
        )),
        n_clients=12,
        mean_rate_per_client=0.2,
        tail_alpha=1.6,
    )
    trace = loads_trace(dumps_trace(generate_traffic(
        population, duration_s=120.0, seed=31
    )))
    return CorpusFleet(
        requests=trace, pools=pools, kwargs={},
        deadlines={"stable_diffusion": 4.0 * point.latency_s},
    )


TARGETED: dict[str, Callable[[], CorpusFleet]] = {
    "crashes-retries-timeouts": crashes_with_retries_and_timeouts,
    "breaker-cycle": breaker_open_probe_close_cycle,
    "hedging-quantile-two-pools": hedging_quantile_with_two_pools,
    "brownout-ladder": brownout_ladder_steps_down_and_up,
    "autoscaler-up-down": autoscaler_up_and_down,
    "bursty-trace-admission": bursty_trace_under_admission_control,
    "full-stack": full_stack_everything_on,
    "planned-pools": planned_pools_replay_trace,
}


def corpus_ids() -> list[str]:
    """Every corpus fleet id, in recording order."""
    ids = [
        f"{family}-{index:03d}"
        for family, size in FAMILY_SIZES.items()
        for index in range(size)
    ]
    return ids + [f"targeted-{name}" for name in TARGETED]


def build_fleet(fleet_id: str) -> CorpusFleet:
    """Rebuild one corpus fleet from its id (deterministic)."""
    family, _, rest = fleet_id.partition("-")
    if family == "targeted":
        fleet = TARGETED[rest]()
        index = list(TARGETED).index(rest)
    else:
        index = int(rest)
        rng = random.Random(FAMILY_SEED_BASE[family] + index)
        fleet = FAMILIES[family](rng)
    fleet.telemetry = index % 3 == 0
    return fleet


# -- digests ------------------------------------------------------------


def _canonical(value):
    """JSON-ready form with every float as ``float.hex`` (bit-exact)."""
    if isinstance(value, float):
        return value.hex()
    if value is None or isinstance(value, (bool, int, str)):
        return value
    if dataclasses.is_dataclass(value):
        return [
            _canonical(getattr(value, field.name))
            for field in dataclasses.fields(value)
        ]
    if isinstance(value, (tuple, list)):
        return [_canonical(item) for item in value]
    raise TypeError(f"cannot digest {type(value).__name__}")


def _sha256(value) -> str:
    text = json.dumps(_canonical(value), separators=(",", ":"))
    return hashlib.sha256(text.encode()).hexdigest()


def run_fleet(fleet: CorpusFleet):
    """Simulate one corpus fleet; returns ``(report, telemetry)``."""
    telemetry = (
        Telemetry(sample_interval_s=TELEMETRY_INTERVAL_S)
        if fleet.telemetry else None
    )
    report = simulate_fleet(
        fleet.requests, fleet.pools, telemetry=telemetry, **fleet.kwargs
    )
    return report, telemetry


def fleet_digests(fleet: CorpusFleet, report, telemetry) -> dict:
    """The corpus entry for one simulated fleet."""
    entry = {
        "offered": report.offered,
        "completed": len(report.completed),
        "records": _sha256((
            report.completed, report.failed, report.shed, report.pools,
            report.makespan_s, report.offered, report.resilience,
        )),
        "slo": _sha256(slo_report(report, fleet.deadlines)),
        "telemetry": (
            hashlib.sha256(
                dumps_telemetry(telemetry.log()).encode()
            ).hexdigest()
            if telemetry is not None else None
        ),
    }
    if isinstance(fleet.requests, TrafficTrace):
        entry["tier_slo"] = _sha256(
            tier_slo_report(report, fleet.requests, fleet.deadlines)
        )
    return entry


def record(note: str) -> dict:
    """Simulate every corpus fleet and return the corpus document."""
    fleets = {}
    for fleet_id in corpus_ids():
        fleet = build_fleet(fleet_id)
        fleets[fleet_id] = fleet_digests(fleet, *run_fleet(fleet))
    return {
        "schema": CORPUS_SCHEMA,
        "version": 1,
        "recorded_with": note,
        "fleets": fleets,
    }


def write_corpus(document: dict) -> None:
    CORPUS_PATH.write_text(
        json.dumps(document, indent=1, sort_keys=True) + "\n"
    )


@lru_cache(maxsize=1)
def _corpus() -> dict:
    return json.loads(CORPUS_PATH.read_text())


# -- tests --------------------------------------------------------------


def test_corpus_covers_every_fleet():
    corpus = _corpus()
    assert corpus["schema"] == CORPUS_SCHEMA
    assert sorted(corpus["fleets"]) == sorted(corpus_ids())
    assert len(corpus["fleets"]) >= 300
    with_telemetry = [
        entry for entry in corpus["fleets"].values()
        if entry["telemetry"] is not None
    ]
    assert len(with_telemetry) >= 100


@pytest.mark.parametrize("fleet_id", corpus_ids())
def test_fleet_matches_corpus(fleet_id):
    fleet = build_fleet(fleet_id)
    report, telemetry = run_fleet(fleet)
    verdict = check_invariants(
        fleet.requests, report,
        brownout=fleet.kwargs.get("resilience", RESILIENCE_OFF).brownout,
    )
    assert verdict.ok, verdict.render()
    assert fleet_digests(fleet, report, telemetry) == (
        _corpus()["fleets"][fleet_id]
    )


def test_corpus_unchanged_under_python312_sum(monkeypatch):
    """Python 3.12's compensated ``sum()`` moves no digest.

    Runs every fleet, planned pools included, with CPython 3.12's
    algorithm patched into ``builtins.sum``: each float total the
    digests cover must add left to right whatever the interpreter.
    """
    monkeypatch.setattr(builtins, "sum", py312_sum)
    _planned_pools.cache_clear()
    try:
        moved = []
        for fleet_id in corpus_ids():
            fleet = build_fleet(fleet_id)
            digests = fleet_digests(fleet, *run_fleet(fleet))
            expected = _corpus()["fleets"][fleet_id]
            moved.extend(
                f"{fleet_id}:{key}" for key in expected
                if digests.get(key) != expected[key]
            )
    finally:
        _planned_pools.cache_clear()
    assert not moved, f"{len(moved)} digests moved: {moved[:10]}"


def test_planned_pool_curve_reaches_engine():
    """Every completion on the auto-planned pool took at least one
    batch-1 service time from the planner's symbolic basis."""
    fleet = planned_pools_replay_trace()
    report, _ = run_fleet(fleet)
    _, point, _ = _planned_pools()
    auto = report.pool_names.index("auto")
    served = report.service_s[report.comp_pool == auto]
    assert served.size
    assert served.min() >= point.latency_s * 0.9


if __name__ == "__main__":
    if sys.argv[1:] != ["--record"]:
        raise SystemExit(f"usage: {sys.argv[0]} --record")
    write_corpus(record("columnar fleet engine (deliberate re-pin)"))
