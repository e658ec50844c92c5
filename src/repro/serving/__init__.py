"""Serving-layer simulation: workloads, fleets, SLOs.

The deployability half of the paper's closing argument: per-request
service times come from the performance model, and this package turns
them into fleet-level latency/throughput numbers.  One request
simulator, :func:`simulate_fleet`, covers everything from a single
FIFO pool (one pool at ``max_batch=1``) up to a heterogeneous fleet
with scheduling policies, fault injection, retries and autoscaling
(:mod:`repro.serving.fleet`), with SLO accounting on top
(:mod:`repro.serving.slo`).

:func:`simulate_fleet` runs one struct-of-arrays engine
(:mod:`repro.serving.columnar`) and returns a columnar
:class:`FleetReport` — a million-request day in seconds.  A recorded
corpus of seeded fleets pins its output bit for bit; see
``docs/FLEET_CORE.md`` for the engine contract.

The package re-exports the names the README, docs and examples import
from it; everything else is imported from its submodule
(:mod:`repro.serving.traffic`, :mod:`repro.serving.chaos`, ...).
"""

from repro.serving.faults import (
    FAULT_FREE,
    Crash,
    FaultSchedule,
    RetryPolicy,
    Straggler,
)
from repro.serving.fleet import (
    AutoscalerConfig,
    FleetReport,
    PoolSpec,
    affine_batch_latency,
    pool_from_replicas,
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
from repro.serving.sharded import (
    planned_pool,
    replica_from_plan,
    sharded_replica,
)
from repro.serving.slo import percentile, slo_report
from repro.serving.workload import (
    Request,
    WorkloadMix,
    bursty_rate,
    diurnal_rate,
    generate_requests,
    generate_requests_pattern,
    suite_mix_from_profiles,
)

__all__ = [
    "AdmissionConfig",
    "AutoscalerConfig",
    "BrownoutConfig",
    "CircuitBreakerConfig",
    "Crash",
    "DegradedRung",
    "FAULT_FREE",
    "FaultSchedule",
    "FleetReport",
    "HedgeConfig",
    "PoolSpec",
    "RESILIENCE_OFF",
    "Request",
    "ResilienceConfig",
    "RetryPolicy",
    "Straggler",
    "WorkloadMix",
    "affine_batch_latency",
    "bursty_rate",
    "diurnal_rate",
    "generate_requests",
    "generate_requests_pattern",
    "percentile",
    "planned_pool",
    "pool_from_replicas",
    "replica_from_plan",
    "sharded_replica",
    "simulate_fleet",
    "slo_report",
    "suite_mix_from_profiles",
]
