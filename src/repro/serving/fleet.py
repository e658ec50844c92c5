"""Fleet-scale discrete-event serving simulator.

The repository's one request simulator.  "How many GPUs for this SLO"
is a single pool at ``max_batch=1``; a production TTI/TTV deployment
is messier: heterogeneous pools (mixed A100/H100 generations from the
:mod:`repro.distributed` machine registry, or multi-GPU sharded
replicas acting as one server), a scheduling policy per pool, servers
that crash and straggle, clients that time out and retry, and an
autoscaler reacting to backlog.  This
module simulates all of that with one event heap, deterministically:
the only randomness lives in the workload and fault *inputs* (both
seed-pinned), so a simulation is a pure function of its arguments.

Mechanics:

* Requests are routed at arrival (and at each retry) to the eligible
  pool — one whose latency table knows the request's model — with the
  lowest load per active server.
* Each pool runs one of the :data:`SCHEDULING_POLICIES`; batches are
  single-model, and switching the served model charges the pool's
  ``swap_cost_s`` (weight reload).  Dispatch never waits to
  fill a batch: an arrival that finds a free server launches at once,
  and a server that frees up takes up to ``max_batch`` queued
  requests.
* Faults follow :mod:`repro.serving.faults` semantics: crashes abort
  the in-flight batch (requests retry with backoff until attempts run
  out), stragglers multiply the latency of batches launched in their
  window, queue timeouts abandon attempts.
* The optional autoscaler activates standby servers when backlog per
  active server crosses a threshold, and drains idle ones when it
  falls; activation pays a model-load delay.

This module is the public surface: the config dataclasses, the
:class:`FleetReport` columns and records, and :func:`simulate_fleet`.
The engine behind it — struct-of-arrays state, one event heap merged
against a pre-sorted arrival column — lives in
:mod:`repro.serving.columnar` (see ``docs/FLEET_CORE.md``).  The
:class:`FleetReport` feeds :mod:`repro.serving.slo`, which turns raw
completions into p50/p95/p99, goodput and availability.

All times are **seconds** throughout the serving layer — fields and
attributes carry the ``_s`` suffix.
"""

from __future__ import annotations

from dataclasses import dataclass, fields
from functools import cached_property
from typing import TYPE_CHECKING, Mapping, Sequence

import numpy as np

if TYPE_CHECKING:  # pragma: no cover
    from repro.obs.telemetry import Telemetry
    from repro.serving.sharded import ShardedReplica
    from repro.serving.traffic import TrafficTrace

from repro.distributed.registry import machine_from_name
from repro.hw.spec import GPUSpec
from repro.ir.dtypes import FP16
from repro.serving.batching import BatchLatencyFn
from repro.serving.faults import (
    FAULT_FREE,
    NO_RETRIES,
    FaultSchedule,
    RecoveryPlan,
    RetryPolicy,
    _require_finite,
)
from repro.serving.resilience import (
    RESILIENCE_OFF,
    ResilienceConfig,
    ResilienceStats,
    ShedRequest,
)
from repro.serving.workload import Request, RequestBatch, as_request_batch


def affine_batch_latency(
    base_s: float, *, marginal_fraction: float = 0.3
) -> BatchLatencyFn:
    """Batch-latency curve from a single-request service time.

    Models the measured sub-linear batching curve as a fixed cost plus
    a per-request marginal cost: ``latency(b) = base * ((1 - mf) + mf *
    b)``, so ``latency(1) == base`` and each extra request adds
    ``mf * base``.  Use measured curves
    (:func:`repro.serving.batching.interpolated_batch_latency`) when
    profiles are available; this is the honest fallback for pools
    specified by scalar service times.
    """
    if base_s <= 0:
        raise ValueError("base service time must be positive")
    if not 0.0 < marginal_fraction <= 1.0:
        raise ValueError("marginal fraction must be in (0, 1]")

    def latency(batch: int) -> float:
        if batch <= 0:
            raise ValueError("batch must be positive")
        return base_s * ((1.0 - marginal_fraction)
                         + marginal_fraction * batch)

    return latency


def machine_speed_factor(
    machine: str, *, reference: str = "dgx-a100-80g"
) -> float:
    """Crude serving-speed ratio between two registered machines.

    Geometric mean of the FP16 tensor-peak ratio and the HBM-bandwidth
    ratio — the two roofline axes — between ``machine`` and
    ``reference``.  Good enough to scale a pool's service times across
    hardware generations when re-profiling is not worth it; experiments
    that care (``serve1``) profile on the target GPU instead.
    """
    target: GPUSpec = machine_from_name(machine).gpu
    base: GPUSpec = machine_from_name(reference).gpu
    flops = target.peak_flops_for(FP16) / base.peak_flops_for(FP16)
    bandwidth = target.dram_bandwidth / base.dram_bandwidth
    return (flops * bandwidth) ** 0.5


def pool_from_replicas(
    name: str,
    replicas: Sequence["ShardedReplica"],
    *,
    servers: int,
    **kwargs: object,
) -> "PoolSpec":
    """Build a pool whose servers are multi-GPU sharded replicas.

    Each :class:`repro.serving.sharded.ShardedReplica` contributes its
    measured batch-latency curve for its model; all replicas must live
    on the same registry machine (a pool is homogeneous hardware).
    ``servers`` counts replicas, not GPUs — per-GPU accounting should
    divide by ``replica.gpus``.  Extra keyword arguments pass through
    to :class:`PoolSpec` (``max_batch``, ``policy``, ...).
    """
    if not replicas:
        raise ValueError("need at least one replica")
    machines = {replica.machine_name for replica in replicas}
    if len(machines) > 1:
        raise ValueError(
            f"replicas span machines {sorted(machines)}; one pool is "
            "homogeneous — split them into separate pools"
        )
    models = [replica.model_name for replica in replicas]
    if len(set(models)) != len(models):
        raise ValueError("one replica per model per pool")
    return PoolSpec(
        name=name,
        machine=machines.pop(),
        servers=servers,
        latency_fns={
            replica.model_name: replica.latency_fn
            for replica in replicas
        },
        **kwargs,
    )


SCHEDULING_POLICIES = ("fifo", "sjf", "affinity")
"""The names :attr:`PoolSpec.policy` accepts (default ``"fifo"``).

A freshly free server's policy picks a model; the batch is then that
model's first ``max_batch`` queued requests in queue order, one per
request id (batching a hedge with its twin would defeat the hedge).
Switching the server's model pays the pool's ``swap_cost_s``.

* ``"fifo"`` — the head-of-line request's model.
* ``"sjf"`` — the model of the queued request with the smallest
  ``service_s``, ties to the earliest queued (a retry re-queues):
  lower mean latency (images overtake video), longer expensive tails.
* ``"affinity"`` — the server's last model while any of it is queued,
  avoiding the weight reload (gigabytes per switch for TTI/TTV
  checkpoints); otherwise FIFO, which bounds starvation.
"""


@dataclass(frozen=True)
class PoolSpec:
    """One homogeneous server pool inside the fleet.

    Attributes:
        name: pool label (appears in reports and routing).
        machine: :mod:`repro.distributed.registry` machine name the
            servers run on (validated at simulation start).
        servers: initially active server count.
        latency_fns: model name -> batch-latency function on this
            hardware; its key set defines which models the pool can
            serve (routing eligibility).
        max_batch: dynamic-batching cap per launch.
        policy: scheduling policy name, one of
            :data:`SCHEDULING_POLICIES`.
        swap_cost_s: added to the first batch after the served model
            changes (weight reload from host memory).
        min_servers: autoscaler floor.
        max_servers: autoscaler ceiling (standby servers exist between
            ``servers`` and this); defaults to ``servers`` (no
            headroom).
        zone: failure-domain zone id the pool's servers share
            (consumed by :func:`repro.serving.domains.topology_for_pools`;
            ``None`` falls back to the pool's declaration index).  The
            engine never reads this — it only feeds topology
            construction, so setting it cannot perturb a simulation.
    """

    name: str
    machine: str
    servers: int
    latency_fns: Mapping[str, BatchLatencyFn]
    max_batch: int = 8
    policy: str = "fifo"
    swap_cost_s: float = 0.0
    min_servers: int = 1
    max_servers: int | None = None
    zone: int | None = None

    def __post_init__(self) -> None:
        if self.servers <= 0 or self.max_batch <= 0:
            raise ValueError("servers and max_batch must be positive")
        if not self.latency_fns:
            raise ValueError("pool must serve at least one model")
        if self.policy not in SCHEDULING_POLICIES:
            raise ValueError(
                f"policy must be one of {SCHEDULING_POLICIES}, got "
                f"{self.policy!r}"
            )
        _require_finite(
            "swap_cost_s", self.swap_cost_s, self.swap_cost_s >= 0,
            "non-negative",
        )
        if not 1 <= self.min_servers <= self.servers:
            raise ValueError("need 1 <= min_servers <= servers")
        if self.max_servers is not None and self.max_servers < self.servers:
            raise ValueError("max_servers must be >= servers")
        if self.zone is not None and self.zone < 0:
            raise ValueError("zone must be non-negative")

    @property
    def standby_servers(self) -> int:
        """Servers the autoscaler may add beyond the initial count."""
        if self.max_servers is None:
            return 0
        return self.max_servers - self.servers


@dataclass(frozen=True)
class AutoscalerConfig:
    """Reactive backlog-threshold autoscaling.

    Attributes:
        check_interval_s: seconds between scaling decisions.
        scale_up_backlog: queued requests per active server above which
            a standby server is activated.
        scale_down_backlog: backlog per active server below which an
            idle server is drained (never under the pool floor).
        startup_s: activation delay (boot + weight load) before a
            scaled-up server takes traffic.
        cooldown_s: minimum time between scaling actions per pool.
    """

    check_interval_s: float = 30.0
    scale_up_backlog: float = 4.0
    scale_down_backlog: float = 0.5
    startup_s: float = 30.0
    cooldown_s: float = 60.0

    def __post_init__(self) -> None:
        _require_finite(
            "check_interval_s", self.check_interval_s,
            self.check_interval_s > 0, "positive",
        )
        for name in (
            "startup_s", "cooldown_s", "scale_down_backlog",
            "scale_up_backlog",
        ):
            value = getattr(self, name)
            _require_finite(name, value, value >= 0, "non-negative")
        if not self.scale_down_backlog < self.scale_up_backlog:
            raise ValueError(
                "need 0 <= scale_down_backlog < scale_up_backlog"
            )


@dataclass(frozen=True)
class FleetCompletion:
    """One successfully served request with its fleet timeline.

    ``hedged`` marks requests that had a duplicate copy in flight;
    ``rung``/``quality`` record the brownout rung the winning batch
    was served at (0 / 1.0 = nominal quality).
    """

    request: Request
    pool: str
    server: int
    queued_since_s: float
    start_s: float
    finish_s: float
    attempts: int
    hedged: bool = False
    rung: int = 0
    quality: float = 1.0

    @property
    def latency_s(self) -> float:
        """Client-observed latency including retries and backoff."""
        return self.finish_s - self.request.arrival_s

    @property
    def service_s(self) -> float:
        """Time on the GPU for the final (successful) attempt."""
        return self.finish_s - self.start_s

    @property
    def queueing_s(self) -> float:
        """Everything that is not final-attempt service time."""
        return self.latency_s - self.service_s

    @property
    def retried(self) -> bool:
        """True when the request needed more than one attempt."""
        return self.attempts > 1


@dataclass(frozen=True)
class FailedRequest:
    """A request that exhausted its attempts."""

    request: Request
    pool: str
    attempts: int
    reason: str
    failed_at_s: float


@dataclass(frozen=True)
class PoolStats:
    """Aggregate accounting for one pool over the run."""

    name: str
    machine: str
    servers: int
    peak_servers: int
    completed: int
    busy_s: float
    wasted_s: float
    down_s: float
    capacity_s: float
    swaps: int
    shed: int = 0

    @property
    def utilization(self) -> float:
        """Useful busy time over available server-seconds."""
        if self.capacity_s <= 0.0:
            return 0.0
        return min(1.0, self.busy_s / self.capacity_s)


# Terminal-state reason codes, interned once; reports store the small
# ints and materialize the strings on demand.
REASON_LABELS = (
    "unroutable", "crash", "timeout",
    "shed-rate", "shed-depth", "shed-wait",
)


@dataclass(frozen=True, eq=False)
class FleetReport:
    """Everything a fleet simulation produced, as aligned numpy columns.

    Every offered request reaches exactly one terminal state:
    ``offered == completed_count + failed_count + shed_count``.
    Completions / failures / sheds are parallel arrays sorted by
    finish / failure / shed time (stable tie-break on the order the
    engine recorded them).  :func:`repro.serving.slo.slo_report` and
    :func:`repro.serving.chaos.check_invariants` read the columns
    directly; the record tuples :attr:`completed`, :attr:`failed` and
    :attr:`shed` are built only when first read — fine for inspection
    and small runs, avoid them for million-request outputs.  ``==``
    compares the columns.

    All times are seconds.  ``comp_req``/``fail_req``/``shed_req``
    index the request table columns (``req_*``); ``*_pool`` columns
    hold indices into ``pool_names`` (−1 encodes the ``""`` pool of
    unroutable failures and rate-limit sheds); ``fail_reason`` /
    ``shed_reason`` hold indices into :data:`REASON_LABELS`.
    """

    models: tuple[str, ...]
    pool_names: tuple[str, ...]
    req_arrival_s: np.ndarray
    req_service_s: np.ndarray
    req_model_ids: np.ndarray
    req_request_ids: np.ndarray
    comp_req: np.ndarray
    comp_pool: np.ndarray
    comp_server: np.ndarray
    comp_queued_since_s: np.ndarray
    comp_start_s: np.ndarray
    comp_finish_s: np.ndarray
    comp_attempts: np.ndarray
    comp_hedged: np.ndarray
    comp_rung: np.ndarray
    comp_quality: np.ndarray
    fail_req: np.ndarray
    fail_pool: np.ndarray
    fail_attempts: np.ndarray
    fail_reason: np.ndarray
    fail_at_s: np.ndarray
    shed_req: np.ndarray
    shed_pool: np.ndarray
    shed_attempts: np.ndarray
    shed_reason: np.ndarray
    shed_at_s: np.ndarray
    pools: tuple[PoolStats, ...]
    makespan_s: float
    offered: int
    resilience: ResilienceStats

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, FleetReport):
            return NotImplemented
        for spec in fields(self):
            mine = getattr(self, spec.name)
            theirs = getattr(other, spec.name)
            if isinstance(mine, np.ndarray):
                if not np.array_equal(mine, theirs):
                    return False
            elif mine != theirs:
                return False
        return True

    @property
    def completed_count(self) -> int:
        """Number of successfully served requests."""
        return len(self.comp_req)

    @property
    def failed_count(self) -> int:
        """Number of requests that exhausted their attempts."""
        return len(self.fail_req)

    @property
    def shed_count(self) -> int:
        """Number of requests rejected by admission."""
        return len(self.shed_req)

    @property
    def completion_rate(self) -> float:
        """Fraction of offered requests that eventually completed."""
        if self.offered == 0:
            return 0.0
        return self.completed_count / self.offered

    @property
    def shed_rate(self) -> float:
        """Fraction of offered requests rejected by admission."""
        if self.offered == 0:
            return 0.0
        return self.shed_count / self.offered

    @property
    def retried_count(self) -> int:
        """Completed requests that needed more than one attempt."""
        return int((self.comp_attempts > 1).sum())

    @property
    def latency_s(self) -> np.ndarray:
        """Client-observed latency per completion (finish − arrival)."""
        return self.comp_finish_s - self.req_arrival_s[self.comp_req]

    @property
    def service_s(self) -> np.ndarray:
        """Final-attempt GPU time per completion (finish − start)."""
        return self.comp_finish_s - self.comp_start_s

    @property
    def queueing_s(self) -> np.ndarray:
        """Per-completion non-service latency (latency − service)."""
        return self.latency_s - self.service_s

    def _requests(self, rows: np.ndarray) -> list[Request]:
        models = self.models
        return [
            Request(
                request_id=rid, arrival_s=arrival,
                model=models[mid], service_s=service,
            )
            for rid, arrival, mid, service in zip(
                self.req_request_ids[rows].tolist(),
                self.req_arrival_s[rows].tolist(),
                self.req_model_ids[rows].tolist(),
                self.req_service_s[rows].tolist(),
            )
        ]

    def _pool_label(self, index: int) -> str:
        return self.pool_names[index] if index >= 0 else ""

    @cached_property
    def completed(self) -> tuple[FleetCompletion, ...]:
        """Completion records in finish order (built on first read)."""
        return tuple(
            FleetCompletion(
                request=request,
                pool=self.pool_names[pool],
                server=server,
                queued_since_s=queued,
                start_s=start,
                finish_s=finish,
                attempts=attempts,
                hedged=hedged,
                rung=rung,
                quality=quality,
            )
            for request, pool, server, queued, start, finish, attempts,
            hedged, rung, quality in zip(
                self._requests(self.comp_req), self.comp_pool.tolist(),
                self.comp_server.tolist(),
                self.comp_queued_since_s.tolist(),
                self.comp_start_s.tolist(), self.comp_finish_s.tolist(),
                self.comp_attempts.tolist(), self.comp_hedged.tolist(),
                self.comp_rung.tolist(), self.comp_quality.tolist(),
            )
        )

    @cached_property
    def failed(self) -> tuple[FailedRequest, ...]:
        """Failure records in failure-time order (built on first read)."""
        return tuple(
            FailedRequest(
                request=request,
                pool=self._pool_label(pool),
                attempts=attempts,
                reason=REASON_LABELS[reason],
                failed_at_s=at,
            )
            for request, pool, attempts, reason, at in zip(
                self._requests(self.fail_req), self.fail_pool.tolist(),
                self.fail_attempts.tolist(), self.fail_reason.tolist(),
                self.fail_at_s.tolist(),
            )
        )

    @cached_property
    def shed(self) -> tuple[ShedRequest, ...]:
        """Admission-shed records in shed-time order (built on first read)."""
        return tuple(
            ShedRequest(
                request=request,
                pool=self._pool_label(pool),
                attempts=attempts,
                reason=REASON_LABELS[reason],
                shed_at_s=at,
            )
            for request, pool, attempts, reason, at in zip(
                self._requests(self.shed_req), self.shed_pool.tolist(),
                self.shed_attempts.tolist(), self.shed_reason.tolist(),
                self.shed_at_s.tolist(),
            )
        )

    @cached_property
    def _pools_by_name(self) -> Mapping[str, PoolStats]:
        return {stats.name: stats for stats in self.pools}

    def pool_stats(self, name: str) -> PoolStats:
        """Stats for one pool by name (error lists the valid names)."""
        try:
            return self._pools_by_name[name]
        except KeyError:
            known = ", ".join(stats.name for stats in self.pools)
            raise ValueError(
                f"unknown pool {name!r}; known pools: {known}"
            ) from None


def _reject_repeated_ids(request_ids: np.ndarray) -> None:
    """Raise ``ValueError`` naming the ids that occur more than once."""
    ids = np.sort(request_ids)
    repeated = ids[1:][ids[1:] == ids[:-1]]
    if repeated.size:
        raise ValueError(
            f"request_ids must be unique; repeated: "
            f"{np.unique(repeated)[:5].tolist()}"
        )


def simulate_fleet(
    requests: Sequence[Request] | RequestBatch | "TrafficTrace",
    pools: Sequence[PoolSpec],
    *,
    retry: RetryPolicy = NO_RETRIES,
    faults: FaultSchedule = FAULT_FREE,
    autoscaler: AutoscalerConfig | None = None,
    resilience: ResilienceConfig = RESILIENCE_OFF,
    telemetry: "Telemetry | None" = None,
    plan: RecoveryPlan | None = None,
) -> FleetReport:
    """Run the fleet discrete-event simulation to completion.

    Server ids are assigned pool-by-pool in declaration order — active
    servers first, then the pool's standby (autoscaling) servers — so a
    :class:`~repro.serving.faults.FaultSchedule` can target "server 2
    of the first pool" stably.  The simulation is deterministic: same
    requests, pools, retry policy, fault schedule, autoscaler and
    resilience config produce an identical :class:`FleetReport`; the
    recorded corpus (``tests/golden/fleet_corpus.json``) pins the exact
    output.  Batch-latency functions must be *pure*: the engine prices
    each (pool, model, rung, batch size) once and memoizes it.

    ``requests`` is a ``Sequence[Request]``, a columnar
    :class:`repro.serving.workload.RequestBatch`, or a replayable
    :class:`repro.serving.traffic.TrafficTrace` (its ``batch`` is
    simulated without a copy).  Request ids must be unique: hedge
    de-duplication, retry jitter, telemetry spans and the report's
    accounting all key on them, so a repeated id raises ``ValueError``.

    ``telemetry`` takes a fresh :class:`repro.obs.Telemetry`
    collector; the engine emits request spans, fleet events and metric
    samples into it (read ``telemetry.log()`` afterwards).  Telemetry
    is purely observational — passing a collector never changes the
    simulation outcome, and ``None`` (the default) costs nothing.

    ``plan`` takes a :class:`~repro.serving.faults.RecoveryPlan` of
    scheduled orchestration actions (cordon/uncordon, domain-transition
    markers) — typically compiled by
    :func:`repro.serving.domains.compile_campaign` alongside the fault
    schedule.  ``None`` (the default) schedules nothing.
    """
    from repro.serving.columnar import _ColumnarState

    if not pools:
        raise ValueError("need at least one pool")
    names = [spec.name for spec in pools]
    if len(set(names)) != len(names):
        raise ValueError("pool names must be unique")
    for spec in pools:
        machine_from_name(spec.machine)  # validate early
    batch = as_request_batch(requests)
    _reject_repeated_ids(batch.request_ids)
    state = _ColumnarState(
        pools, retry, faults, autoscaler, resilience, batch,
        telemetry=telemetry, plan=plan,
    )
    return state.run()
