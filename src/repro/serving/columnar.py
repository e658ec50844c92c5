"""The fleet engine: struct-of-arrays state, one merged event loop.

:func:`repro.serving.fleet.simulate_fleet` runs this engine; nothing
here is public.  The layout is chosen so that ServeGen-style
million-request client traces replay in seconds:

* **Struct-of-arrays state.**  Requests live as four aligned columns
  (:class:`repro.serving.workload.RequestBatch`); queue entries,
  servers and breakers are parallel Python lists / bytearrays indexed
  by integer id, not heap-allocated objects.  Entry ``i < n`` is
  request ``i``'s first attempt, so the entry columns are filled once
  and only hedge copies append; a completion keeps its entry id, and
  the report gathers its request, attempts and queued-since from the
  entry columns.  A pool queues its entries in one FIFO per model and
  keeps their count, so a batch is popped off its model's FIFO.  numpy
  handles ingestion (stable argsort of arrivals, model interning) and
  report assembly (stable sorts, bincounts, gathers); the decision
  loop runs on scalar list indexing, which beats numpy scalar access
  for this access pattern.
* **No heap traffic for arrivals.**  Arrivals are a pre-sorted column
  merged against the (much smaller) runtime event heap; they still
  take their place in the global ``(time, seq)`` event order, so
  control decisions (admission control, circuit breakers, brownout,
  autoscaler ticks) fire at exact simulated instants, never deferred
  (see ``docs/FLEET_CORE.md``).
* **Memoized latency curves, indexed free-server heaps, maintained
  sorted hedge samples** — no per-event recomputation.  Batch-latency
  functions must therefore be *pure*: each (pool, model, rung, batch
  size) is priced once, and a non-finite or negative price is rejected
  there with the pool, model, rung and batch size named.

The recorded corpus (``tests/golden/fleet_corpus.json``, checked by
``tests/serving/test_fleet_corpus.py``) pins the engine's output bit
for bit.  All times are **seconds** of simulation time.
"""

from __future__ import annotations

import math
from bisect import insort
from collections import deque
from heapq import heapify, heappop, heappush
from itertools import count
from typing import TYPE_CHECKING, Sequence

import numpy as np

from repro.ordered_sum import ordered_sum
if TYPE_CHECKING:  # pragma: no cover
    from repro.obs.telemetry import Telemetry

from repro.serving.faults import FaultSchedule, RecoveryPlan, RetryPolicy
from repro.serving.fleet import (
    REASON_LABELS,
    SCHEDULING_POLICIES,
    AutoscalerConfig,
    FleetReport,
    PoolSpec,
    PoolStats,
)
from repro.serving.resilience import ResilienceConfig, ResilienceStats
from repro.serving.workload import RequestBatch

# Indices into REASON_LABELS.
_R_UNROUTABLE, _R_CRASH, _R_TIMEOUT = 0, 1, 2
_R_SHED_RATE, _R_SHED_DEPTH, _R_SHED_WAIT = 3, 4, 5

# Event kinds (arrivals never enter the heap — they are a pre-sorted
# column merged against it).
_RETRY, _FREE, _CRASH, _RECOVER, _TIMEOUT = 0, 1, 2, 3, 4
_ACTIVATE, _TICK, _HEDGE, _PROBE, _BROWNOUT = 5, 6, 7, 8, 9
_CORDON, _UNCORDON, _MARKER = 10, 11, 12


def _load(pool: "_ColPool") -> float:
    """Queued plus busy entries per active server (routing, admission)."""
    return (pool.queued + pool.busy_count) / (pool.active_count or 1)


class _ColPool:
    """Mutable per-pool engine state."""

    __slots__ = (
        "spec", "index", "fifos", "queued", "sid0", "nserv",
        "last_scale_at", "peak_servers", "pending_activations", "rung",
        "last_rung_change", "active_count", "busy_count", "free_heap",
        "policy_mode", "spec_fns", "rung_fns", "max_batch",
    )

    def __init__(
        self, spec: PoolSpec, index: int, sid0: int, models: int
    ):
        self.spec = spec
        self.index = index
        # Queued entry ids, one FIFO per model id, and their total.
        self.fifos = [deque() for _ in range(models)]
        self.queued = 0
        self.sid0 = sid0
        self.nserv = spec.servers + spec.standby_servers
        self.last_scale_at = float("-inf")
        self.peak_servers = spec.servers
        self.pending_activations = 0
        self.rung = 0
        self.last_rung_change = float("-inf")
        self.active_count = spec.servers
        self.busy_count = 0
        self.free_heap: list[int] = []
        # 0 fifo, 1 sjf, 2 affinity.
        self.policy_mode = SCHEDULING_POLICIES.index(spec.policy)
        self.spec_fns: dict[int, object] = {}
        self.rung_fns: list[dict[int, object]] = []
        self.max_batch = spec.max_batch


class _ColumnarState:
    """The merged arrival/event loop behind ``simulate_fleet``."""

    def __init__(
        self,
        pools: Sequence[PoolSpec],
        retry: RetryPolicy,
        faults: FaultSchedule,
        autoscaler: AutoscalerConfig | None,
        resilience: ResilienceConfig,
        batch: RequestBatch,
        telemetry: "Telemetry | None" = None,
        plan: RecoveryPlan | None = None,
    ):
        self.tel = telemetry
        self.retry = retry
        self.autoscaler = autoscaler
        self.res = resilience
        self.faults = faults
        self.plan = plan
        self.batch = batch
        self.models = batch.models
        # Request table as plain lists: the hot loop reads scalars.
        self.r_arrival = batch.arrival_s.tolist()
        self.r_service = batch.service_s.tolist()
        self.r_model = batch.model_ids.tolist()
        self.r_rid = batch.request_ids.tolist()

        model_index = {name: mid for mid, name in enumerate(self.models)}
        self.pools: list[_ColPool] = []
        self.pool_names = tuple(spec.name for spec in pools)
        nserv_total = sum(
            spec.servers + spec.standby_servers for spec in pools
        )
        # Server SoA (indexed by fleet-wide sid, pools contiguous).
        self.s_pool = [0] * nserv_total
        self.s_alive = bytearray([1]) * nserv_total
        self.s_active = bytearray(nserv_total)
        self.s_activated_at: list[float | None] = [None] * nserv_total
        self.s_active_s = [0.0] * nserv_total
        self.s_down_since: list[float | None] = [None] * nserv_total
        self.s_down_s = [0.0] * nserv_total
        self.s_busy_s = [0.0] * nserv_total
        self.s_wasted_s = [0.0] * nserv_total
        self.s_last_model = [-1] * nserv_total
        self.s_generation = [0] * nserv_total
        self.s_batch: list[list[int] | None] = [None] * nserv_total
        self.s_batch_start = [0.0] * nserv_total
        self.s_batch_model = [-1] * nserv_total
        self.s_swaps = [0] * nserv_total
        self.s_batch_nominal = [0.0] * nserv_total
        self.s_batch_rung = [0] * nserv_total
        use_breaker = resilience.breaker is not None
        self.use_breaker = use_breaker
        self.b_state = bytearray(nserv_total)  # 0 closed 1 open 2 half
        self.b_failures: list[list[float]] = [
            [] for _ in range(nserv_total)
        ] if use_breaker else []
        self.b_opened_at = [0.0] * nserv_total
        self.b_probe = bytearray(nserv_total)
        self.b_opens = [0] * nserv_total
        self.b_open_s = [0.0] * nserv_total

        sid = 0
        for pidx, spec in enumerate(pools):
            pool = _ColPool(spec, pidx, sid, len(self.models))
            for model, fn in spec.latency_fns.items():
                mid = model_index.get(model)
                if mid is not None:
                    pool.spec_fns[mid] = fn
            if resilience.brownout is not None:
                for rung in resilience.brownout.rungs:
                    pool.rung_fns.append({
                        model_index[model]: fn
                        for model, fn in rung.latency_fns.items()
                        if model in model_index
                    })
            for local in range(pool.nserv):
                self.s_pool[sid] = pidx
                if local < spec.servers:
                    self.s_active[sid] = 1
                    self.s_activated_at[sid] = 0.0
                    pool.free_heap.append(sid)
                sid += 1
            heapify(pool.free_heap)
            self.pools.append(pool)
        self.nserv_total = nserv_total

        # Routing: eligible pools per model id, pool-declaration order.
        self.route_pools: list[list[_ColPool]] = [
            [
                pool for pool in self.pools
                if mid in pool.spec_fns
            ]
            for mid in range(len(self.models))
        ]

        # Stragglers split per sid, preserving global schedule order so
        # "first matching window" wins when windows overlap.
        self.straggler_by_sid: dict[int, list[tuple[float, float, float]]]
        self.straggler_by_sid = {}
        for window in faults.stragglers:
            self.straggler_by_sid.setdefault(window.server, []).append(
                (window.at_s, window.until_s, window.slowdown)
            )
        # Chaos-off fast path: skip the per-dispatch window lookup.
        self.has_stragglers = bool(self.straggler_by_sid)

        self.heap: list[tuple[float, int, int, object]] = []
        self.seq = 0
        self.latency_memo: dict[tuple[int, int, int, int], float] = {}
        self.timeout_s = retry.timeout_s

        # Entry SoA.  Entry ``i < n`` is request ``i``'s first attempt,
        # queued since its arrival; retries reuse their entry, and only
        # hedge copies append (``_on_hedge``).  ``e_stamp`` is 0 unless
        # the entry is queued, else its place in queue order: a stamp
        # drawn on every placement, so a pending timeout of an older
        # placement reads a different one.
        n = len(self.r_arrival)
        self.e_req = list(range(n))
        self.e_attempts = [1] * n
        self.e_queued_since = list(self.r_arrival)
        self.e_stamp = [0] * n
        self.stamps = count(1)
        self.e_pool = [-1] * n
        self.e_twin = [-1] * n
        self.e_is_hedge = bytearray(n)
        self.e_cancelled = bytearray(n)
        self.e_done = bytearray(n)

        # Terminal-record buffers (append order breaks sort ties).  A
        # completion keeps its entry id: an entry's request, attempts,
        # queued-since and twin are final once it completes, so
        # ``_build_report`` gathers them from the entry columns.
        self.c_eid: list[int] = []
        self.c_server: list[int] = []
        self.c_start: list[float] = []
        self.c_finish: list[float] = []
        self.c_rung: list[int] = []
        self.f_req: list[int] = []
        self.f_pool: list[int] = []
        self.f_attempts: list[int] = []
        self.f_reason: list[int] = []
        self.f_at: list[float] = []
        self.sh_req: list[int] = []
        self.sh_pool: list[int] = []
        self.sh_attempts: list[int] = []
        self.sh_reason: list[int] = []
        self.sh_at: list[float] = []

        self.last_arrival = 0.0
        admission = resilience.admission
        self.admission = admission
        self.bucket_tokens = (
            admission.burst if admission is not None else 0.0
        )
        self.bucket_last = 0.0
        # Wait budget per model id (``None`` = no cap).
        self.wait_budgets = [
            admission.budget_for(name) if admission is not None else None
            for name in self.models
        ]
        # Hedging: per-model latency samples kept *sorted* (insort) so
        # the running quantile never re-sorts a growing list.
        self.hedging = resilience.hedge is not None
        self.samples_sorted: list[list[float]] = [
            [] for _ in self.models
        ]
        self.hedges_launched = 0
        self.hedge_wins = 0
        self.hedge_wasted_s = 0.0
        ladder = resilience.brownout
        self.rung_quality = (1.0,) + tuple(
            rung.quality for rung in ladder.rungs
        ) if ladder is not None else (1.0,)
        self.rung_changes = 0

    # -- plumbing ------------------------------------------------------

    def _push(self, time: float, kind: int, payload: object) -> None:
        self.seq += 1
        heappush(self.heap, (time, self.seq, kind, payload))

    def _sid_free(self, sid: int) -> bool:
        state = self.b_state[sid]  # stays 0 (closed) without a breaker
        return bool(
            self.s_alive[sid] and self.s_active[sid]
            and self.s_batch[sid] is None
            and (state == 0 or (state == 2 and not self.b_probe[sid]))
        )

    def _mark_maybe_free(self, sid: int) -> None:
        heappush(self.pools[self.s_pool[sid]].free_heap, sid)

    # -- run loop ------------------------------------------------------

    def run(self) -> FleetReport:
        """Merge the arrival column with the event heap to completion."""
        n = len(self.r_arrival)
        offered = n
        if n:
            order = np.argsort(
                self.batch.arrival_s, kind="stable"
            )
            arr_times = self.batch.arrival_s[order].tolist()
            order_list = order.tolist()
            self.last_arrival = arr_times[-1]
        else:
            arr_times = []
            order_list = []
        for crash in self.faults.crashes:
            if crash.server < self.nserv_total:
                self._push(
                    crash.at_s, _CRASH, (crash.server, crash.recover_s)
                )
        # Seed order at equal times: crashes, plan events, then the
        # autoscaler and brownout ticks.
        if self.plan is not None:
            for action in self.plan.actions:
                if action.server < self.nserv_total:
                    self._push(
                        action.at_s,
                        _CORDON if action.kind == "cordon"
                        else _UNCORDON,
                        action.server,
                    )
            for marker in self.plan.markers:
                self._push(marker.at_s, _MARKER, marker)
        if self.autoscaler is not None:
            self._push(self.autoscaler.check_interval_s, _TICK, None)
        if self.res.brownout is not None:
            self._push(
                self.res.brownout.check_interval_s, _BROWNOUT, None
            )
        tel = self.tel
        if tel is not None:
            tel.begin(
                self.pool_names, self.s_pool, self._sample_gauges
            )

        heap = self.heap
        # Indexed by event kind (``_RETRY`` .. ``_MARKER``).
        handlers = (
            self._on_retry, self._on_free, self._on_crash,
            self._on_recover, self._on_timeout, self._on_activate,
            self._on_tick, self._on_hedge, self._on_probe,
            self._on_brownout, self._on_cordon, self._on_uncordon,
            self._on_marker,
        )
        enqueue = self._enqueue
        hedging = self.hedging
        e_done = self.e_done
        r_model = self.r_model
        # An arrival goes before every heap event at its time (and
        # arrivals at one time in input order: the sort is stable).
        for at, ridx in zip(arr_times, order_list):
            while heap and heap[0][0] < at:
                now, _, kind, payload = heappop(heap)
                if tel is not None:
                    tel.advance(now)
                handlers[kind](now, payload)
            # An arrival: request ``ridx`` enters as entry ``ridx``.
            if tel is not None:
                tel.advance(at)
                tel.record_submit(
                    self.r_rid[ridx], self.models[r_model[ridx]], at
                )
            enqueue(at, ridx)
            if hedging and not e_done[ridx]:
                delay = self._hedge_delay(r_model[ridx])
                if delay is not None:
                    self._push(at + delay, _HEDGE, ridx)
        while heap:
            now, _, kind, payload = heappop(heap)
            if tel is not None:
                tel.advance(now)
            handlers[kind](now, payload)
        return self._build_report(offered)

    def _sample_gauges(self) -> list[tuple]:
        """One gauge tuple per pool, in ``POOL_GAUGES`` order."""
        rows = []
        for pool in self.pools:
            open_breakers = 0
            if self.use_breaker:
                b_state = self.b_state
                open_breakers = sum(
                    1 for sid in range(
                        pool.sid0, pool.sid0 + pool.nserv
                    )
                    if b_state[sid] == 1
                )
            rows.append((
                pool.queued,
                pool.busy_count,
                pool.active_count,
                pool.rung,
                open_breakers,
            ))
        return rows

    # -- event handlers ------------------------------------------------

    def _on_retry(self, now: float, eid: int) -> None:
        if self.e_cancelled[eid] or self.e_done[eid]:
            return
        self.e_queued_since[eid] = now
        self._enqueue(now, eid)

    def _on_free(self, now: float, payload) -> None:
        sid, generation = payload
        batch = self.s_batch[sid]
        if batch is None or self.s_generation[sid] != generation:
            return  # aborted by a crash
        start = self.s_batch_start[sid]
        duration = now - start
        self.s_busy_s[sid] += duration
        rung = self.s_batch_rung[sid]
        pool = self.pools[self.s_pool[sid]]
        tel = self.tel
        for eid in batch:
            if self.e_cancelled[eid]:
                self.hedge_wasted_s += duration / len(batch)
                continue
            self.e_done[eid] = 1
            if tel is not None:
                tel.record_complete(
                    self.r_rid[self.e_req[eid]], now, pool.spec.name,
                    sid, self.e_attempts[eid], rung,
                    hedged=self.e_twin[eid] != -1,
                    win=self.e_is_hedge[eid],
                )
            self.c_eid.append(eid)
            self.c_server.append(sid)
            self.c_start.append(start)
            self.c_finish.append(now)
            self.c_rung.append(rung)
            if self.hedging:  # only hedging makes twins
                twin = self.e_twin[eid]
                if twin != -1:
                    if self.e_is_hedge[eid]:
                        self.hedge_wins += 1
                    self._cancel(twin, now)
                ridx = self.e_req[eid]
                insort(
                    self.samples_sorted[self.r_model[ridx]],
                    now - self.r_arrival[ridx],
                )
        if self.use_breaker:
            self._observe_batch(sid, now, duration)
        self.s_last_model[sid] = self.s_batch_model[sid]
        self.s_batch[sid] = None
        pool.busy_count -= 1
        heappush(pool.free_heap, sid)
        if pool.queued:
            self._dispatch(pool, now)

    def _on_crash(self, now: float, payload) -> None:
        sid, recover_s = payload
        if not self.s_alive[sid] or not self.s_active[sid]:
            return
        self.s_alive[sid] = 0
        self.s_down_since[sid] = now
        self.s_generation[sid] += 1
        batch = self.s_batch[sid]
        pool = self.pools[self.s_pool[sid]]
        if self.tel is not None:
            self.tel.record_server(
                now, "server_crash", sid, pool.spec.name
            )
        if batch is not None:
            self.s_wasted_s[sid] += now - self.s_batch_start[sid]
            for eid in batch:
                if self.e_cancelled[eid]:
                    continue
                self._retry_or_fail(
                    now, eid, reason=_R_CRASH, pool=pool.index
                )
            self.s_batch[sid] = None
            pool.busy_count -= 1
        if self.use_breaker:
            self._breaker_failure(sid, now)
        self._push(recover_s, _RECOVER, sid)

    def _on_recover(self, now: float, sid: int) -> None:
        if self.s_alive[sid]:
            return
        self.s_alive[sid] = 1
        if self.tel is not None:
            self.tel.record_server(
                now, "server_recover", sid,
                self.pool_names[self.s_pool[sid]],
            )
        if self.s_down_since[sid] is not None:
            self.s_down_s[sid] += now - self.s_down_since[sid]
            self.s_down_since[sid] = None
        self._mark_maybe_free(sid)
        self._dispatch(self.pools[self.s_pool[sid]], now)

    def _on_timeout(self, now: float, payload) -> None:
        eid, pidx, stamp = payload
        if self.e_stamp[eid] != stamp:
            return  # dispatched, cancelled or queued again since
        self._unqueue(eid)
        self._retry_or_fail(now, eid, reason=_R_TIMEOUT, pool=pidx)

    def _on_activate(self, now: float, sid: int) -> None:
        self.s_active[sid] = 1
        self.s_activated_at[sid] = now
        pool = self.pools[self.s_pool[sid]]
        if self.tel is not None:
            self.tel.record_scale(
                now, "server_activate", pool.spec.name, sid
            )
        pool.pending_activations -= 1
        pool.active_count += 1
        if pool.active_count > pool.peak_servers:
            pool.peak_servers = pool.active_count
        self._mark_maybe_free(sid)
        self._dispatch(pool, now)

    def _on_tick(self, now: float, _payload: None) -> None:
        config = self.autoscaler
        for pool in self.pools:
            if now - pool.last_scale_at < config.cooldown_s:
                continue
            backlog = pool.queued / max(1, pool.active_count)
            scalable = pool.active_count + pool.pending_activations
            if (
                backlog >= config.scale_up_backlog
                and scalable < pool.nserv
            ):
                standby = next(
                    sid for sid in range(
                        pool.sid0, pool.sid0 + pool.nserv
                    )
                    if not self.s_active[sid]
                )
                pool.pending_activations += 1
                pool.last_scale_at = now
                if self.tel is not None:
                    self.tel.record_scale(
                        now, "scale_up", pool.spec.name, standby
                    )
                self._push(now + config.startup_s, _ACTIVATE, standby)
            elif (
                backlog <= config.scale_down_backlog
                and pool.active_count > pool.spec.min_servers
            ):
                idle = next(
                    (
                        sid for sid in range(
                            pool.sid0 + pool.nserv - 1,
                            pool.sid0 - 1, -1,
                        )
                        if self._sid_free(sid)
                    ),
                    None,
                )
                if idle is not None:
                    self.s_active[idle] = 0
                    pool.active_count -= 1
                    if self.tel is not None:
                        self.tel.record_scale(
                            now, "scale_down", pool.spec.name, idle
                        )
                    if self.s_activated_at[idle] is not None:
                        self.s_active_s[idle] += (
                            now - self.s_activated_at[idle]
                        )
                        self.s_activated_at[idle] = None
                    pool.last_scale_at = now
        pending = (
            any(pool.queued for pool in self.pools)
            or any(pool.busy_count for pool in self.pools)
            or any(pool.pending_activations for pool in self.pools)
            or now < self.last_arrival
        )
        if pending:
            self._push(now + config.check_interval_s, _TICK, None)

    def _on_cordon(self, now: float, sid: int) -> None:
        if not self.s_active[sid]:
            return  # already cordoned / never promoted
        self.s_active[sid] = 0
        pool = self.pools[self.s_pool[sid]]
        pool.active_count -= 1
        if self.tel is not None:
            self.tel.record_server(
                now, "server_cordon", sid, pool.spec.name
            )
        if self.s_activated_at[sid] is not None:
            self.s_active_s[sid] += now - self.s_activated_at[sid]
            self.s_activated_at[sid] = None

    def _on_uncordon(self, now: float, sid: int) -> None:
        if self.s_active[sid]:
            return  # promotion raced an autoscaler activate
        self.s_active[sid] = 1
        self.s_activated_at[sid] = now
        pool = self.pools[self.s_pool[sid]]
        pool.active_count += 1
        if self.tel is not None:
            self.tel.record_server(
                now, "server_uncordon", sid, pool.spec.name
            )
        if pool.active_count > pool.peak_servers:
            pool.peak_servers = pool.active_count
        self._mark_maybe_free(sid)
        self._dispatch(pool, now)

    def _on_marker(self, now: float, marker) -> None:
        # Observational only — state is never read or written here.
        if self.tel is not None:
            self.tel.record_domain(
                now, marker.kind, marker.domain, marker.event
            )

    def _on_hedge(self, now: float, eid: int) -> None:
        if (
            self.e_done[eid] or self.e_cancelled[eid]
            or self.e_twin[eid] != -1
        ):
            return
        # The copy is a new entry, appended after the first attempts.
        copy = len(self.e_req)
        self.e_req.append(self.e_req[eid])
        self.e_attempts.append(self.e_attempts[eid])
        self.e_queued_since.append(now)
        self.e_stamp.append(0)
        self.e_pool.append(-1)
        self.e_twin.append(eid)
        self.e_is_hedge.append(1)
        self.e_cancelled.append(0)
        self.e_done.append(0)
        self.e_twin[eid] = copy
        self.hedges_launched += 1
        # The hedge goes to a different pool when one is eligible (the
        # first attempt was routed, so one is).
        eligible = self.route_pools[self.r_model[self.e_req[eid]]]
        home = self.e_pool[eid]
        self._enqueue(
            now, copy,
            [other for other in eligible if other.index != home]
            or eligible,
        )

    def _on_probe(self, now: float, sid: int) -> None:
        # A probe is pushed only as its breaker opens, at the end of
        # the cooldown, and an open breaker does not trip again.
        if self.b_state[sid] != 1:
            return
        self.b_state[sid] = 2
        self.b_probe[sid] = 0
        self.b_open_s[sid] += now - self.b_opened_at[sid]
        if self.tel is not None:
            self.tel.record_breaker(
                now, sid, self.pool_names[self.s_pool[sid]],
                "half_open",
            )
        self._mark_maybe_free(sid)
        self._dispatch(self.pools[self.s_pool[sid]], now)

    def _on_brownout(self, now: float, _payload: None) -> None:
        config = self.res.brownout
        for pool in self.pools:
            backlog = pool.queued / max(1, pool.active_count)
            if now - pool.last_rung_change < config.dwell_s:
                continue
            if (
                backlog >= config.step_down_backlog
                and pool.rung < len(config.rungs)
            ):
                pool.rung += 1
                pool.last_rung_change = now
                self.rung_changes += 1
                if self.tel is not None:
                    self.tel.record_rung(
                        now, pool.spec.name, pool.rung, +1
                    )
            elif backlog <= config.step_up_backlog and pool.rung > 0:
                pool.rung -= 1
                pool.last_rung_change = now
                self.rung_changes += 1
                if self.tel is not None:
                    self.tel.record_rung(
                        now, pool.spec.name, pool.rung, -1
                    )
        pending = (
            any(pool.queued for pool in self.pools)
            or any(pool.busy_count for pool in self.pools)
            or any(pool.rung > 0 for pool in self.pools)
            or now < self.last_arrival
        )
        if pending:
            self._push(now + config.check_interval_s, _BROWNOUT, None)

    # -- mechanics -----------------------------------------------------

    def _enqueue(
        self, now: float, eid: int,
        hedge_pools: list[_ColPool] | None = None,
    ) -> None:
        """Route entry ``eid``, admit it, queue it and dispatch its pool.

        The entry joins the first eligible pool with the lowest load
        (queued plus busy entries per active server).  A hedge copy
        being launched passes its candidate ``hedge_pools`` and skips
        admission control.
        """
        mid = self.r_model[self.e_req[eid]]
        admission = self.admission
        if hedge_pools is None:
            pools = self.route_pools[mid]
            if (
                admission is not None
                and admission.rate_per_s is not None
                and self.e_attempts[eid] == 1
                and not self._bucket_admits(now)
            ):
                self._shed(now, eid, reason=_R_SHED_RATE, pool=-1)
                return
        else:
            pools = hedge_pools
            admission = None
        if len(pools) == 1:
            pool = pools[0]
        else:
            pool = None
            for other in pools:
                load = _load(other)
                if pool is None or load < least:
                    pool = other
                    least = load
        if pool is None:
            self.e_done[eid] = 1
            self.f_req.append(self.e_req[eid])
            self.f_pool.append(-1)
            self.f_attempts.append(self.e_attempts[eid])
            self.f_reason.append(_R_UNROUTABLE)
            self.f_at.append(now)
            if self.tel is not None:
                self.tel.record_fail(
                    self.r_rid[self.e_req[eid]], now, "", "unroutable",
                    self.e_attempts[eid],
                )
            return
        if admission is not None:
            if (
                admission.max_queue_depth is not None
                and pool.queued >= admission.max_queue_depth
            ):
                self._shed(
                    now, eid, reason=_R_SHED_DEPTH, pool=pool.index
                )
                return
            budget = self.wait_budgets[mid]
            if budget is not None:
                rung = pool.rung
                if rung and mid not in pool.rung_fns[rung - 1]:
                    rung = 0
                nominal = self.latency_memo.get((pool.index, mid, rung, 1))
                if nominal is None:
                    nominal = self._price(pool, mid, rung, 1)
                if _load(pool) * nominal > budget:
                    self._shed(
                        now, eid, reason=_R_SHED_WAIT, pool=pool.index
                    )
                    return
        self.e_stamp[eid] = next(self.stamps)
        self.e_pool[eid] = pool.index
        pool.fifos[mid].append(eid)
        pool.queued += 1
        if self.tel is not None:
            rid = self.r_rid[self.e_req[eid]]
            if hedge_pools is not None:
                self.tel.record_hedge(rid, now, pool.spec.name)
            self.tel.record_admit(
                rid, now, pool.spec.name, self.e_attempts[eid],
                self.e_is_hedge[eid],
            )
        if self.timeout_s is not None:
            self._push(
                now + self.timeout_s, _TIMEOUT,
                (eid, pool.index, self.e_stamp[eid]),
            )
        if pool.free_heap:
            self._dispatch(pool, now)

    def _bucket_admits(self, now: float) -> bool:
        admission = self.admission
        self.bucket_tokens = min(
            admission.burst,
            self.bucket_tokens
            + (now - self.bucket_last) * admission.rate_per_s,
        )
        self.bucket_last = now
        if self.bucket_tokens < 1.0:
            return False
        self.bucket_tokens -= 1.0
        return True

    def _shed(
        self, now: float, eid: int, *, reason: int, pool: int
    ) -> None:
        if self._twin_alive(eid):
            self.e_cancelled[eid] = 1
            if self.tel is not None:
                self.tel.record_cancel(
                    self.r_rid[self.e_req[eid]], now
                )
            return
        self.e_done[eid] = 1
        self.sh_req.append(self.e_req[eid])
        self.sh_pool.append(pool)
        self.sh_attempts.append(self.e_attempts[eid])
        self.sh_reason.append(reason)
        self.sh_at.append(now)
        if self.tel is not None:
            self.tel.record_shed(
                self.r_rid[self.e_req[eid]], now,
                self.pool_names[pool] if pool >= 0 else "",
                REASON_LABELS[reason],
            )

    def _twin_alive(self, eid: int) -> bool:
        twin = self.e_twin[eid]
        return (
            twin != -1
            and not self.e_done[twin]
            and not self.e_cancelled[twin]
        )

    def _cancel(self, eid: int, now: float) -> None:
        self.e_cancelled[eid] = 1
        if self.e_stamp[eid]:
            self._unqueue(eid)
        if self.tel is not None:
            self.tel.record_cancel(self.r_rid[self.e_req[eid]], now)

    def _unqueue(self, eid: int) -> None:
        """Take queued entry ``eid`` out of its pool's FIFO."""
        pool = self.pools[self.e_pool[eid]]
        pool.fifos[self.r_model[self.e_req[eid]]].remove(eid)
        pool.queued -= 1
        self.e_stamp[eid] = 0

    def _hedge_delay(self, mid: int) -> float | None:
        config = self.res.hedge
        if config.delay_s is not None:
            return config.delay_s
        ordered = self.samples_sorted[mid]
        if len(ordered) < config.min_samples:
            return None
        index = max(
            0,
            min(
                len(ordered) - 1,
                round(config.quantile / 100.0 * len(ordered)) - 1,
            ),
        )
        return ordered[index]

    def _price(
        self, pool: _ColPool, mid: int, rung: int, size: int
    ) -> float:
        """Price a batch missing from ``latency_memo`` and memoize it."""
        fn = pool.rung_fns[rung - 1][mid] if rung > 0 else pool.spec_fns[mid]
        value = fn(size)
        # ``nan < 0`` is False: check finiteness explicitly.
        if not (math.isfinite(value) and value >= 0.0):
            raise ValueError(
                f"pool {pool.spec.name!r}, model {self.models[mid]!r}, "
                f"rung {rung}, batch size {size}: batch latency must be "
                f"finite and non-negative, got {value!r}"
            )
        self.latency_memo[pool.index, mid, rung, size] = value
        return value

    def _observe_batch(
        self, sid: int, now: float, duration: float
    ) -> None:
        config = self.res.breaker
        nominal = self.s_batch_nominal[sid]
        slow = (
            config.slow_factor is not None
            and nominal > 0.0
            and duration > config.slow_factor * nominal
        )
        if slow:
            self._breaker_failure(sid, now)
        elif self.b_state[sid] == 2:
            self.b_state[sid] = 0
            self.b_probe[sid] = 0
            self.b_failures[sid].clear()
            if self.tel is not None:
                self.tel.record_breaker(
                    now, sid, self.pool_names[self.s_pool[sid]],
                    "closed",
                )

    def _breaker_failure(self, sid: int, now: float) -> None:
        config = self.res.breaker
        cutoff = now - config.window_s
        failures = [
            at for at in self.b_failures[sid] if at > cutoff
        ]
        failures.append(now)
        self.b_failures[sid] = failures
        state = self.b_state[sid]
        tripped = state == 2 or (
            state == 0 and len(failures) >= config.failure_threshold
        )
        if tripped:
            self.b_state[sid] = 1
            self.b_opened_at[sid] = now
            self.b_opens[sid] += 1
            self.b_probe[sid] = 0
            if self.tel is not None:
                self.tel.record_breaker(
                    now, sid, self.pool_names[self.s_pool[sid]],
                    "open",
                )
            self._push(now + config.cooldown_s, _PROBE, sid)

    def _retry_or_fail(
        self, now: float, eid: int, *, reason: int, pool: int
    ) -> None:
        if self.e_cancelled[eid] or self.e_done[eid]:
            return
        attempts = self.e_attempts[eid]
        if attempts >= self.retry.max_attempts:
            if self._twin_alive(eid):
                self.e_cancelled[eid] = 1
                if self.tel is not None:
                    self.tel.record_cancel(
                        self.r_rid[self.e_req[eid]], now
                    )
                return
            self.e_done[eid] = 1
            self.f_req.append(self.e_req[eid])
            self.f_pool.append(pool)
            self.f_attempts.append(attempts)
            self.f_reason.append(reason)
            self.f_at.append(now)
            if self.tel is not None:
                self.tel.record_fail(
                    self.r_rid[self.e_req[eid]], now,
                    self.pool_names[pool] if pool >= 0 else "",
                    REASON_LABELS[reason], attempts,
                )
            return
        backoff = self.retry.backoff_for(
            attempts, self.r_rid[self.e_req[eid]]
        )
        self.e_attempts[eid] = attempts + 1
        if self.tel is not None:
            self.tel.record_retry(
                self.r_rid[self.e_req[eid]], now,
                REASON_LABELS[reason], backoff, attempts + 1,
            )
        self._push(now + backoff, _RETRY, eid)

    def _dispatch(self, pool: _ColPool, now: float) -> None:
        """Launch batches on the pool's free servers while it queues.

        The pool's policy (:data:`repro.serving.fleet.SCHEDULING_POLICIES`)
        picks a model; the batch is the first ``max_batch`` entries of
        that model's FIFO, one per request: a hedge copy queued behind
        its twin keeps its place.
        """
        free_heap = pool.free_heap
        fifos = pool.fifos
        e_stamp = self.e_stamp
        e_req = self.e_req
        while pool.queued:
            while free_heap:  # pop until one passes ``_sid_free``'s test
                sid = heappop(free_heap)
                state = self.b_state[sid]
                if (
                    self.s_alive[sid] and self.s_active[sid]
                    and self.s_batch[sid] is None
                    and (state == 0 or (state == 2 and not self.b_probe[sid]))
                ):
                    break
            else:
                return
            last = self.s_last_model[sid]
            mode = pool.policy_mode
            if mode == 2 and last != -1 and fifos[last]:
                mid = last
            elif mode == 1:
                # The shortest service time, ties to the oldest entry.
                r_service = self.r_service
                queued_since = self.e_queued_since
                best = None
                for fifo in fifos:
                    for eid in fifo:
                        key = (
                            r_service[e_req[eid]], queued_since[eid],
                            e_stamp[eid],
                        )
                        if best is None or key < best:
                            best = key
                            head = eid
                mid = self.r_model[e_req[head]]
            else:
                # The oldest queued entry's model: the lowest stamp.
                head = -1
                for fifo in fifos:
                    if fifo and (
                        head == -1 or e_stamp[fifo[0]] < e_stamp[head]
                    ):
                        head = fifo[0]
                mid = self.r_model[e_req[head]]
            fifo = fifos[mid]
            eid = fifo.popleft()
            e_stamp[eid] = 0
            batch = [eid]
            if fifo:
                skipped = []
                while fifo and len(batch) < pool.max_batch:
                    eid = fifo.popleft()
                    if self.e_twin[eid] in batch:
                        skipped.append(eid)
                        continue
                    batch.append(eid)
                    e_stamp[eid] = 0
                if skipped:
                    fifo.extendleft(reversed(skipped))
            size = len(batch)
            pool.queued -= size
            rung = pool.rung
            if rung and mid not in pool.rung_fns[rung - 1]:
                rung = 0
            nominal = self.latency_memo.get((pool.index, mid, rung, size))
            if nominal is None:
                nominal = self._price(pool, mid, rung, size)
            latency = nominal
            if self.has_stragglers:
                for at, until, slowdown in self.straggler_by_sid.get(sid, ()):
                    if at <= now < until:
                        latency = nominal * slowdown
                        break
            if last != mid and last != -1:
                latency += pool.spec.swap_cost_s
                nominal += pool.spec.swap_cost_s
                self.s_swaps[sid] += 1
            self.s_batch[sid] = batch
            self.s_batch_start[sid] = now
            self.s_batch_model[sid] = mid
            self.s_batch_nominal[sid] = nominal
            self.s_batch_rung[sid] = rung
            if self.tel is not None:
                for eid in batch:
                    self.tel.record_dispatch(
                        self.r_rid[e_req[eid]], now, pool.spec.name, sid,
                        size, rung, self.e_is_hedge[eid],
                    )
            pool.busy_count += 1
            if state:  # half-open: this batch is its probe
                self.b_probe[sid] = 1
            self.seq += 1
            heappush(self.heap, (
                now + latency, self.seq, _FREE,
                (sid, self.s_generation[sid]),
            ))

    # -- report assembly ----------------------------------------------

    def _build_report(self, offered: int) -> FleetReport:
        candidates = [self.last_arrival]
        if self.c_finish:
            candidates.append(max(self.c_finish))
        if self.f_at:
            candidates.append(max(self.f_at))
        if self.sh_at:
            candidates.append(max(self.sh_at))
        makespan = max(candidates)
        if self.tel is not None:
            self.tel.finish(makespan)

        breaker_open_s = 0.0
        breaker_opens = 0
        if self.use_breaker:
            for sid in range(self.nserv_total):
                breaker_opens += self.b_opens[sid]
                breaker_open_s += self.b_open_s[sid]
                if self.b_state[sid] == 1:
                    breaker_open_s += max(
                        0.0, makespan - self.b_opened_at[sid]
                    )
        c_finish = np.asarray(self.c_finish, dtype=np.float64)
        c_order = np.argsort(c_finish, kind="stable")
        c_eid = np.asarray(self.c_eid, dtype=np.int64)[c_order]
        c_server = np.asarray(self.c_server, dtype=np.int64)[c_order]
        c_pool = np.asarray(self.s_pool, dtype=np.int64)[c_server]
        c_rung = np.asarray(self.c_rung, dtype=np.int64)[c_order]
        stats = ResilienceStats(
            shed=len(self.sh_req),
            hedges_launched=self.hedges_launched,
            hedge_wins=self.hedge_wins,
            hedge_wasted_s=self.hedge_wasted_s,
            breaker_opens=breaker_opens,
            breaker_open_s=breaker_open_s,
            rung_completions=tuple(np.bincount(
                c_rung, minlength=len(self.rung_quality)
            ).tolist()),
            rung_changes=self.rung_changes,
        )
        f_at = np.asarray(self.f_at, dtype=np.float64)
        f_order = np.argsort(f_at, kind="stable")
        sh_at = np.asarray(self.sh_at, dtype=np.float64)
        sh_order = np.argsort(sh_at, kind="stable")
        sh_pool = np.asarray(self.sh_pool, dtype=np.int64)

        npools = len(self.pools)
        comp_per_pool = np.bincount(c_pool, minlength=npools)
        shed_per_pool = np.bincount(
            sh_pool + 1, minlength=npools + 1
        )[1:]
        pool_stats = tuple(
            self._pool_stats(
                pool, makespan,
                int(comp_per_pool[pool.index]),
                int(shed_per_pool[pool.index]),
            )
            for pool in self.pools
        )
        rung_quality = np.asarray(self.rung_quality, dtype=np.float64)
        return FleetReport(
            models=self.models,
            pool_names=self.pool_names,
            req_arrival_s=self.batch.arrival_s,
            req_service_s=self.batch.service_s,
            req_model_ids=self.batch.model_ids,
            req_request_ids=self.batch.request_ids,
            comp_req=np.asarray(self.e_req, dtype=np.int64)[c_eid],
            comp_pool=c_pool,
            comp_server=c_server,
            comp_queued_since_s=np.asarray(
                self.e_queued_since, dtype=np.float64
            )[c_eid],
            comp_start_s=np.asarray(
                self.c_start, dtype=np.float64
            )[c_order],
            comp_finish_s=c_finish[c_order],
            comp_attempts=np.asarray(
                self.e_attempts, dtype=np.int64
            )[c_eid],
            comp_hedged=np.asarray(self.e_twin, dtype=np.int64)[c_eid] != -1,
            comp_rung=c_rung,
            comp_quality=rung_quality[c_rung],
            fail_req=np.asarray(self.f_req, dtype=np.int64)[f_order],
            fail_pool=np.asarray(self.f_pool, dtype=np.int64)[f_order],
            fail_attempts=np.asarray(
                self.f_attempts, dtype=np.int64
            )[f_order],
            fail_reason=np.asarray(
                self.f_reason, dtype=np.int64
            )[f_order],
            fail_at_s=f_at[f_order],
            shed_req=np.asarray(self.sh_req, dtype=np.int64)[sh_order],
            shed_pool=sh_pool[sh_order],
            shed_attempts=np.asarray(
                self.sh_attempts, dtype=np.int64
            )[sh_order],
            shed_reason=np.asarray(
                self.sh_reason, dtype=np.int64
            )[sh_order],
            shed_at_s=sh_at[sh_order],
            pools=pool_stats,
            makespan_s=makespan,
            offered=offered,
            resilience=stats,
        )

    def _pool_stats(
        self, pool: _ColPool, makespan: float, completed: int, shed: int
    ) -> PoolStats:
        sids = range(pool.sid0, pool.sid0 + pool.nserv)
        busy = ordered_sum(self.s_busy_s[sid] for sid in sids)
        wasted = ordered_sum(self.s_wasted_s[sid] for sid in sids)
        swaps = sum(self.s_swaps[sid] for sid in sids)
        down = 0.0
        capacity = 0.0
        for sid in sids:
            server_down = self.s_down_s[sid]
            if self.s_down_since[sid] is not None:
                server_down += max(
                    0.0, makespan - self.s_down_since[sid]
                )
            down += server_down
            active = self.s_active_s[sid]
            if self.s_activated_at[sid] is not None:
                active += max(0.0, makespan - self.s_activated_at[sid])
            capacity += max(0.0, active - server_down)
        return PoolStats(
            name=pool.spec.name,
            machine=pool.spec.machine,
            servers=pool.spec.servers,
            peak_servers=pool.peak_servers,
            completed=completed,
            busy_s=busy,
            wasted_s=wasted,
            down_s=down,
            capacity_s=capacity,
            swaps=swaps,
            shed=shed,
        )
