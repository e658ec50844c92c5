"""The telemetry collector the fleet engine emits into.

Pass a fresh :class:`Telemetry` to ``simulate_fleet(...,
telemetry=...)``; after the run, :meth:`Telemetry.log` returns the
immutable :class:`TelemetryLog` (spans, fleet events, metric series,
histograms).  The collector is **purely observational**:

* it never pushes events onto the simulation heap (heap sequence
  numbers are tie-breakers — a single extra push would reorder
  simultaneous events and change outcomes), sampling instead lazily
  at metric boundaries the event clock passes;
* it only ever *reads* engine state, through a sampler closure the
  engine binds at start;
* record methods append one compact row per span event (the
  :class:`~repro.obs.spans.SpanTable` layout) and normalize times to
  plain floats and flags to 0/1, so the engine's ``bool``/``bytearray``
  or NumPy-flavored values serialize to the same bytes the recorded
  fleet corpus pins (ids, counts and rungs arrive as plain ints from
  the engine's lists).

Both properties are pinned: a hypothesis suite asserts telemetry-on
vs telemetry-off runs produce equal reports, and a subprocess test
asserts telemetry bytes are deterministic across fresh interpreters.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property
from typing import Callable, Iterable, Mapping, Sequence

from repro.obs.metrics import (
    HistogramSeries,
    MetricSeries,
    bucket_index,
)
from repro.obs.spans import RequestSpan, SpanTable
from repro.serving.faults import _require_finite

DEFAULT_SAMPLE_INTERVAL_S = 5.0
"""Default simulated seconds between metric samples."""

DEFAULT_HISTOGRAM_EDGES_S = (
    0.5, 1.0, 2.0, 4.0, 8.0, 16.0, 32.0, 64.0, 128.0,
)
"""Default latency-histogram bucket upper bounds (seconds)."""

POOL_GAUGES = (
    "queue_depth", "busy_servers", "active_servers", "rung",
    "breaker_open",
)
"""Per-pool gauge fields, in sampler tuple order.

Each becomes a series named ``pool.<pool>.<field>``: queued requests,
servers running a batch, servers taking traffic, current brownout
rung, and servers with an open breaker.
"""

FLEET_COUNTERS = (
    "completed", "failed", "shed", "retries", "hedges_launched",
    "breaker_opens", "rung_changes",
)
"""Cumulative fleet-wide counters, each a ``fleet.<name>`` series."""

FLEET_EVENT_KINDS = (
    "breaker_open", "breaker_half_open", "breaker_close",
    "rung_change", "scale_up", "scale_down", "server_activate",
    "server_crash", "server_recover", "server_cordon",
    "server_uncordon", "domain_down", "domain_detected", "domain_up",
)
"""Every kind a :class:`FleetEvent` may carry.

``server_cordon``/``server_uncordon`` are recovery-orchestration
control actions (:mod:`repro.serving.domains`); the ``domain_*`` kinds
are failure-domain transitions emitted from
:class:`~repro.serving.faults.DomainMarker` plan entries.
"""

LATENCY_HISTOGRAM = "fleet.latency_s"
"""Name of the windowed completion-latency histogram."""

MAX_GRID_STEPS = 1_000_000
"""Most metric samples per run, and most steps ``evaluate_alerts`` walks."""


@dataclass(frozen=True)
class FleetEvent:
    """One fleet-level control-plane event (not tied to a request).

    ``kind`` is one of :data:`FLEET_EVENT_KINDS`; ``attrs`` names the
    server/pool/rung involved.  Events appear in simulation
    processing order (timestamps are monotone non-decreasing).
    """

    ts_s: float
    kind: str
    attrs: Mapping[str, object]


@dataclass(frozen=True)
class TelemetryLog:
    """Everything one instrumented fleet run recorded.

    ``pools`` are pool names in declaration order; ``server_pools``
    maps each fleet-wide server id to its pool index.  Spans are held
    as one :class:`~repro.obs.spans.SpanTable` (compact rows sorted by
    request id); :attr:`spans` builds the span objects on first read.
    ``events`` are in processing order, ``series`` sorted by name.
    ``==`` compares the table, not built spans.  The log is a pure
    value: exporters (:mod:`repro.obs.export`,
    :mod:`repro.obs.perfetto`) and alert evaluation
    (:mod:`repro.obs.alerts`) consume it without touching the engine.
    """

    pools: tuple[str, ...]
    server_pools: tuple[int, ...]
    sample_interval_s: float
    makespan_s: float
    span_table: SpanTable
    events: tuple[FleetEvent, ...]
    series: tuple[MetricSeries, ...]
    histograms: tuple[HistogramSeries, ...]
    meta: Mapping[str, object] = field(default_factory=dict)

    @classmethod
    def from_spans(
        cls, spans: Iterable[RequestSpan], **fields: object
    ) -> TelemetryLog:
        """A log from built spans plus every other field by keyword.

        :meth:`~repro.obs.spans.SpanTable.from_spans` validates the
        spans and sorts them into the table: attributes must follow
        :data:`~repro.obs.spans.SPAN_SCHEMA` and every ``ts_s`` and
        ``backoff_s`` must be finite.
        """
        return cls(span_table=SpanTable.from_spans(spans), **fields)

    @cached_property
    def spans(self) -> tuple[RequestSpan, ...]:
        """Every request span, sorted by request id (built on first read)."""
        return self.span_table.spans()

    def span(self, request_id: int) -> RequestSpan:
        """The span for one request id (error names the valid range)."""
        return self.span_table.span(request_id)

    def series_named(self, name: str) -> MetricSeries:
        """One metric series by name; the error lists what exists."""
        for series in self.series:
            if series.name == name:
                return series
        known = ", ".join(series.name for series in self.series)
        raise ValueError(
            f"unknown series {name!r}; known series: {known}"
        )

    def histogram_named(self, name: str) -> HistogramSeries:
        """One histogram by name; the error lists what exists."""
        for histogram in self.histograms:
            if histogram.name == name:
                return histogram
        known = ", ".join(h.name for h in self.histograms)
        raise ValueError(
            f"unknown histogram {name!r}; known: {known}"
        )

    def counter_final(self, name: str) -> float:
        """Final value of a ``fleet.<name>`` counter."""
        return self.series_named(f"fleet.{name}").final

    def events_named(self, kind: str) -> tuple[FleetEvent, ...]:
        """Every fleet event of one kind, in processing order."""
        return tuple(
            event for event in self.events if event.kind == kind
        )

    def breaker_open_intervals(
        self,
    ) -> dict[int, tuple[tuple[float, float], ...]]:
        """Per-server ``(open, close)`` breaker intervals.

        An interval opens at a ``breaker_open`` event and closes at
        the matching ``breaker_half_open`` transition (the server
        takes no traffic while fully open); a breaker still open at
        the end of the run closes at the makespan.
        """
        opened: dict[int, float] = {}
        intervals: dict[int, list[tuple[float, float]]] = {}
        for event in self.events:
            if event.kind == "breaker_open":
                opened[int(event.attrs["server"])] = event.ts_s
            elif event.kind == "breaker_half_open":
                server = int(event.attrs["server"])
                start = opened.pop(server, None)
                if start is not None:
                    intervals.setdefault(server, []).append(
                        (start, event.ts_s)
                    )
        for server, start in sorted(opened.items()):
            intervals.setdefault(server, []).append(
                (start, self.makespan_s)
            )
        return {
            server: tuple(spans)
            for server, spans in sorted(intervals.items())
        }


class Telemetry:
    """Mutable per-run collector; one simulation per instance.

    Construct with the sampling interval and histogram edges, pass to
    ``simulate_fleet(..., telemetry=...)``, then read :meth:`log`.
    The engine-facing half (:meth:`begin` / :meth:`advance` /
    ``record_*`` / :meth:`finish`) is called by the fleet engine
    only; user code never needs it.
    """

    def __init__(
        self,
        *,
        sample_interval_s: float = DEFAULT_SAMPLE_INTERVAL_S,
        histogram_edges_s: Sequence[float] = DEFAULT_HISTOGRAM_EDGES_S,
        meta: Mapping[str, object] | None = None,
    ):
        _require_finite(
            "sample_interval_s", sample_interval_s,
            sample_interval_s > 0, "positive",
        )
        edges = tuple(float(edge) for edge in histogram_edges_s)
        for index, edge in enumerate(edges):
            _require_finite(f"histogram_edges_s[{index}]", edge)
        if list(edges) != sorted(edges) or not edges:
            raise ValueError("histogram edges must be ascending")
        self.sample_interval_s = sample_interval_s
        self.histogram_edges_s = edges
        self.meta = dict(meta) if meta is not None else {}
        self._began = False
        self._finished = False
        self._makespan = 0.0
        self._pools: tuple[str, ...] = ()
        self._server_pools: tuple[int, ...] = ()
        self._sampler: Callable[[], list[tuple]] | None = None
        self._next_k = 0
        self._next_t = 0.0
        self._sample_times: list[float] = []
        self._gauge_rows: list[list[tuple]] = []
        self._counter_rows: list[tuple[int, ...]] = []
        self._counters = dict.fromkeys(FLEET_COUNTERS, 0)
        self._window = [0] * (len(edges) + 1)
        self._hist_rows: list[tuple[int, ...]] = []
        self._span_model: dict[int, str] = {}
        # Hot path: one SpanTable row per span event, grouped per
        # request; no span objects or attribute dicts are built.
        self._span_rows: dict[int, list[tuple]] = {}
        self._events: list[FleetEvent] = []

    # -- engine-facing lifecycle --------------------------------------

    def begin(
        self,
        pools: Sequence[str],
        server_pools: Sequence[int],
        sampler: Callable[[], list[tuple]],
    ) -> None:
        """Bind one simulation's pools and state sampler (engine API).

        ``sampler`` returns one tuple per pool, ordered as
        :data:`POOL_GAUGES`.  A collector is single-use: binding a
        second simulation raises instead of silently merging runs.
        """
        if self._began:
            raise RuntimeError(
                "this Telemetry already recorded a simulation; "
                "construct a fresh collector per run"
            )
        self._began = True
        self._pools = tuple(pools)
        self._server_pools = tuple(int(p) for p in server_pools)
        self._sampler = sampler

    def advance(self, now: float) -> None:
        """Emit samples for every boundary strictly before ``now``.

        Engines call this before handling each event; simulation
        state is piecewise-constant between events, so the sample at
        boundary ``t < now`` reflects the state after every event at
        or before ``t``.  Raises a ``ValueError`` rather than take
        more than :data:`MAX_GRID_STEPS` samples.
        """
        while self._next_t < now:
            if now > MAX_GRID_STEPS * self.sample_interval_s:
                raise ValueError(
                    f"sample_interval_s={self.sample_interval_s!r} needs "
                    f"{now / self.sample_interval_s:.3g} samples to reach "
                    f"t={now!r} s; at most {MAX_GRID_STEPS:,} are allowed"
                )
            self._emit(self._next_t)

    def finish(self, makespan_s: float) -> None:
        """Emit trailing samples and seal the run (engine API).

        The makespan (the last terminal event) can precede the last
        *simulation* event — drain-phase probes and scale checks run
        after it, and :meth:`advance` may have emitted boundaries past
        the makespan along the way.  Those rows are folded into one
        final sample taken exactly at the makespan, so a sealed log
        never samples beyond its own end.
        """
        self.advance(makespan_s)
        folded = [0] * len(self._window)
        while (
            self._sample_times
            and self._sample_times[-1] > makespan_s
        ):
            self._sample_times.pop()
            self._gauge_rows.pop()
            self._counter_rows.pop()
            for index, count in enumerate(self._hist_rows.pop()):
                folded[index] += count
        if (
            not self._sample_times
            or self._sample_times[-1] < makespan_s
        ):
            for index, count in enumerate(folded):
                self._window[index] += count
            self._emit(makespan_s)
        self._makespan = makespan_s
        self._finished = True
        self._sampler = None  # a bound method: it holds the engine state

    def _emit(self, t: float) -> None:
        self._sample_times.append(t)
        assert self._sampler is not None
        self._gauge_rows.append(self._sampler())
        counters = self._counters
        self._counter_rows.append(
            tuple(counters[name] for name in FLEET_COUNTERS)
        )
        self._hist_rows.append(tuple(self._window))
        for index in range(len(self._window)):
            self._window[index] = 0
        self._next_k += 1
        self._next_t = self._next_k * self.sample_interval_s

    # -- span records (engine API) ------------------------------------

    def record_submit(self, rid: int, model: str, now: float) -> None:
        """A request arrived."""
        rid = int(rid)
        self._span_model[rid] = model
        self._span_rows[rid] = [("submit", float(now))]

    def record_admit(
        self, rid: int, now: float, pool: str, attempt: int,
        hedge: object,
    ) -> None:
        """A copy of the request joined a pool queue."""
        self._span_rows[rid].append(
            ("admit", float(now), pool, attempt, 1 if hedge else 0)
        )

    def record_dispatch(
        self, rid: int, now: float, pool: str, server: int,
        batch: int, rung: int, hedge: object,
    ) -> None:
        """A copy launched in a batch on a server."""
        self._span_rows[rid].append(
            ("dispatch", float(now), pool, server, batch, rung,
             1 if hedge else 0)
        )

    def record_complete(
        self, rid: int, now: float, pool: str, server: int,
        attempts: int, rung: int, hedged: object, win: object,
    ) -> None:
        """The request finished successfully (terminal)."""
        rows = self._span_rows[rid]
        now = float(now)
        rows.append(
            ("complete", now, pool, server, attempts, rung,
             1 if hedged else 0, 1 if win else 0)
        )
        self._counters["completed"] += 1
        latency = now - rows[0][1]
        self._window[
            bucket_index(self.histogram_edges_s, latency)
        ] += 1

    def record_retry(
        self, rid: int, now: float, reason: str, backoff_s: float,
        attempt: int,
    ) -> None:
        """An attempt was abandoned; the next one is scheduled."""
        self._span_rows[rid].append(
            ("retry", float(now), reason, float(backoff_s), attempt)
        )
        self._counters["retries"] += 1

    def record_fail(
        self, rid: int, now: float, pool: str, reason: str,
        attempts: int,
    ) -> None:
        """The request exhausted its attempts (terminal)."""
        self._span_rows[rid].append(
            ("fail", float(now), pool, reason, attempts)
        )
        self._counters["failed"] += 1

    def record_shed(
        self, rid: int, now: float, pool: str, reason: str
    ) -> None:
        """Admission control rejected the request (terminal)."""
        self._span_rows[rid].append(("shed", float(now), pool, reason))
        self._counters["shed"] += 1

    def record_hedge(self, rid: int, now: float, pool: str) -> None:
        """A duplicate copy was launched onto ``pool``."""
        self._span_rows[rid].append(("hedge", float(now), pool))
        self._counters["hedges_launched"] += 1

    def record_cancel(self, rid: int, now: float) -> None:
        """One copy lost the hedge race (its twin settles the span)."""
        self._span_rows[rid].append(("cancel", float(now)))

    # -- fleet events (engine API) ------------------------------------

    def record_breaker(
        self, now: float, server: int, pool: str, state: str
    ) -> None:
        """A circuit breaker changed state (open/half_open/closed)."""
        kind = {
            "open": "breaker_open",
            "half_open": "breaker_half_open",
            "closed": "breaker_close",
        }[state]
        self._events.append(
            FleetEvent(now, kind, {
                "server": int(server), "pool": pool,
            })
        )
        if state == "open":
            self._counters["breaker_opens"] += 1

    def record_rung(
        self, now: float, pool: str, rung: int, direction: int
    ) -> None:
        """A pool stepped down (+1) or up (−1) its brownout ladder."""
        self._events.append(
            FleetEvent(now, "rung_change", {
                "pool": pool, "rung": int(rung),
                "direction": int(direction),
            })
        )
        self._counters["rung_changes"] += 1

    def record_scale(
        self, now: float, kind: str, pool: str, server: int
    ) -> None:
        """An autoscaler action (scale_up/scale_down/server_activate)."""
        self._events.append(
            FleetEvent(now, kind, {
                "pool": pool, "server": int(server),
            })
        )

    def record_server(
        self, now: float, kind: str, server: int, pool: str
    ) -> None:
        """A server transition (crash/recover/cordon/uncordon)."""
        self._events.append(
            FleetEvent(now, kind, {
                "server": int(server), "pool": pool,
            })
        )

    def record_domain(
        self, now: float, kind: str, domain: str, event: str
    ) -> None:
        """A failure-domain transition (domain_down/detected/up)."""
        self._events.append(
            FleetEvent(now, kind, {
                "domain": domain, "event": event,
            })
        )

    # -- output -------------------------------------------------------

    def log(self) -> TelemetryLog:
        """The immutable telemetry log of the finished run."""
        if not self._finished:
            raise RuntimeError(
                "telemetry is not finished; run the simulation "
                "(simulate_fleet(..., telemetry=this)) first"
            )
        span_rows = sorted(self._span_rows.items())
        span_table = SpanTable(
            [rid for rid, _ in span_rows],
            [self._span_model[rid] for rid, _ in span_rows],
            [rows for _, rows in span_rows],
        )
        series: list[MetricSeries] = []
        times = tuple(self._sample_times)
        for index, name in enumerate(FLEET_COUNTERS):
            series.append(MetricSeries(
                name=f"fleet.{name}",
                kind="counter",
                times=times,
                values=tuple(
                    float(row[index]) for row in self._counter_rows
                ),
            ))
        for pidx, pool in enumerate(self._pools):
            for gidx, gauge in enumerate(POOL_GAUGES):
                series.append(MetricSeries(
                    name=f"pool.{pool}.{gauge}",
                    kind="gauge",
                    times=times,
                    values=tuple(
                        float(row[pidx][gidx])
                        for row in self._gauge_rows
                    ),
                ))
        series.sort(key=lambda entry: entry.name)
        histogram = HistogramSeries(
            name=LATENCY_HISTOGRAM,
            edges=self.histogram_edges_s,
            times=times,
            counts=tuple(self._hist_rows),
        )
        return TelemetryLog(
            pools=self._pools,
            server_pools=self._server_pools,
            sample_interval_s=self.sample_interval_s,
            makespan_s=self._makespan,
            span_table=span_table,
            events=tuple(self._events),
            series=tuple(series),
            histograms=(histogram,),
            meta=dict(self.meta),
        )
