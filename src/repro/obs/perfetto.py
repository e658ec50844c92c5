"""Render a fleet telemetry log as a Perfetto/Chrome trace.

Extends the single-GPU op-trace export
(:mod:`repro.profiler.trace_export`) to fleet scale, through the same
writer (:mod:`repro.chrome_trace`): each **pool**
becomes a process, each **server** a thread lane inside it, each
dispatched request copy a complete (``"X"``) slice from its dispatch
to the event that ended the attempt (completion, crash retry, or
hedge cancellation).  Fleet control-plane events (breaker trips, rung
changes, autoscaler actions, crashes) appear as instant events on the
server or pool they touched, and per-pool gauge series become counter
tracks — so queue buildup, breaker flapping and tail latency line up
on one zoomable timeline.

Open the output at https://ui.perfetto.dev (or chrome://tracing).
Timestamps are microseconds of simulated time.
"""

from __future__ import annotations

from repro.chrome_trace import (
    chrome_trace,
    complete,
    counter,
    instant,
    process_name,
    thread_name,
)
from repro.obs.telemetry import TelemetryLog

_SLICE_END_STATES = frozenset(("complete", "retry", "fail", "cancel"))

_COUNTER_GAUGES = ("queue_depth", "busy_servers", "breaker_open")


def telemetry_to_chrome_trace(log: TelemetryLog) -> dict:
    """Serialize a telemetry log as Chrome-trace JSON.

    Lanes: ``pid`` = pool index (process named after the pool),
    ``tid`` = fleet-wide server id (thread named ``server <id>``).
    Request slices carry the request id, batch size, rung, attempt
    flavor and hedge flag in ``args``; an attempt with no recorded
    end (a copy still in flight at makespan) closes at the makespan.
    Slices are read from the span table's rows; no span is built.
    """
    pool_index = {name: idx for idx, name in enumerate(log.pools)}
    events = [
        process_name(idx, f"pool {name}")
        for idx, name in enumerate(log.pools)
    ]
    events += [
        thread_name(pidx, sid, f"server {sid}")
        for sid, pidx in enumerate(log.server_pools)
    ]
    table = log.span_table
    for rid, model, rows in zip(table.request_ids, table.models, table.rows):
        for index, row in enumerate(rows):
            if row[0] != "dispatch":
                continue
            _, ts, pool, server, batch, rung, hedge = row
            end, outcome = log.makespan_s, "open"
            for later in rows[index + 1:]:
                if later[0] in _SLICE_END_STATES:
                    end, outcome = later[1], later[0]
                    break
            events.append(complete(
                model, "request", pool_index[pool], server, ts, end - ts,
                {"request": rid, "batch": batch, "rung": rung,
                 "hedge": hedge, "outcome": outcome},
            ))
    for event in log.events:
        # Server events sit on their thread lane, the rest on the pool.
        scope = "t" if event.kind.startswith(("breaker", "server")) else "p"
        attrs = event.attrs
        events.append(instant(
            event.kind, "fleet", scope,
            pool_index.get(attrs.get("pool", ""), 0),
            int(attrs.get("server", 0)), event.ts_s, dict(attrs),
        ))
    for series in log.series:
        if series.kind != "gauge":
            continue
        _, pool, gauge = series.name.split(".", 2)
        if gauge in _COUNTER_GAUGES:
            events += [
                counter(gauge, "metrics", pool_index[pool], ts, value)
                for ts, value in zip(series.times, series.values)
            ]
    return chrome_trace(events)
