"""The span builder and telemetry writer the span table must equal.

``materialize`` expands one compact ``(state, ts, *raw)`` row into a
:class:`SpanEvent` with a hand-written branch per state, and
``reference_dumps`` writes a telemetry log with one
``repro.jsonl.canonical`` dict per span — the span path as it was
before spans were stored as a :class:`~repro.obs.spans.SpanTable`.
``log.spans`` must equal :func:`reference_spans` and
``dumps_telemetry(log)`` must equal :func:`reference_dumps` byte for
byte.  :func:`validate_span` checks one span against the
well-formedness contract of :mod:`repro.obs.spans`.
"""

from __future__ import annotations

from itertools import chain

from repro import jsonl
from repro.obs import (
    TELEMETRY_SCHEMA,
    TELEMETRY_VERSION,
    RequestSpan,
    SpanEvent,
    TelemetryLog,
)
from repro.obs.spans import SPAN_STATES, TERMINAL_STATES


def materialize(raw: tuple) -> SpanEvent:
    """Expand one compact ``(state, ts, *raw)`` tuple to a SpanEvent."""
    state = raw[0]
    ts = raw[1]
    if state == "admit":
        _, _, pool, attempt, hedge = raw
        attrs = {
            "pool": pool, "attempt": int(attempt),
            "hedge": 1 if hedge else 0,
        }
    elif state == "dispatch":
        _, _, pool, server, batch, rung, hedge = raw
        attrs = {
            "pool": pool, "server": int(server),
            "batch": int(batch), "rung": int(rung),
            "hedge": 1 if hedge else 0,
        }
    elif state == "complete":
        _, _, pool, server, attempts, rung, hedged, win = raw
        attrs = {
            "pool": pool, "server": int(server),
            "attempts": int(attempts), "rung": int(rung),
            "hedged": 1 if hedged else 0,
            "hedge_win": 1 if win else 0,
        }
    elif state == "retry":
        _, _, reason, backoff_s, attempt = raw
        attrs = {
            "reason": reason, "backoff_s": float(backoff_s),
            "attempt": int(attempt),
        }
    elif state == "fail":
        _, _, pool, reason, attempts = raw
        attrs = {
            "pool": pool, "reason": reason,
            "attempts": int(attempts),
        }
    elif state == "shed":
        _, _, pool, reason = raw
        attrs = {"pool": pool, "reason": reason}
    elif state == "hedge":
        attrs = {"pool": raw[2]}
    else:  # submit / cancel carry no attributes
        attrs = {}
    return SpanEvent(ts, state, attrs)


def reference_spans(log: TelemetryLog) -> tuple[RequestSpan, ...]:
    """The log's spans, each row expanded by :func:`materialize`."""
    table = log.span_table
    return tuple(
        RequestSpan(
            request_id=rid, model=model,
            events=tuple(materialize(row) for row in rows),
        )
        for rid, model, rows in zip(
            table.request_ids, table.models, table.rows
        )
    )


def reference_dumps(
    log: TelemetryLog, spans: tuple[RequestSpan, ...]
) -> str:
    """The log as canonical JSONL, one canonical dict per record."""
    header = {
        "schema": TELEMETRY_SCHEMA,
        "version": TELEMETRY_VERSION,
        "sample_interval_s": log.sample_interval_s,
        "makespan_s": log.makespan_s,
        "pools": list(log.pools),
        "server_pools": list(log.server_pools),
        "num_spans": len(spans),
        "num_events": len(log.events),
        "num_series": len(log.series),
        "num_histograms": len(log.histograms),
        "meta": dict(log.meta),
    }
    return jsonl.dumps(header, chain(
        ({
            "kind": "span",
            "request": span.request_id,
            "model": span.model,
            "events": [
                [event.ts_s, event.state, dict(event.attrs)]
                for event in span.events
            ],
        } for span in spans),
        ({
            "kind": "event",
            "ts_s": event.ts_s,
            "event": event.kind,
            "attrs": dict(event.attrs),
        } for event in log.events),
        ({
            "kind": "series",
            "name": series.name,
            "metric": series.kind,
            "times": list(series.times),
            "values": list(series.values),
        } for series in log.series),
        ({
            "kind": "histogram",
            "name": histogram.name,
            "edges": list(histogram.edges),
            "times": list(histogram.times),
            "counts": [list(row) for row in histogram.counts],
        } for histogram in log.histograms),
    ))


def validate_span(span: RequestSpan) -> list[str]:
    """Check span well-formedness; returns human-readable violations.

    An empty list means the span satisfies the contract documented in
    the :mod:`repro.obs.spans` docstring.  This is the reference
    implementation the property suite asserts against and
    ``tools/check_jsonl.py`` mirrors line-by-line.
    """
    errors: list[str] = []
    if not span.events:
        return [f"span {span.request_id}: no events"]
    if span.events[0].state != "submit":
        errors.append(
            f"span {span.request_id}: first event is "
            f"{span.events[0].state!r}, not 'submit'"
        )
    terminal_at: float | None = None
    terminal_count = 0
    last_ts = span.events[0].ts_s
    for event in span.events:
        if event.state not in SPAN_STATES:
            errors.append(
                f"span {span.request_id}: unknown state "
                f"{event.state!r}"
            )
        if event.ts_s < last_ts:
            errors.append(
                f"span {span.request_id}: timestamp {event.ts_s} "
                f"goes backwards (previous {last_ts})"
            )
        last_ts = event.ts_s
        if terminal_at is not None and event.state != "cancel":
            errors.append(
                f"span {span.request_id}: {event.state!r} event "
                f"after terminal state"
            )
        if event.state in TERMINAL_STATES:
            terminal_count += 1
            terminal_at = event.ts_s
    if terminal_count != 1:
        errors.append(
            f"span {span.request_id}: {terminal_count} terminal "
            f"events (want exactly 1)"
        )
    return errors
