"""Versioned, byte-deterministic JSONL telemetry traces.

A telemetry file is written in the canonical-JSONL envelope shared by
every record format (:mod:`repro.jsonl`, ``docs/RECORDS.md``): one
canonical JSON record per line, a header on line 1, and
``dumps -> loads -> dumps`` a byte identity.  A telemetry file is
therefore diffable, hashable and CI-gateable — ``tools/check_jsonl.py``
validates the format independently of this serializer, so a serializer
bug cannot self-certify.

Record kinds, in file order:

* ``header`` — schema/version, sampling interval, makespan, pool
  names, server-to-pool map, record counts, free-form ``meta``.
* ``span`` — one per request, sorted by request id; events are
  ``[ts_s, state, attrs]`` triples, attributes as
  :data:`~repro.obs.spans.SPAN_SCHEMA` lists them.  The span table
  writes these lines itself (:meth:`~repro.obs.spans.SpanTable.json_lines`)
  and the loader parses them straight back into a table.
* ``event`` — fleet control-plane events in processing order.
* ``series`` — one per metric, sorted by name, with aligned
  ``times``/``values`` arrays.
* ``histogram`` — windowed histograms with bucket ``edges`` and one
  count row per sample window.
"""

from __future__ import annotations

from itertools import chain
from pathlib import Path

from repro import jsonl
from repro.obs.metrics import HistogramSeries, MetricSeries
from repro.obs.spans import SpanTable
from repro.obs.telemetry import FleetEvent, TelemetryLog

TELEMETRY_SCHEMA = "repro-telemetry"
"""Schema identifier written into every telemetry header record."""

TELEMETRY_VERSION = 1
"""Current telemetry format version."""

_COUNTS = {
    "span": "num_spans",
    "event": "num_events",
    "series": "num_series",
    "histogram": "num_histograms",
}
"""Record kinds in file order, each with the header field counting it."""


def dumps_telemetry(log: TelemetryLog) -> str:
    """Serialize a telemetry log to canonical JSONL bytes.

    The output is byte-deterministic: the same simulation (same
    workload, pools, faults, resilience and telemetry config)
    produces the same string in any process — pinned by a subprocess
    determinism test.
    """
    header = {
        "schema": TELEMETRY_SCHEMA,
        "version": TELEMETRY_VERSION,
        "sample_interval_s": log.sample_interval_s,
        "makespan_s": log.makespan_s,
        "pools": list(log.pools),
        "server_pools": list(log.server_pools),
        "num_spans": len(log.span_table),
        "num_events": len(log.events),
        "num_series": len(log.series),
        "num_histograms": len(log.histograms),
        "meta": dict(log.meta),
    }
    return jsonl.dumps(header, chain(
        log.span_table.json_lines(),
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


def _span(record: dict) -> tuple[int, str, list[tuple]]:
    return SpanTable.group(
        record["request"], record["model"], record["events"]
    )


def _event(record: dict) -> FleetEvent:
    return FleetEvent(
        ts_s=float(record["ts_s"]),
        kind=record["event"],
        attrs=record["attrs"],
    )


def _series(record: dict) -> MetricSeries:
    return MetricSeries(
        name=record["name"],
        kind=record["metric"],
        times=tuple(float(t) for t in record["times"]),
        values=tuple(float(v) for v in record["values"]),
    )


def _histogram(record: dict) -> HistogramSeries:
    return HistogramSeries(
        name=record["name"],
        edges=tuple(float(e) for e in record["edges"]),
        times=tuple(float(t) for t in record["times"]),
        counts=tuple(
            tuple(int(c) for c in row) for row in record["counts"]
        ),
    )


def loads_telemetry(text: str) -> TelemetryLog:
    """Parse a telemetry JSONL string back into a TelemetryLog.

    Checks the envelope (:func:`repro.jsonl.loads`) and the header's
    record counts; ``dumps_telemetry(loads_telemetry(s)) == s`` for any
    string this module wrote.
    """
    header, records = jsonl.loads(
        text, schema=TELEMETRY_SCHEMA, version=TELEMETRY_VERSION,
        parsers={
            "span": _span, "event": _event,
            "series": _series, "histogram": _histogram,
        },
    )
    for kind, field in _COUNTS.items():
        if len(records[kind]) != header[field]:
            raise ValueError(
                f"header promised {header[field]} {kind} records, file "
                f"has {len(records[kind])}"
            )
    return TelemetryLog(
        pools=tuple(header["pools"]),
        server_pools=tuple(int(p) for p in header["server_pools"]),
        sample_interval_s=float(header["sample_interval_s"]),
        makespan_s=float(header["makespan_s"]),
        span_table=SpanTable.from_groups(records["span"]),
        events=tuple(records["event"]),
        series=tuple(records["series"]),
        histograms=tuple(records["histogram"]),
        meta=dict(header["meta"]),
    )


def save_telemetry(log: TelemetryLog, path: str | Path) -> Path:
    """Write a telemetry log as JSONL; returns the path written."""
    path = Path(path)
    path.write_text(dumps_telemetry(log), encoding="utf-8")
    return path


def load_telemetry(path: str | Path) -> TelemetryLog:
    """Read a telemetry JSONL file written by :func:`save_telemetry`."""
    return loads_telemetry(Path(path).read_text(encoding="utf-8"))
