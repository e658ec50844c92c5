#!/usr/bin/env python
"""Validate canonical-JSONL record files: traces, telemetry, campaigns.

Usage::

    python tools/check_jsonl.py examples/traces/*.jsonl

Every record format of this repository shares one envelope
(``docs/RECORDS.md``): one canonical JSON record per line, a
``header`` on line 1 naming the schema and version, then kind-tagged
records in a declared order.  This checker reads the schema id on
line 1 and validates the file against that schema's entry in
:data:`SCHEMAS`.  It imports neither ``repro.jsonl`` nor the codecs
built on it, so a serializer bug cannot certify itself; its only
``repro`` import is the model registry, which every model a traffic
trace names must belong to.

Checks run in stages, and a stage with errors ends the file's check:

1. framing: UTF-8 text ending in a newline, every line valid and
   *canonical* JSON (sorted keys, compact separators);
2. header: kind ``header``, a known schema id, that schema's version,
   and the header's field rules;
3. records: every kind known to the schema and in its declared order,
   each record's field rules, and the record counts the header
   promises (and exactly one ``topology`` record in a campaign);
4. rules that span records, one function per schema: dense ids,
   monotone arrivals and table references (traces); the span
   lifecycle, series order and the makespan end, histogram rows
   (telemetry); topology nesting and domain references (campaigns).

Exit status: 0 when every file passes, 1 on any violation.
"""

from __future__ import annotations

import argparse
import functools
import json
import math
import sys
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable, Iterator

REPO_ROOT = Path(__file__).resolve().parents[1]

MAX_ERRORS = 20
"""Errors reported per file before the rest are summarized."""

# Vocabularies, restated from the library and pinned to it by tests.
TIER_NAMES = ("heavy", "medium", "light")
CAMPAIGN_EVENTS = ("zone_outage", "rack_outage", "partition",
                   "degraded_link")
SCOPES = ("zone", "rack")
SPAN_STATES = (
    "submit", "admit", "dispatch", "complete", "retry", "hedge",
    "cancel", "shed", "fail",
)
TERMINAL_STATES = ("complete", "fail", "shed")
FLEET_EVENT_KINDS = (
    "breaker_open", "breaker_half_open", "breaker_close",
    "rung_change", "scale_up", "scale_down", "server_activate",
    "server_crash", "server_recover", "server_cordon",
    "server_uncordon", "domain_down", "domain_detected", "domain_up",
)
FLEET_COUNTERS = (
    "completed", "failed", "shed", "retries", "hedges_launched",
    "breaker_opens", "rung_changes",
)
POOL_GAUGES = (
    "queue_depth", "busy_servers", "active_servers", "rung",
    "breaker_open",
)
LATENCY_HISTOGRAM = "fleet.latency_s"


def canonical(obj: object) -> str:
    """Canonical one-line JSON (the serializers' contract, restated)."""
    return json.dumps(obj, sort_keys=True, separators=(",", ":"))


@functools.cache
def registry_models() -> frozenset[str]:
    """Model names the repository's registry can instantiate."""
    sys.path.insert(0, str(REPO_ROOT / "src"))
    try:
        from repro.models.registry import suite_names
    finally:
        sys.path.pop(0)
    return frozenset(suite_names())


# -- field rules ------------------------------------------------------


@dataclass(frozen=True)
class Rule:
    """What one field must be: a description and its predicate."""

    want: str
    test: Callable[[object], bool]


def _int(value: object) -> bool:
    return isinstance(value, int) and not isinstance(value, bool)


def _num(value: object) -> bool:
    return (
        isinstance(value, (int, float)) and not isinstance(value, bool)
        and math.isfinite(value)
    )


def _all(value: object, rule: Rule) -> bool:
    return isinstance(value, list) and all(rule.test(v) for v in value)


def one_of(*names: str) -> Rule:
    """A field holding one of ``names``."""
    return Rule(f"one of {', '.join(names)}", lambda v: v in names)


NON_NEG_INT = Rule("a non-negative int", lambda v: _int(v) and v >= 0)
POS_INT = Rule("a positive int", lambda v: _int(v) and v > 0)
POS_FLOAT = Rule(
    "a positive finite float",
    lambda v: isinstance(v, float) and math.isfinite(v) and v > 0.0,
)
FINITE = Rule("a finite number", _num)
NON_NEG = Rule("a finite number >= 0", lambda v: _num(v) and v >= 0.0)
POSITIVE = Rule("a finite number > 0", lambda v: _num(v) and v > 0.0)
NAME = Rule("a non-empty string", lambda v: isinstance(v, str) and v != "")
OBJECT = Rule("an object", lambda v: isinstance(v, dict))
OPEN_UNIT = Rule("a number in (0, 1)", lambda v: _num(v) and 0 < v < 1)
UNIT = Rule("a number in [0, 1]", lambda v: _num(v) and 0 <= v <= 1)
NAMES = Rule(
    "a non-empty list of non-empty strings",
    lambda v: _all(v, NAME) and bool(v),
)
INTS = Rule("a list of non-negative ints", lambda v: _all(v, NON_NEG_INT))
NUMBERS = Rule("a list of finite numbers", lambda v: _all(v, FINITE))
TIMES = Rule("a list of finite numbers >= 0", lambda v: _all(v, NON_NEG))
LISTS = Rule("a list of lists", lambda v: isinstance(v, list) and all(
    isinstance(item, list) for item in v
))
EDGES = Rule(
    "a non-empty ascending list of finite numbers",
    lambda v: _all(v, FINITE) and bool(v)
    and all(a < b for a, b in zip(v, v[1:])),
)
SPAN_EVENTS = Rule(
    "a non-empty list of [ts_s, state, attrs] triples",
    lambda v: isinstance(v, list) and bool(v) and all(
        isinstance(e, list) and len(e) == 3 and _num(e[0])
        and isinstance(e[1], str) and isinstance(e[2], dict)
        for e in v
    ),
)


def field_errors(number: int, kind: str, record: dict,
                 rules: dict[str, Rule]) -> list[str]:
    """One error per field of ``record`` that breaks its rule."""
    return [
        f"line {number}: {kind}.{name} must be {rule.want}, got "
        f"{record.get(name)!r:.80}"
        for name, rule in rules.items()
        if not rule.test(record.get(name))
    ]


# -- rules that span records ------------------------------------------

Records = dict[str, list[tuple[int, dict]]]
"""Each kind's ``(line number, record)`` pairs, in file order."""


def trace_rules(header: dict, records: Records) -> Iterator[str]:
    """Registry models, dense ids, monotone arrivals, table references."""
    models, combos = header["models"], header["combos"]
    for name in models:
        if name not in registry_models():
            yield (f"line 1: model {name!r} not in the repository "
                   "registry")
    if len(set(models)) != len(models):
        yield "line 1: duplicate model names in header"
    if len(combos) != len(models):
        yield "line 1: combos must hold one table per header model"
        return
    for kind in ("client", "request"):
        for expected, (number, record) in enumerate(records[kind]):
            if record["id"] != expected:
                yield (f"line {number}: {kind} id {record['id']}, "
                       f"expected {expected} (ids are dense and ordered)")
    tables = dict(zip(models, combos))
    duration, clients = header["duration_s"], header["num_clients"]
    last = 0.0
    for number, request in records["request"]:
        arrival = request["arrival_s"]
        if arrival < last:
            yield (f"line {number}: arrival {arrival!r} before previous "
                   f"arrival {last!r} (arrivals must be monotone)")
        if not 0.0 <= arrival <= duration:
            yield f"line {number}: arrival {arrival!r} outside [0, {duration}]"
        last = max(last, arrival)
        if request["client"] >= clients:
            yield (f"line {number}: client {request['client']} not in "
                   f"[0, {clients})")
        model, combo = request["model"], request["combo"]
        if model not in tables:
            yield (f"line {number}: model {model!r} not in the header's "
                   "model table")
        elif combo >= len(tables[model]):
            yield (f"line {number}: combo {combo} does not index "
                   f"{model!r}'s combo table (size {len(tables[model])})")


def _span_lifecycle(number: int, events: list) -> Iterator[str]:
    """Submit first, monotone clock, one terminal, then only cancels."""
    last = -math.inf
    terminals = 0
    for index, (ts, state, _) in enumerate(events):
        if index == 0 and state != "submit":
            yield f"line {number}: first event is {state!r}, not 'submit'"
        if state not in SPAN_STATES:
            yield f"line {number}: unknown span state {state!r}"
        if ts < last:
            yield (f"line {number}: event {index} timestamp {ts!r} goes "
                   f"backwards (previous {last!r})")
        last = ts
        if terminals and state != "cancel":
            yield f"line {number}: {state!r} event after terminal state"
        terminals += state in TERMINAL_STATES
    if terminals != 1:
        yield (f"line {number}: {terminals} terminal events (want "
               "exactly 1)")


def telemetry_rules(header: dict, records: Records) -> Iterator[str]:
    """Pool map, span lifecycle, event clock, series and histograms."""
    pools, makespan = header["pools"], header["makespan_s"]
    if len(set(pools)) != len(pools):
        yield "line 1: duplicate pool names in header"
    if any(pool >= len(pools) for pool in header["server_pools"]):
        yield f"line 1: server_pools must be ints in [0, {len(pools)})"
    last_request = -1
    for number, span in records["span"]:
        if span["request"] <= last_request:
            yield (f"line {number}: span {span['request']} out of order "
                   "(spans are sorted by request id)")
        last_request = span["request"]
        yield from _span_lifecycle(number, span["events"])
    last_ts = 0.0
    for number, event in records["event"]:
        if event["ts_s"] < last_ts:
            yield (f"line {number}: event timestamp {event['ts_s']!r} "
                   f"before previous {last_ts!r}")
        last_ts = event["ts_s"]
    known = {f"fleet.{name}" for name in FLEET_COUNTERS} | {
        f"pool.{pool}.{gauge}" for pool in pools for gauge in POOL_GAUGES
    }
    last_name = ""
    for number, series in records["series"]:
        name, times, values = (
            series["name"], series["times"], series["values"]
        )
        if name not in known:
            yield (f"line {number}: series {name!r} not in the known "
                   "counter/gauge vocabulary")
        if name <= last_name:
            yield (f"line {number}: series {name!r} out of order (series "
                   "are sorted by name)")
        last_name = name
        if len(times) != len(values):
            yield f"line {number}: times and values must be aligned lists"
        if any(b <= a for a, b in zip(times, times[1:])):
            yield f"line {number}: sample times must strictly increase"
        if any(ts > makespan for ts in times):
            yield f"line {number}: sample past the makespan ({makespan!r})"
        if times and times[-1] != makespan:
            yield (f"line {number}: final sample at {times[-1]!r}, "
                   f"expected the makespan {makespan!r}")
        if series["metric"] == "counter" and any(
            b < a for a, b in zip(values, values[1:])
        ):
            yield f"line {number}: counter {name!r} decreases"
    for number, histogram in records["histogram"]:
        if len(histogram["times"]) != len(histogram["counts"]):
            yield f"line {number}: times and counts must be aligned lists"
        width = len(histogram["edges"]) + 1
        for index, row in enumerate(histogram["counts"]):
            if len(row) != width:
                yield (f"line {number}: count row {index} must have "
                       f"{width} buckets (len(edges) + 1)")
            elif not all(NON_NEG_INT.test(count) for count in row):
                yield (f"line {number}: count row {index} holds a "
                       "negative or non-int bucket")


def campaign_rules(header: dict, records: Records) -> Iterator[str]:
    """Topology size and nesting; events inside the campaign's domains."""
    [(number, topology)] = records["topology"]
    hosts, racks, zones = (
        topology[column] for column in ("host_of", "rack_of", "zone_of")
    )
    if not len(hosts) == len(racks) == len(zones):
        yield f"line {number}: topology columns have unequal lengths"
        return
    if len(hosts) != header["servers"]:
        yield (f"line {number}: topology describes {len(hosts)} servers, "
               f"header promised {header['servers']}")
    rack_of_host: dict[int, int] = {}
    zone_of_rack: dict[int, int] = {}
    for host, rack, zone in zip(hosts, racks, zones):
        if rack_of_host.setdefault(host, rack) != rack:
            yield (f"line {number}: host {host} spans racks "
                   f"{rack_of_host[host]} and {rack}")
        if zone_of_rack.setdefault(rack, zone) != zone:
            yield (f"line {number}: rack {rack} spans zones "
                   f"{zone_of_rack[rack]} and {zone}")
    domains = {"zone": set(zones), "rack": set(racks)}
    for number, event in records["event"]:
        if event["at_s"] > header["duration_s"]:
            yield (f"line {number}: event starts at {event['at_s']!r}, "
                   f"after the campaign duration {header['duration_s']!r}")
        if event["event"].endswith("_outage"):
            scope = event["event"].removesuffix("_outage")
            index = event[scope]
            stagger = event.get("stagger_s", 0.0)
            if not (_num(stagger)
                    and 0.0 <= stagger < event["duration_s"]):
                yield (f"line {number}: stagger_s must lie in "
                       f"[0, duration_s), got {stagger!r}")
        else:
            scope, index = event["scope"], event["index"]
        if index not in domains[scope]:
            yield f"line {number}: {scope} {index!r} not in the topology"


# -- the schema table -------------------------------------------------


@dataclass(frozen=True)
class Schema:
    """One record format: its version and the rules its records obey.

    ``records`` lists the record kinds in file order with their field
    rules; ``variants`` adds rules by a record's ``event`` name.
    ``counts`` maps a kind to the header field promising its count,
    or to the count itself.  ``cross`` yields the errors of the rules
    that span records; it runs only on files that pass every field
    rule.
    """

    version: int
    header: dict[str, Rule]
    records: dict[str, dict[str, Rule]]
    counts: dict[str, str | int]
    cross: Callable[[dict, Records], Iterator[str]]
    variants: dict[str, dict[str, Rule]] = field(default_factory=dict)


SCHEMAS: dict[str, Schema] = {
    "repro-traffic-trace": Schema(
        version=1,
        header={
            "duration_s": POS_FLOAT, "models": NAMES, "combos": LISTS,
            "num_clients": NON_NEG_INT, "meta": OBJECT,
        },
        records={
            "client": {
                "id": NON_NEG_INT, "rate": NON_NEG,
                "tier": one_of(*TIER_NAMES),
            },
            "request": {
                "id": NON_NEG_INT, "client": NON_NEG_INT, "model": NAME,
                "combo": NON_NEG_INT, "arrival_s": FINITE,
                "service_s": POSITIVE,
            },
        },
        counts={"client": "num_clients"},
        cross=trace_rules,
    ),
    "repro-telemetry": Schema(
        version=1,
        header={
            "sample_interval_s": POSITIVE, "makespan_s": NON_NEG,
            "pools": NAMES, "server_pools": INTS,
            "num_spans": NON_NEG_INT, "num_events": NON_NEG_INT,
            "num_series": NON_NEG_INT, "num_histograms": NON_NEG_INT,
            "meta": OBJECT,
        },
        records={
            "span": {
                "request": NON_NEG_INT, "model": NAME,
                "events": SPAN_EVENTS,
            },
            "event": {
                "ts_s": NON_NEG, "event": one_of(*FLEET_EVENT_KINDS),
                "attrs": OBJECT,
            },
            "series": {
                "name": NAME, "metric": one_of("counter", "gauge"),
                "times": TIMES, "values": NUMBERS,
            },
            "histogram": {
                "name": one_of(LATENCY_HISTOGRAM), "edges": EDGES,
                "times": TIMES, "counts": LISTS,
            },
        },
        counts={
            "span": "num_spans", "event": "num_events",
            "series": "num_series", "histogram": "num_histograms",
        },
        cross=telemetry_rules,
    ),
    "repro-chaos-campaign": Schema(
        version=1,
        header={
            "seed": NON_NEG_INT, "duration_s": POS_FLOAT,
            "servers": POS_INT,
        },
        records={
            "topology": {"host_of": INTS, "rack_of": INTS, "zone_of": INTS},
            "event": {
                "event": one_of(*CAMPAIGN_EVENTS), "at_s": NON_NEG,
                "duration_s": POSITIVE,
            },
        },
        counts={"topology": 1},
        cross=campaign_rules,
        variants={
            "zone_outage": {"zone": NON_NEG_INT},
            "rack_outage": {"rack": NON_NEG_INT},
            "partition": {"scope": one_of(*SCOPES), "index": NON_NEG_INT},
            "degraded_link": {
                "scope": one_of(*SCOPES), "index": NON_NEG_INT,
                "bandwidth_factor": OPEN_UNIT, "comm_fraction": UNIT,
            },
        },
    ),
}
"""Every known schema id and the rules its files obey."""


# -- the check --------------------------------------------------------


def _check_text(text: str) -> list[str]:
    """Every violation in one file's text, stage by stage."""
    lines = text.split("\n")
    errors: list[str] = []
    if lines[-1] == "":
        lines.pop()
    else:
        errors.append("file must end with a trailing newline")
    if not lines:
        return errors + ["empty file (no header record)"]
    parsed: list[tuple[int, object]] = []
    for number, line in enumerate(lines, start=1):
        try:
            record = json.loads(line)
        except json.JSONDecodeError as error:
            errors.append(f"line {number}: invalid JSON ({error.msg})")
            continue
        if line != canonical(record):
            errors.append(f"line {number}: not canonical JSON (keys "
                          "sorted, separators (',', ':'))")
        parsed.append((number, record))
    if errors:
        return errors

    (_, header), body = parsed[0], parsed[1:]
    if not isinstance(header, dict) or header.get("kind") != "header":
        return ["line 1: first record must have kind 'header'"]
    schema_id = header.get("schema")
    schema = SCHEMAS.get(schema_id) if isinstance(schema_id, str) else None
    if schema is None:
        return [f"line 1: unknown schema {schema_id!r} "
                f"(known: {', '.join(SCHEMAS)})"]
    if header.get("version") != schema.version:
        return [f"line 1: version {header.get('version')!r} is not the "
                f"supported version {schema.version}"]
    errors = field_errors(1, "header", header, schema.header)
    if errors:
        return errors

    order = list(schema.records)
    records: Records = {kind: [] for kind in order}
    last = 0
    for number, record in body:
        kind = record.get("kind") if isinstance(record, dict) else None
        if kind not in order:
            errors.append(f"line {number}: unknown record kind {kind!r}")
            continue
        if order.index(kind) < last:
            errors.append(f"line {number}: {kind} record out of order "
                          f"(file order is {', '.join(order)})")
        last = max(last, order.index(kind))
        rules = schema.records[kind]
        if isinstance(record.get("event"), str):
            rules = {**rules, **schema.variants.get(record["event"], {})}
        errors += field_errors(number, kind, record, rules)
        records[kind].append((number, record))
    for kind, promise in schema.counts.items():
        got = len(records[kind])
        if isinstance(promise, str) and got != header[promise]:
            errors.append(f"header promised {header[promise]} {kind} "
                          f"records, file has {got}")
        elif isinstance(promise, int) and got != promise:
            errors.append(f"file has {got} {kind} records, want exactly "
                          f"{promise}")
    return errors or list(schema.cross(header, records))


def check_file(path: Path) -> list[str]:
    """Validate one record file; returns error strings (empty = pass)."""
    try:
        errors = _check_text(path.read_text(encoding="utf-8"))
    except (OSError, UnicodeDecodeError) as error:
        return [str(error)]
    if len(errors) > MAX_ERRORS:
        suppressed = len(errors) - MAX_ERRORS
        errors = errors[:MAX_ERRORS] + [
            f"... {suppressed} further errors suppressed"
        ]
    return errors


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "files", type=Path, nargs="+",
        help="record files: traffic traces, telemetry logs, campaigns",
    )
    args = parser.parse_args(argv)
    failures = 0
    for path in args.files:
        errors = check_file(path)
        if errors:
            failures += 1
            print(f"FAIL  {path}", file=sys.stderr)
            for line in errors:
                print(f"  {line}", file=sys.stderr)
        else:
            lines = path.read_text(encoding="utf-8").splitlines()
            header = json.loads(lines[0])
            print(f"ok    {path}: {header['schema']} "
                  f"v{header['version']}, {len(lines) - 1} records")
    return 1 if failures else 0


if __name__ == "__main__":
    raise SystemExit(main())
