"""Chrome-trace export and re-import.

The paper's methodology records PyTorch Profiler timelines and parses
them with custom scripts; this module round-trips our traces through the
same ``chrome://tracing`` JSON event format (written by
:mod:`repro.chrome_trace`) so they can be inspected in Perfetto or
post-processed externally.

Lane layout: single-GPU op traces get one named thread lane per
operator category (attention, linear, conv, ...), so category
breakdowns are visible at a glance instead of stacking every op on
``tid 0``.  Distributed traces (:func:`distributed_to_chrome_trace`)
get one lane per rank, with flow events stitching each collective's
per-rank slices together so comm dependencies render as arrows.
"""

from __future__ import annotations

import json
from collections import Counter
from pathlib import Path
from typing import Any

from repro.chrome_trace import (
    chrome_trace,
    complete,
    flow,
    process_name,
    thread_name,
)
from repro.distributed.timeline import DistributedTrace
from repro.ir.ops import OpCategory
from repro.ir.trace import Trace

CATEGORY_LANES: dict[OpCategory, int] = {
    category: lane for lane, category in enumerate(OpCategory)
}
"""Thread-lane id per operator category (enum declaration order)."""


def to_chrome_trace(trace: Trace) -> dict:
    """Serialize a trace as Chrome-trace JSON (complete 'X' events).

    Each operator category gets its own named thread lane (see
    :data:`CATEGORY_LANES`); lanes are declared only for categories the
    trace actually contains.
    """
    present = {event.category for event in trace}
    events = [process_name(0, "gpu")]
    events += [
        thread_name(0, lane, category.value)
        for category, lane in CATEGORY_LANES.items()
        if category in present
    ]
    events += [
        complete(
            event.op.name, event.category.value, 0,
            CATEGORY_LANES[event.category], event.start_s,
            event.cost.time_s, {
                "module": event.module_path,
                "flops": event.cost.flops,
                "bytes": event.cost.moved_bytes,
                "limiter": event.cost.limiter,
            },
        )
        for event in trace
    ]
    return chrome_trace(events)


def distributed_to_chrome_trace(trace: DistributedTrace) -> dict:
    """Serialize a distributed trace with one lane per rank.

    Compute and comm entries become ``"X"`` slices on their rank's
    lane (``tid`` = rank).  The *k*-th comm entry with a given label is
    the same collective wherever it appears, so when it shows up on
    more than one rank (SPMD collectives; pipeline sends only live on
    the sending rank) the slices are linked with ``"s"``/``"f"`` flow
    events — rendered as arrows in Perfetto.  The lowest rank carrying
    a collective starts its flow; every other rank ends it.  Requires
    timelines built with ``keep_entries=True``.
    """
    events = [process_name(
        0, f"{trace.strategy} x{trace.world} on {trace.machine.name}"
    )]
    events += [
        thread_name(0, timeline.rank, f"rank {timeline.rank}")
        for timeline in trace.timelines
    ]
    comm_counts = [
        Counter(e.label for e in timeline.entries if e.kind == "comm")
        for timeline in trace.timelines
    ]
    flow_ids: dict[tuple[str, int], int] = {}
    for timeline in trace.timelines:
        rank = timeline.rank
        seen: Counter[str] = Counter()
        for entry in timeline.entries:
            events.append(complete(
                entry.label, entry.kind, 0, rank, entry.start_s,
                entry.duration_s, {"rank": rank},
            ))
            if entry.kind != "comm":
                continue
            seen[entry.label] += 1
            key = (entry.label, seen[entry.label])
            # Every rank with >= k comms of a label carries its k-th one.
            if sum(count[key[0]] >= key[1] for count in comm_counts) > 1:
                start = key not in flow_ids
                flow_id = flow_ids.setdefault(key, len(flow_ids) + 1)
                events.append(flow(
                    entry.label, "comm-flow", flow_id, 0, rank,
                    entry.start_s, start,
                ))
    return chrome_trace(events)


def parse_chrome_trace(payload: dict) -> list[dict[str, Any]]:
    """Parse a Chrome-trace dict back to a flat list of kernel records.

    This is the script-side half of the paper's methodology: linking
    each GPU kernel to its module annotation and category so operator
    breakdowns can be computed from the serialized timeline alone.
    """
    return [
        {
            "name": event["name"],
            "category": event["cat"],
            "module": event["args"]["module"],
            "start_us": event["ts"],
            "duration_us": event["dur"],
            "flops": event["args"]["flops"],
            "bytes": event["args"]["bytes"],
        }
        for event in payload.get("traceEvents", [])
        if event.get("ph") == "X"
    ]


def category_times_from_records(
    records: list[dict[str, Any]],
) -> dict[OpCategory, float]:
    """Operator-category times (seconds) from parsed trace records."""
    times: dict[OpCategory, float] = {}
    for record in records:
        category = OpCategory(record["category"])
        times[category] = times.get(category, 0.0) + (
            record["duration_us"] / 1e6
        )
    return times


def load_chrome_trace(path: str | Path) -> list[dict[str, Any]]:
    """Read an op-view file written by ``write_chrome_trace``."""
    return parse_chrome_trace(json.loads(Path(path).read_text()))
