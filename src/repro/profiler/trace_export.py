"""Chrome-trace export and re-import.

The paper's methodology records PyTorch Profiler timelines and parses
them with custom scripts; this module round-trips our traces through the
same ``chrome://tracing`` JSON event format (written by
:mod:`repro.chrome_trace`) so they can be inspected in Perfetto or
post-processed externally.

Lane layout: op traces get one named thread lane per operator
category (attention, linear, conv, ...), so category breakdowns are
visible at a glance instead of stacking every op on ``tid 0``.
"""

from __future__ import annotations

import json
from pathlib import Path
from typing import Any

from repro.chrome_trace import chrome_trace, complete, process_name, thread_name
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
