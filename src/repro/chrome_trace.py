"""The one Chrome-trace writer: ``chrome://tracing`` / Perfetto JSON.

The op view (:mod:`repro.profiler.trace_export`) and the fleet view
(:mod:`repro.obs.perfetto`) build their events here, so the record
layouts and the seconds-to-microseconds conversion exist once.
Constructors take seconds; the format's ``ts`` and ``dur`` are µs.
"""

from __future__ import annotations

import json
from pathlib import Path
from typing import Any, Mapping


def process_name(pid: int, name: str) -> dict:
    """The metadata record that names process ``pid``."""
    return {
        "name": "process_name", "ph": "M", "pid": pid,
        "args": {"name": name},
    }


def thread_name(pid: int, tid: int, name: str) -> dict:
    """The metadata record that names lane ``tid`` of process ``pid``."""
    return {
        "name": "thread_name", "ph": "M", "pid": pid, "tid": tid,
        "args": {"name": name},
    }


def complete(
    name: str, cat: str, pid: int, tid: int, start_s: float,
    duration_s: float, args: Mapping[str, Any],
) -> dict:
    """A complete (``"X"``) slice."""
    return {
        "name": name, "cat": cat, "ph": "X", "pid": pid, "tid": tid,
        "ts": start_s * 1e6, "dur": duration_s * 1e6, "args": args,
    }


def instant(
    name: str, cat: str, scope: str, pid: int, tid: int, ts_s: float,
    args: Mapping[str, Any],
) -> dict:
    """An instant (``"i"``) event; ``scope`` is ``"t"`` or ``"p"``."""
    return {
        "name": name, "cat": cat, "ph": "i", "s": scope, "pid": pid,
        "tid": tid, "ts": ts_s * 1e6, "args": args,
    }


def counter(
    name: str, cat: str, pid: int, ts_s: float, value: float
) -> dict:
    """One sample (``"C"``) of process ``pid``'s counter track."""
    return {
        "name": name, "cat": cat, "ph": "C", "pid": pid, "tid": 0,
        "ts": ts_s * 1e6, "args": {"value": value},
    }


def chrome_trace(events: list[dict]) -> dict:
    """The JSON-object envelope around an event list."""
    return {"traceEvents": events, "displayTimeUnit": "ms"}


def write_chrome_trace(payload: Mapping, path: str | Path) -> Path:
    """Write a view (any builder's result) as JSON; returns the path."""
    path = Path(path)
    path.write_text(json.dumps(payload))
    return path
