"""Chrome-trace export/parse round-trip tests."""

import json

import pytest

from repro.chrome_trace import write_chrome_trace
from repro.ir.context import ExecutionContext
from repro.ir.ops import Elementwise, Gemm, OpCategory
from repro.profiler.trace_export import (
    CATEGORY_LANES,
    category_times_from_records,
    load_chrome_trace,
    parse_chrome_trace,
    to_chrome_trace,
)


@pytest.fixture
def trace():
    ctx = ExecutionContext()
    with ctx.named_scope("unet"):
        ctx.emit(Gemm("proj", m=128, n=128, k=128))
        ctx.emit(Elementwise("gelu", numel=4096))
    return ctx.trace


class TestExport:
    def test_event_count(self, trace):
        payload = to_chrome_trace(trace)
        complete = [
            event for event in payload["traceEvents"]
            if event.get("ph") == "X"
        ]
        assert len(complete) == 2

    def test_durations_in_microseconds(self, trace):
        payload = to_chrome_trace(trace)
        event = next(
            event for event in payload["traceEvents"]
            if event.get("ph") == "X"
        )
        source = trace.events[0]
        assert event["dur"] == pytest.approx(source.cost.time_s * 1e6)

    def test_module_annotation_preserved(self, trace):
        payload = to_chrome_trace(trace)
        event = next(
            event for event in payload["traceEvents"]
            if event.get("ph") == "X"
        )
        assert event["args"]["module"] == "unet"

    def test_json_serializable(self, trace):
        json.dumps(to_chrome_trace(trace))

    def test_one_lane_per_category(self, trace):
        payload = to_chrome_trace(trace)
        lanes = {
            event["cat"]: event["tid"]
            for event in payload["traceEvents"]
            if event.get("ph") == "X"
        }
        assert lanes[OpCategory.LINEAR.value] == CATEGORY_LANES[
            OpCategory.LINEAR
        ]
        assert lanes[OpCategory.ELEMENTWISE.value] == CATEGORY_LANES[
            OpCategory.ELEMENTWISE
        ]
        assert lanes[OpCategory.LINEAR.value] != lanes[
            OpCategory.ELEMENTWISE.value
        ]

    def test_process_named_by_metadata_record(self, trace):
        # Viewers name a process only from a "process_name" record.
        records = [
            event for event in to_chrome_trace(trace)["traceEvents"]
            if event.get("ph") == "M" and event["name"] == "process_name"
        ]
        assert [record["args"]["name"] for record in records] == ["gpu"]

    def test_lane_metadata_only_for_present_categories(self, trace):
        payload = to_chrome_trace(trace)
        names = {
            event["args"]["name"]
            for event in payload["traceEvents"]
            if event.get("ph") == "M" and event["name"] == "thread_name"
        }
        assert names == {
            OpCategory.LINEAR.value,
            OpCategory.ELEMENTWISE.value,
        }


class TestRoundTrip:
    def test_parse_recovers_records(self, trace):
        records = parse_chrome_trace(to_chrome_trace(trace))
        assert [record["name"] for record in records] == ["proj", "gelu"]

    def test_category_times_match_breakdown(self, trace):
        records = parse_chrome_trace(to_chrome_trace(trace))
        times = category_times_from_records(records)
        direct = trace.time_by_category()
        for category, time_s in direct.items():
            assert times[category] == pytest.approx(time_s, rel=1e-6)

    def test_file_round_trip(self, trace, tmp_path):
        path = write_chrome_trace(
            to_chrome_trace(trace), tmp_path / "trace.json"
        )
        records = load_chrome_trace(path)
        assert len(records) == 2
        assert records[0]["category"] == OpCategory.LINEAR.value

    def test_metadata_events_ignored(self):
        payload = {"traceEvents": [{"ph": "M", "name": "gpu"}]}
        assert parse_chrome_trace(payload) == []
