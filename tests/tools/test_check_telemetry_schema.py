"""The record-schema CI gate (``tools/check_jsonl.py``) on telemetry.

The checker validates committed telemetry logs line-by-line without
going through ``repro.obs.export`` — these tests pin that it accepts
a freshly serialized log (including the committed example) and
rejects each class of corruption the schema forbids: wrong header,
non-canonical bytes, malformed spans, unknown series names,
decreasing counters, bad histogram rows, broken record counts.
"""

from __future__ import annotations

import json
from pathlib import Path

import pytest

from repro.obs import Telemetry, save_telemetry
from repro.serving.fleet import (
    PoolSpec,
    affine_batch_latency,
    simulate_fleet,
)
from repro.serving.workload import WorkloadMix, generate_requests
from tests.jsonl_helpers import checker

REPO_ROOT = Path(__file__).resolve().parents[2]

EXAMPLE = (
    REPO_ROOT / "examples" / "traces" / "telemetry_small.jsonl"
)


@pytest.fixture(scope="module")
def saved_log(tmp_path_factory) -> Path:
    mix = WorkloadMix(shares={"sd": 1.0}, service_s={"sd": 1.0})
    requests = generate_requests(
        mix, arrival_rate=2.0, duration_s=30.0, seed=4
    )
    pools = [
        PoolSpec(
            name="a100", machine="dgx-a100-80g", servers=2,
            latency_fns={
                "sd": affine_batch_latency(1.0, marginal_fraction=0.6)
            },
            max_batch=2,
        ),
    ]
    telemetry = Telemetry(sample_interval_s=5.0)
    simulate_fleet(requests, pools, telemetry=telemetry)
    path = tmp_path_factory.mktemp("telemetry") / "log.jsonl"
    save_telemetry(telemetry.log(), path)
    return path


def rewrite(path: Path, line_index: int, mutate) -> Path:
    """Apply ``mutate(record_dict)`` to one line, keep bytes canonical."""
    lines = path.read_text().splitlines()
    record = json.loads(lines[line_index])
    mutate(record)
    lines[line_index] = checker.canonical(record)
    out = path.with_name("mutated.jsonl")
    out.write_text("\n".join(lines) + "\n")
    return out


def line_of_kind(path: Path, kind: str) -> int:
    for index, line in enumerate(path.read_text().splitlines()):
        if json.loads(line).get("kind") == kind:
            return index
    raise AssertionError(f"log has no {kind!r} records")


def named_series_line(path: Path, name: str) -> int:
    for index, line in enumerate(path.read_text().splitlines()):
        record = json.loads(line)
        if record.get("kind") == "series" and record["name"] == name:
            return index
    raise AssertionError(f"log has no series {name!r}")


class TestAccepts:
    def test_fresh_log_passes(self, saved_log):
        assert checker.check_file(saved_log) == []
        assert checker.main([str(saved_log)]) == 0

    def test_committed_example_passes(self):
        assert checker.main([str(EXAMPLE)]) == 0

    def test_constants_match_the_library(self, saved_log):
        from repro.obs.export import (
            TELEMETRY_SCHEMA,
            TELEMETRY_VERSION,
        )
        from repro.obs.spans import SPAN_STATES, TERMINAL_STATES
        from repro.obs.telemetry import (
            FLEET_COUNTERS,
            FLEET_EVENT_KINDS,
            LATENCY_HISTOGRAM,
            POOL_GAUGES,
        )

        assert checker.SCHEMAS[TELEMETRY_SCHEMA].version == (
            TELEMETRY_VERSION
        )
        assert checker.SPAN_STATES == SPAN_STATES
        assert checker.TERMINAL_STATES == TERMINAL_STATES
        assert checker.FLEET_EVENT_KINDS == FLEET_EVENT_KINDS
        assert checker.FLEET_COUNTERS == FLEET_COUNTERS
        assert checker.POOL_GAUGES == POOL_GAUGES
        assert checker.LATENCY_HISTOGRAM == LATENCY_HISTOGRAM


class TestHeader:
    def test_missing_file_reports_error(self, tmp_path):
        assert checker.check_file(tmp_path / "nope.jsonl")

    def test_wrong_schema_id_fails(self, saved_log):
        bad = rewrite(saved_log, 0,
                      lambda r: r.update(schema="other-schema"))
        assert any("schema" in e for e in checker.check_file(bad))

    def test_wrong_version_fails(self, saved_log):
        bad = rewrite(saved_log, 0, lambda r: r.update(version=2))
        assert any("version" in e for e in checker.check_file(bad))

    def test_bad_sample_interval_fails(self, saved_log):
        bad = rewrite(saved_log, 0,
                      lambda r: r.update(sample_interval_s=0.0))
        assert any("sample_interval_s" in e for e in checker.check_file(bad))

    def test_server_pool_out_of_range_fails(self, saved_log):
        bad = rewrite(saved_log, 0,
                      lambda r: r.update(server_pools=[0, 7]))
        assert any("server_pools" in e for e in checker.check_file(bad))

    def test_duplicate_pool_names_fail(self, saved_log):
        bad = rewrite(saved_log, 0,
                      lambda r: r.update(pools=["a100", "a100"]))
        assert any("duplicate pool" in e for e in checker.check_file(bad))


class TestCanonicalBytes:
    def test_non_canonical_line_fails(self, saved_log):
        lines = saved_log.read_text().splitlines()
        record = json.loads(lines[1])
        lines[1] = json.dumps(record)  # default separators
        bad = saved_log.with_name("loose.jsonl")
        bad.write_text("\n".join(lines) + "\n")
        assert any("canonical" in e for e in checker.check_file(bad))

    def test_missing_trailing_newline_fails(self, saved_log):
        bad = saved_log.with_name("chomped.jsonl")
        bad.write_text(saved_log.read_text().rstrip("\n"))
        assert any("newline" in e for e in checker.check_file(bad))

    def test_invalid_json_line_fails(self, saved_log):
        bad = saved_log.with_name("broken.jsonl")
        bad.write_text(saved_log.read_text() + "{not json\n")
        assert any("invalid JSON" in e for e in checker.check_file(bad))


class TestSpans:
    def test_span_out_of_order_fails(self, saved_log):
        index = line_of_kind(saved_log, "span")
        bad = rewrite(saved_log, index + 1,
                      lambda r: r.update(request=0))
        assert any("out of order" in e for e in checker.check_file(bad))

    def test_first_event_must_be_submit(self, saved_log):
        index = line_of_kind(saved_log, "span")

        def flip(record):
            record["events"][0][1] = "dispatch"

        bad = rewrite(saved_log, index, flip)
        assert any("'submit'" in e for e in checker.check_file(bad))

    def test_backwards_timestamp_fails(self, saved_log):
        index = line_of_kind(saved_log, "span")

        def rewind(record):
            record["events"][-1][0] = -5.0

        bad = rewrite(saved_log, index, rewind)
        assert any("backwards" in e for e in checker.check_file(bad))

    def test_two_terminals_fail(self, saved_log):
        index = line_of_kind(saved_log, "span")

        def double(record):
            record["events"].append(
                [record["events"][-1][0], "fail", {}]
            )

        bad = rewrite(saved_log, index, double)
        errors = checker.check_file(bad)
        assert any("terminal" in e for e in errors)

    def test_unknown_state_fails(self, saved_log):
        index = line_of_kind(saved_log, "span")

        def rename(record):
            record["events"][-1][1] = "vanish"

        bad = rewrite(saved_log, index, rename)
        errors = checker.check_file(bad)
        assert any("unknown span state" in e for e in errors)


class TestSeries:
    def test_unknown_series_name_fails(self, saved_log):
        index = line_of_kind(saved_log, "series")
        bad = rewrite(saved_log, index,
                      lambda r: r.update(name="fleet.bogus"))
        assert any("vocabulary" in e for e in checker.check_file(bad))

    def test_decreasing_counter_fails(self, saved_log):
        index = named_series_line(saved_log, "fleet.completed")

        def dent(record):
            record["values"][-1] = record["values"][0] - 1.0

        bad = rewrite(saved_log, index, dent)
        assert any("decreases" in e for e in checker.check_file(bad))

    def test_sample_past_makespan_fails(self, saved_log):
        index = line_of_kind(saved_log, "series")

        def extend(record):
            record["times"][-1] = record["times"][-1] + 1e6

        bad = rewrite(saved_log, index, extend)
        assert any("makespan" in e for e in checker.check_file(bad))

    def test_final_sample_must_hit_makespan(self, saved_log):
        index = line_of_kind(saved_log, "series")

        def truncate(record):
            record["times"].pop()
            record["values"].pop()

        bad = rewrite(saved_log, index, truncate)
        assert any("final sample" in e for e in checker.check_file(bad))

    def test_misaligned_series_fails(self, saved_log):
        index = line_of_kind(saved_log, "series")
        bad = rewrite(saved_log, index,
                      lambda r: r.update(values=r["values"][:-1]))
        assert any("aligned" in e for e in checker.check_file(bad))

    def test_series_out_of_name_order_fails(self, saved_log):
        first = line_of_kind(saved_log, "series")
        lines = saved_log.read_text().splitlines()
        lines[first], lines[first + 1] = (
            lines[first + 1], lines[first]
        )
        bad = saved_log.with_name("swapped.jsonl")
        bad.write_text("\n".join(lines) + "\n")
        assert any("sorted by name" in e for e in checker.check_file(bad))


class TestHistograms:
    def test_unknown_histogram_name_fails(self, saved_log):
        index = line_of_kind(saved_log, "histogram")
        bad = rewrite(saved_log, index,
                      lambda r: r.update(name="fleet.sizes"))
        assert any("histogram" in e for e in checker.check_file(bad))

    def test_unsorted_edges_fail(self, saved_log):
        index = line_of_kind(saved_log, "histogram")
        bad = rewrite(saved_log, index,
                      lambda r: r.update(edges=[2.0, 1.0]))
        assert any("ascending" in e for e in checker.check_file(bad))

    def test_short_count_row_fails(self, saved_log):
        index = line_of_kind(saved_log, "histogram")

        def shorten(record):
            record["counts"][0] = record["counts"][0][:-1]

        bad = rewrite(saved_log, index, shorten)
        assert any("buckets" in e for e in checker.check_file(bad))

    def test_negative_count_fails(self, saved_log):
        index = line_of_kind(saved_log, "histogram")

        def negate(record):
            record["counts"][0][0] = -1

        bad = rewrite(saved_log, index, negate)
        assert any("negative" in e for e in checker.check_file(bad))


class TestStructure:
    def test_event_after_series_fails(self, saved_log):
        lines = saved_log.read_text().splitlines()
        event_line = checker.canonical({
            "kind": "event", "ts_s": 1.0,
            "event": "breaker_open", "attrs": {"server": 0},
        })
        bad = saved_log.with_name("tail.jsonl")
        bad.write_text("\n".join(lines) + "\n" + event_line + "\n")
        errors = checker.check_file(bad)
        assert any("out of order" in e for e in errors)

    def test_unknown_event_kind_fails(self, saved_log):
        index = line_of_kind(saved_log, "series")
        lines = saved_log.read_text().splitlines()
        # Splice a bogus fleet event ahead of the series block.
        lines.insert(index, checker.canonical({
            "kind": "event", "ts_s": 0.0,
            "event": "meteor_strike", "attrs": {},
        }))
        bad = saved_log.with_name("meteor.jsonl")
        bad.write_text("\n".join(lines) + "\n")
        assert any("'meteor_strike'" in e for e in checker.check_file(bad))

    def test_unknown_record_kind_fails(self, saved_log):
        bad = saved_log.with_name("kinds.jsonl")
        bad.write_text(
            saved_log.read_text()
            + checker.canonical({"kind": "mystery"}) + "\n"
        )
        assert any("record kind" in e for e in checker.check_file(bad))

    def test_count_mismatch_fails(self, saved_log):
        index = line_of_kind(saved_log, "span")
        lines = saved_log.read_text().splitlines()
        del lines[index]
        bad = saved_log.with_name("short.jsonl")
        bad.write_text("\n".join(lines) + "\n")
        errors = checker.check_file(bad)
        assert any("promised" in e for e in errors)


class TestCli:
    def test_multiple_files_fail_if_any_fails(self, saved_log):
        bad = rewrite(saved_log, 0, lambda r: r.update(version=9))
        assert checker.main([str(saved_log), str(bad)]) == 1
