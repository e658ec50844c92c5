"""Chrome-trace rendering of telemetry logs: lanes, slices, instants."""

import json

from repro.chrome_trace import write_chrome_trace
from repro.obs import telemetry_to_chrome_trace


def _events(log, ph):
    return [
        event
        for event in telemetry_to_chrome_trace(log)["traceEvents"]
        if event.get("ph") == ph
    ]


class TestLanes:
    def test_one_process_per_pool(self, small_log):
        names = {
            event["pid"]: event["args"]["name"]
            for event in _events(small_log, "M")
            if event["name"] == "process_name"
        }
        assert names == {
            idx: f"pool {pool}"
            for idx, pool in enumerate(small_log.pools)
        }

    def test_one_thread_per_server(self, small_log):
        lanes = {
            event["tid"]: event["pid"]
            for event in _events(small_log, "M")
            if event["name"] == "thread_name"
        }
        assert lanes == {
            sid: pidx
            for sid, pidx in enumerate(small_log.server_pools)
        }


class TestSlices:
    def test_every_dispatch_becomes_a_slice(self, small_log):
        dispatches = sum(
            len(span.all("dispatch")) for span in small_log.spans
        )
        assert len(_events(small_log, "X")) == dispatches

    def test_slices_sit_on_their_server_lane(self, small_log):
        for event in _events(small_log, "X"):
            assert (
                small_log.server_pools[event["tid"]] == event["pid"]
            )
            assert event["dur"] >= 0.0
            assert event["args"]["outcome"] in (
                "complete", "retry", "fail", "cancel", "open",
            )


class TestInstantsAndCounters:
    def test_fleet_events_become_instants(self, small_log):
        instants = _events(small_log, "i")
        assert len(instants) == len(small_log.events)
        for event in instants:
            # Server-scoped kinds attach to a thread, pool-scoped
            # kinds to the process.
            expected = (
                "t"
                if event["name"].startswith(("breaker", "server"))
                else "p"
            )
            assert event["s"] == expected

    def test_gauges_become_counter_tracks(self, small_log):
        counters = _events(small_log, "C")
        assert {event["name"] for event in counters} == {
            "queue_depth", "busy_servers", "breaker_open",
        }
        queue = small_log.series_named("pool.a100.queue_depth")
        matching = [
            event for event in counters
            if event["name"] == "queue_depth" and event["pid"] == 0
        ]
        assert len(matching) == len(queue.times)


class TestSave:
    def test_file_is_valid_json(self, small_log, tmp_path):
        path = write_chrome_trace(
            telemetry_to_chrome_trace(small_log),
            tmp_path / "telemetry-trace.json",
        )
        payload = json.loads(path.read_text())
        assert payload["displayTimeUnit"] == "ms"
        assert payload["traceEvents"]
