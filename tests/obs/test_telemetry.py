"""Collector lifecycle, configuration guards and derived views."""

import gc
import math

import pytest

from repro.obs import Telemetry
from repro.serving.columnar import _ColumnarState


class TestConstruction:
    def test_interval_must_be_positive(self):
        with pytest.raises(ValueError, match="interval"):
            Telemetry(sample_interval_s=0.0)

    def test_edges_must_be_ascending(self):
        with pytest.raises(ValueError, match="ascending"):
            Telemetry(histogram_edges_s=(2.0, 1.0))

    @pytest.mark.parametrize("value", [math.nan, math.inf])
    def test_interval_must_be_finite(self, value):
        with pytest.raises(
            ValueError, match="sample_interval_s must be finite"
        ):
            Telemetry(sample_interval_s=value)

    @pytest.mark.parametrize("edges, index", [
        ((1.0, math.nan, 2.0), 1), ((math.inf,), 0), ((0.5, -math.inf), 1),
    ])
    def test_edges_must_be_finite(self, edges, index):
        with pytest.raises(
            ValueError, match=rf"histogram_edges_s\[{index}\] must be finite"
        ):
            Telemetry(histogram_edges_s=edges)

    def test_sample_count_is_bounded(self, instrumented_runner):
        # The first event past the ceiling fails before any sampling.
        with pytest.raises(
            ValueError, match=r"sample_interval_s=1e-09 needs .* samples "
            r"to reach t=.*; at most 1,000,000"
        ):
            instrumented_runner(Telemetry(sample_interval_s=1e-9))
        telemetry = Telemetry(sample_interval_s=1.0)
        telemetry.begin((), (), list)
        telemetry.advance(10.0)
        with pytest.raises(ValueError, match="sample_interval_s=1.0"):
            telemetry.advance(1_000_000.5)

    def test_collector_is_single_use(self, instrumented_runner):
        telemetry = Telemetry()
        instrumented_runner(telemetry)
        with pytest.raises(RuntimeError, match="fresh collector"):
            instrumented_runner(telemetry)

    def test_meta_is_carried_into_the_log(self, small_log):
        assert small_log.meta == {"scenario": "conftest"}


class TestDerivedViews:
    def test_events_named_filters_by_kind(self, small_log):
        opens = small_log.events_named("breaker_open")
        assert opens
        assert all(
            event.kind == "breaker_open" for event in opens
        )
        assert len(opens) == small_log.counter_final("breaker_opens")

    def test_event_timestamps_are_monotone(self, small_log):
        times = [event.ts_s for event in small_log.events]
        assert times == sorted(times)

    def test_breaker_open_intervals_pair_up(self, small_log):
        intervals = small_log.breaker_open_intervals()
        assert intervals
        total = sum(len(spans) for spans in intervals.values())
        assert total == len(small_log.events_named("breaker_open"))
        for spans in intervals.values():
            for start, end in spans:
                assert 0.0 <= start < end <= small_log.makespan_s

    def test_crash_and_recovery_recorded(self, small_log):
        crashes = small_log.events_named("server_crash")
        recoveries = small_log.events_named("server_recover")
        assert len(crashes) == 1
        assert len(recoveries) == 1
        assert crashes[0].attrs["server"] == 0
        assert crashes[0].ts_s < recoveries[0].ts_s

    def test_hedges_recorded(self, small_log):
        hedged = [
            span for span in small_log.spans if span.first("hedge")
        ]
        assert len(hedged) == small_log.counter_final(
            "hedges_launched"
        )
        for span in hedged:
            # The losing copy settles with a cancel in the same span.
            assert span.all("cancel") or span.state != "complete"


def test_a_finished_run_leaves_no_engine_state_alive(instrumented_runner):
    """The collector outlives the run but holds no reference back into
    the engine: with the cyclic collector off, the engine state is
    freed as soon as the run returns."""
    gc.collect()
    gc.disable()
    try:
        telemetry = Telemetry(sample_interval_s=5.0)
        instrumented_runner(telemetry)
        states = [
            obj for obj in gc.get_objects() if type(obj) is _ColumnarState
        ]
    finally:
        gc.enable()
    assert states == []
    assert telemetry.log().makespan_s > 0.0
