"""The span table: the writer's bytes, validation, and built-on-read spans."""

import json
import math
from collections import Counter

import pytest

from repro.experiments.obs1_attribution import tail_overlap_fraction
from repro.obs import (
    SPAN_STATES,
    RequestSpan,
    SpanEvent,
    Telemetry,
    TelemetryLog,
    dumps_telemetry,
    evaluate_alerts,
    loads_telemetry,
    telemetry_to_chrome_trace,
)
from repro.obs.cli import main
from repro.obs.spans import SPAN_SCHEMA
from tests.obs.span_reference import reference_dumps, reference_spans

QUOTED, ACCENTED, PERCENT = 'a"b', "zoné", "50%"
DEADLINES = {"sd": 8.0, "muse": 3.0}


def _ev(ts, state, **attrs):
    return SpanEvent(ts, state, attrs)


def _every_state_spans():
    """Spans covering every state, awkward strings and awkward floats."""
    return [
        RequestSpan(request_id=9, model="sd", events=(
            _ev(0.1 + 0.2, "submit"),
            _ev(0.1 + 0.2, "admit", pool=QUOTED, attempt=1, hedge=0),
            _ev(0.5, "dispatch", pool=QUOTED, server=0, batch=2,
                rung=1, hedge=0),
            _ev(0.75, "retry", reason="timeout", backoff_s=5e-324,
                attempt=2),
            _ev(0.75, "admit", pool=QUOTED, attempt=2, hedge=0),
            _ev(1.0, "hedge", pool=ACCENTED),
            _ev(1.0, "admit", pool=ACCENTED, attempt=2, hedge=1),
            _ev(1.0, "dispatch", pool=ACCENTED, server=1, batch=1,
                rung=0, hedge=1),
            _ev(2.5, "complete", pool=QUOTED, server=0, attempts=2,
                rung=1, hedged=1, hedge_win=0),
            _ev(2.5, "cancel"),
        )),
        RequestSpan(request_id=2, model=ACCENTED, events=(
            _ev(-0.0, "submit"),
            _ev(-0.0, "admit", pool=ACCENTED, attempt=1, hedge=0),
            _ev(1e16, "fail", pool=ACCENTED, reason="crash", attempts=3),
        )),
        RequestSpan(request_id=5, model="muse", events=(
            _ev(1.5, "submit"),
            _ev(1.5, "shed", pool=PERCENT, reason="queue_full"),
        )),
        RequestSpan(request_id=7, model="muse", events=(
            _ev(1.75, "submit"),
            _ev(1.75, "shed", pool="", reason="rate_limited"),
        )),
    ]


def _log(spans):
    return TelemetryLog.from_spans(
        spans, pools=(QUOTED, ACCENTED, PERCENT),
        server_pools=(0, 1, 2), sample_interval_s=5.0,
        makespan_s=1e16, events=(), series=(), histograms=(),
        meta={"scenario": "every state"},
    )


class TestWriter:
    def test_every_state_matches_the_reference(self):
        given = _every_state_spans()
        log = _log(given)
        assert {
            event.state for span in log.spans for event in span.events
        } == set(SPAN_STATES)
        assert log.spans == tuple(
            sorted(given, key=lambda span: span.request_id)
        )
        spans = reference_spans(log)
        assert log.spans == spans
        text = dumps_telemetry(log)
        assert text == reference_dumps(log, spans)
        assert loads_telemetry(text) == log
        assert dumps_telemetry(loads_telemetry(text)) == text

    def test_strings_are_json_encoded(self):
        text = dumps_telemetry(_log(_every_state_spans()))
        assert '"pool":"a\\"b"' in text
        assert '"pool":"zon\\u00e9"' in text
        assert '"pool":"50%"' in text
        assert '"model":"zon\\u00e9"' in text

    def test_table_values_are_plain(self):
        np = pytest.importorskip("numpy")
        span = RequestSpan(request_id=np.int64(4), model="sd", events=(
            _ev(np.float64(0.5), "submit"),
            _ev(np.float64(0.5), "retry", reason="crash",
                backoff_s=np.float64(0.25), attempt=np.int64(2)),
            _ev(1, "fail", pool="p", reason="crash", attempts=True),
        ))
        log = _log([span])
        for event in log.spans[0].events:
            assert type(event.ts_s) is float
            for value in event.attrs.values():
                assert type(value) in (int, float, str)
        assert '[0.5,"retry",{"attempt":2,"backoff_s":0.25,' in (
            dumps_telemetry(log)
        )


class TestValidation:
    @pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
    def test_non_finite_times_rejected(self, value):
        with pytest.raises(ValueError, match="span 3: submit ts_s"):
            _log([RequestSpan(3, "sd", (_ev(value, "submit"),))])
        with pytest.raises(ValueError, match="span 3: retry backoff_s"):
            _log([RequestSpan(3, "sd", (
                _ev(0.0, "submit"),
                _ev(1.0, "retry", reason="crash", backoff_s=value,
                    attempt=2),
            ))])

    def test_loader_rejects_non_finite_times(self):
        text = dumps_telemetry(_log(_every_state_spans()))
        bad = text.replace("[1.5,", "[NaN,", 1)
        with pytest.raises(
            ValueError, match="line 3: .*span 5: submit ts_s must be finite"
        ):
            loads_telemetry(bad)

    def test_attributes_follow_the_schema(self):
        with pytest.raises(ValueError, match="unknown state 'teleport'"):
            _log([RequestSpan(3, "sd", (_ev(0.0, "teleport"),))])
        with pytest.raises(ValueError, match="span 3: admit attributes"):
            _log([RequestSpan(3, "sd", (_ev(0.0, "admit", pool="p"),))])
        with pytest.raises(TypeError):
            _log([RequestSpan(3, "sd", (
                _ev(0.0, "admit", pool="p", attempt=1.5, hedge=0),
            ))])
        with pytest.raises(TypeError):
            _log([RequestSpan(3, "sd", (
                _ev(0.0, "shed", pool=0, reason="queue_full"),
            ))])

    def test_duplicate_request_rejected(self):
        span = RequestSpan(3, "sd", (_ev(0.0, "submit"),))
        with pytest.raises(ValueError, match="span 3: duplicate"):
            _log([span, span])

    def test_schema_names_are_unique_per_state(self):
        for state, attrs in SPAN_SCHEMA.items():
            names = [name for name, _ in attrs]
            assert len(names) == len(set(names)), state
            assert {kind for _, kind in attrs} <= {int, float, str}


def test_equality_compares_the_table(small_log):
    copy = loads_telemetry(dumps_telemetry(small_log))
    assert copy == small_log
    first = small_log.spans[0]
    changed = RequestSpan(first.request_id, first.model, first.events[:-1])
    edited = TelemetryLog.from_spans(
        (changed,) + small_log.spans[1:], pools=small_log.pools,
        server_pools=small_log.server_pools,
        sample_interval_s=small_log.sample_interval_s,
        makespan_s=small_log.makespan_s, events=small_log.events,
        series=small_log.series, histograms=small_log.histograms,
        meta=small_log.meta,
    )
    assert edited != small_log


def test_readers_build_no_spans(
    monkeypatch, instrumented_runner, tmp_path, capsys
):
    built = Counter()
    for cls in (SpanEvent, RequestSpan):
        def counting(self, *args, _init=cls.__init__, _name=cls.__name__,
                     **kwargs):
            built[_name] += 1
            _init(self, *args, **kwargs)

        monkeypatch.setattr(cls, "__init__", counting)
    telemetry = Telemetry(sample_interval_s=5.0)
    instrumented_runner(telemetry)
    log = telemetry.log()
    text = dumps_telemetry(log)
    evaluate_alerts(log, DEADLINES)
    tail_overlap_fraction(log, 1.0)
    telemetry_to_chrome_trace(log)
    assert loads_telemetry(text) == log
    path = tmp_path / "telemetry.jsonl"
    path.write_text(text)
    assert main(["summary", str(path)]) == 0
    assert "spans:" in capsys.readouterr().out
    assert not built

    # The spans subcommand builds only the spans it prints.
    assert main(["spans", str(path), "--state", "complete",
                 "--limit", "3"]) == 0
    assert "(3 of " in capsys.readouterr().out
    assert built["RequestSpan"] == 3
    built.clear()

    spans = log.spans
    assert built == Counter(
        RequestSpan=len(spans),
        SpanEvent=sum(len(span.events) for span in spans),
    )
    assert log.spans is spans
    before = built.copy()
    one = log.span(spans[3].request_id)
    assert one == spans[3]
    assert built - before == Counter(
        RequestSpan=1, SpanEvent=len(one.events)
    )


def test_summary_counts_terminal_states(small_log, tmp_path, capsys):
    path = tmp_path / "telemetry.jsonl"
    path.write_text(dumps_telemetry(small_log))
    main(["summary", str(path)])
    states = Counter(span.state for span in small_log.spans)
    expected = ", ".join(
        f"{state}={count}" for state, count in sorted(states.items())
    )
    assert f"spans: {len(small_log.spans)} ({expected})" in (
        capsys.readouterr().out
    )


def test_lines_parse_to_the_reference_records(small_log):
    for line, span in zip(
        dumps_telemetry(small_log).splitlines()[1:], small_log.spans
    ):
        assert json.loads(line) == {
            "kind": "span", "request": span.request_id,
            "model": span.model,
            "events": [
                [event.ts_s, event.state, dict(event.attrs)]
                for event in span.events
            ],
        }
