"""Span model and well-formedness validator."""

from repro.obs import (
    SPAN_STATES,
    TERMINAL_STATES,
    RequestSpan,
    SpanEvent,
)
from tests.obs.span_reference import validate_span


def _span(*events):
    return RequestSpan(
        request_id=7, model="sd",
        events=tuple(SpanEvent(ts, state, attrs or {})
                     for ts, state, attrs in events),
    )


class TestSpanHelpers:
    def test_lifecycle_accessors(self):
        span = _span(
            (1.0, "submit", None),
            (1.0, "admit", {"pool": "a100"}),
            (2.0, "dispatch", {"server": 0}),
            (4.5, "complete", None),
        )
        assert span.state == "complete"
        assert span.submitted_at_s == 1.0
        assert span.latency_s == 3.5
        assert span.terminal.ts_s == 4.5
        assert span.first("dispatch").attrs == {"server": 0}
        assert span.first("retry") is None
        assert len(span.all("admit")) == 1

    def test_open_span(self):
        span = _span((1.0, "submit", None), (1.0, "admit", None))
        assert span.state == "open"
        assert span.latency_s is None
        assert span.terminal is None

    def test_state_constants(self):
        assert set(TERMINAL_STATES) <= set(SPAN_STATES)


class TestValidateSpan:
    def test_well_formed(self):
        span = _span(
            (0.0, "submit", None),
            (0.0, "admit", None),
            (1.0, "dispatch", None),
            (3.0, "complete", None),
        )
        assert validate_span(span) == []

    def test_empty_span(self):
        assert validate_span(_span()) == ["span 7: no events"]

    def test_first_event_must_be_submit(self):
        errors = validate_span(
            _span((0.0, "admit", None), (1.0, "complete", None))
        )
        assert any("not 'submit'" in error for error in errors)

    def test_backwards_timestamp(self):
        errors = validate_span(_span(
            (2.0, "submit", None),
            (1.0, "dispatch", None),
            (3.0, "complete", None),
        ))
        assert any("goes backwards" in error for error in errors)

    def test_exactly_one_terminal(self):
        errors = validate_span(_span(
            (0.0, "submit", None),
            (1.0, "complete", None),
            (2.0, "complete", None),
        ))
        assert any("terminal events" in error for error in errors)
        errors = validate_span(_span((0.0, "submit", None)))
        assert any("0 terminal" in error for error in errors)

    def test_only_cancel_after_terminal(self):
        errors = validate_span(_span(
            (0.0, "submit", None),
            (1.0, "complete", None),
            (2.0, "dispatch", None),
        ))
        assert any("after terminal" in error for error in errors)
        # The hedged-loser pattern is legal: cancel after complete.
        assert validate_span(_span(
            (0.0, "submit", None),
            (1.0, "complete", None),
            (1.0, "cancel", None),
        )) == []

    def test_unknown_state(self):
        errors = validate_span(_span(
            (0.0, "submit", None),
            (1.0, "teleport", None),
            (2.0, "complete", None),
        ))
        assert any("unknown state" in error for error in errors)


class TestRecordedSpans:
    def test_every_recorded_span_is_well_formed(self, small_log):
        for span in small_log.spans:
            assert validate_span(span) == []

    def test_spans_sorted_and_settled(self, small_log):
        rids = [span.request_id for span in small_log.spans]
        assert rids == sorted(rids)
        assert all(
            span.state in TERMINAL_STATES for span in small_log.spans
        )
