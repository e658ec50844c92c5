"""Multi-window burn-rate alert semantics on synthetic spans."""

import math

import pytest

from repro.obs import (
    AlertFiring,
    BurnRateRule,
    DEFAULT_RULES,
    RequestSpan,
    SpanEvent,
    TelemetryLog,
    evaluate_alerts,
)
from repro.serving.slo import render_alerts, slo_report

DEADLINES = {"sd": 5.0}
RULE = BurnRateRule(
    name="test-page", objective=0.9,
    long_window_s=200.0, short_window_s=20.0,
    threshold=3.0, severity="page",
)


def _complete(rid, ts, model="sd", latency=0.5):
    return RequestSpan(
        request_id=rid, model=model,
        events=(
            SpanEvent(ts - latency, "submit", {}),
            SpanEvent(ts, "complete", {
                "pool": "p", "server": 0, "attempts": 1, "rung": 0,
                "hedged": 0, "hedge_win": 0,
            }),
        ),
    )


def _fail(rid, ts, model="sd"):
    return RequestSpan(
        request_id=rid, model=model,
        events=(
            SpanEvent(ts - 1.0, "submit", {}),
            SpanEvent(ts, "fail", {
                "pool": "p", "reason": "crash", "attempts": 1,
            }),
        ),
    )


def _log(spans, makespan=600.0):
    return TelemetryLog.from_spans(
        spans, pools=("p",), server_pools=(0,),
        sample_interval_s=10.0, makespan_s=makespan,
        events=(), series=(), histograms=(),
    )


class TestRuleValidation:
    def test_objective_bounds(self):
        with pytest.raises(ValueError, match="objective"):
            BurnRateRule(name="x", objective=1.0)

    def test_window_ordering(self):
        with pytest.raises(ValueError, match="window"):
            BurnRateRule(
                name="x", long_window_s=10.0, short_window_s=60.0
            )

    def test_threshold_positive(self):
        with pytest.raises(ValueError, match="threshold"):
            BurnRateRule(name="x", threshold=0.0)

    @pytest.mark.parametrize("field", [
        "objective", "long_window_s", "short_window_s", "threshold",
    ])
    def test_fields_must_be_finite(self, field):
        for value in (math.nan, math.inf):
            with pytest.raises(
                ValueError, match=f"{field} must be finite"
            ):
                BurnRateRule(name="x", **{field: value})

    def test_default_rules_are_the_sre_pair(self):
        assert [rule.severity for rule in DEFAULT_RULES] == [
            "page", "ticket",
        ]


class TestEvaluate:
    def _steady_good(self):
        return [
            _complete(rid, 5.0 + 10.0 * rid)
            for rid in range(60)
        ]

    def test_healthy_run_never_fires(self):
        firings = evaluate_alerts(
            _log(self._steady_good()), DEADLINES, (RULE,)
        )
        assert firings == ()

    def test_incident_fires_once_and_short_window_resets(self):
        spans = self._steady_good() + [
            _fail(1000 + index, 101.0 + index) for index in range(20)
        ]
        firings = evaluate_alerts(_log(spans), DEADLINES, (RULE,))
        assert len(firings) == 1
        firing = firings[0]
        assert isinstance(firing, AlertFiring)
        assert firing.severity == "page"
        assert 100.0 <= firing.start_s <= 120.0
        # The long window still burns hot for hundreds of seconds;
        # the short window ends the page as soon as errors stop.
        assert firing.end_s <= 140.0
        assert firing.duration_s == firing.end_s - firing.start_s
        assert firing.peak_burn > RULE.threshold

    def test_late_completion_is_bad(self):
        spans = [
            _complete(rid, 5.0 + 10.0 * rid, latency=50.0)
            for rid in range(60)
        ]
        firings = evaluate_alerts(_log(spans), DEADLINES, (RULE,))
        assert firings
        assert firings[0].start_s <= 20.0
        assert firings[0].end_s == 600.0

    def test_scalar_deadline(self):
        spans = [_complete(0, 10.0, latency=2.0)]
        assert evaluate_alerts(_log(spans), 1.0, (RULE,))
        assert not evaluate_alerts(_log(spans), 3.0, (RULE,))

    def test_missing_model_deadline_raises(self):
        spans = [_complete(0, 10.0, model="muse")]
        with pytest.raises(ValueError, match="no deadline"):
            evaluate_alerts(_log(spans), DEADLINES, (RULE,))
        # A deadline that is present must also be finite and positive.
        for deadlines in (
            {"muse": -1.0}, {"muse": 0.0}, {"muse": float("nan")},
            {"muse": float("inf")}, -1.0, float("nan"),
        ):
            with pytest.raises(ValueError, match="'muse' must be finite"):
                evaluate_alerts(_log(spans), deadlines, (RULE,))

    def test_step_must_be_positive(self):
        with pytest.raises(ValueError, match="step_s"):
            evaluate_alerts(
                _log([]), DEADLINES, (RULE,), step_s=0.0
            )

    @pytest.mark.parametrize("value", [math.nan, math.inf])
    def test_step_must_be_finite(self, value):
        with pytest.raises(ValueError, match="step_s must be finite"):
            evaluate_alerts(
                _log([]), DEADLINES, (RULE,), step_s=value
            )

    def test_empty_windows_burn_nothing(self):
        assert evaluate_alerts(_log([]), DEADLINES, (RULE,)) == ()

    def test_step_count_is_bounded(self):
        with pytest.raises(
            ValueError, match=r"step_s=1e-09 over a 600.0 s makespan "
            r"needs 6e\+11 steps; at most 1,000,000"
        ):
            evaluate_alerts(_log([]), DEADLINES, (RULE,), step_s=1e-9)
        # A day at 0.1 s (864,000 steps) stays legal.
        assert evaluate_alerts(
            _log([], makespan=86400.0), DEADLINES, (), step_s=0.1
        ) == ()


class TestRenderAlerts:
    def test_no_firings(self):
        assert render_alerts(()) == "alerts: none fired"

    def test_firing_lines(self):
        text = render_alerts((
            AlertFiring(
                rule="fast-burn", severity="page",
                start_s=110.0, end_s=130.0, peak_burn=7.9,
            ),
        ))
        assert "fast-burn [page]" in text
        assert "110.0s..130.0s" in text
        assert "7.9x" in text

    def test_slo_report_appends_alerts(self, small_run):
        report, log = small_run
        deadlines = {"sd": 8.0, "muse": 3.0}
        slo = slo_report(report, deadlines)
        firings = evaluate_alerts(log, deadlines, (RULE,))
        rendered = slo.render(alerts=firings)
        assert rendered.startswith(slo.render())
        assert render_alerts(firings) in rendered
