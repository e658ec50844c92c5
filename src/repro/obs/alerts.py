"""Multi-window SLO burn-rate alert rules over telemetry streams.

Implements the Google-SRE multi-window, multi-burn-rate alerting
pattern: the **burn rate** at time ``t`` over a trailing window ``w``
is ``(bad / (good + bad)) / (1 - objective)`` — how many times faster
than sustainable the error budget was spent in that window (1.0 means
exactly on budget).  A rule fires when *both* its long window (the
significance test) and its short window (the "is it still happening"
reset) exceed the threshold, which pages quickly on fast burns
without staying red for hours after recovery.

"Good" events are completions within the model's deadline; "bad"
events are late completions, failures and admission sheds — the same
goodput definition :mod:`repro.serving.slo` reports, evaluated here
per terminal-event timestamp from the recorded spans so the burn is
a *time series*, not a run-level aggregate.  Windows with no traffic
burn nothing.

Evaluation is deterministic: burn rates are computed at every
multiple of ``step_s`` across the run (plus the makespan) and
consecutive firing steps merge into one :class:`AlertFiring`
interval.  :func:`repro.serving.slo.render_alerts` renders firings
next to the SLO tables; the ``alerts`` subcommand of
``python -m repro.obs`` evaluates them from a saved telemetry file.
"""

from __future__ import annotations

from bisect import bisect_right
from dataclasses import dataclass
from typing import Mapping, Sequence

from repro.obs.telemetry import MAX_GRID_STEPS, TelemetryLog
from repro.serving.faults import _require_finite
from repro.serving.slo import deadline_for


@dataclass(frozen=True)
class BurnRateRule:
    """One multi-window burn-rate alert rule.

    Attributes:
        name: rule label (appears in firings and reports).
        objective: goodput objective the error budget derives from
            (0.999 = three nines).
        long_window_s: trailing window whose burn must exceed the
            threshold for significance.
        short_window_s: shorter window that must *also* exceed it,
            so recovered incidents stop firing quickly.
        threshold: burn-rate multiple that fires the rule (14.4 with
            a 1h/5m pair is the classic "2% of a 30-day budget in
            one hour" page).
        severity: free-form label (``"page"``, ``"ticket"``).
    """

    name: str
    objective: float = 0.999
    long_window_s: float = 3600.0
    short_window_s: float = 300.0
    threshold: float = 14.4
    severity: str = "page"

    def __post_init__(self) -> None:
        _require_finite(
            "objective", self.objective, 0.0 < self.objective < 1.0,
            "in (0, 1)",
        )
        _require_finite(
            "short_window_s", self.short_window_s,
            self.short_window_s > 0.0, "positive",
        )
        _require_finite(
            "long_window_s", self.long_window_s,
            self.long_window_s >= self.short_window_s,
            "at least short_window_s",
        )
        _require_finite(
            "threshold", self.threshold, self.threshold > 0.0,
            "positive",
        )


DEFAULT_RULES = (
    BurnRateRule(
        name="fast-burn", objective=0.999,
        long_window_s=3600.0, short_window_s=300.0,
        threshold=14.4, severity="page",
    ),
    BurnRateRule(
        name="slow-burn", objective=0.999,
        long_window_s=6.0 * 3600.0, short_window_s=1800.0,
        threshold=6.0, severity="ticket",
    ),
)
"""The SRE-book 1h/5m page and 6h/30m ticket rule pair.

Sized for day-scale simulations; shorter runs should scale the
windows down with the run (the obs1 experiment uses minute-scale
windows over a ~half-hour spike).
"""


@dataclass(frozen=True)
class AlertFiring:
    """One contiguous interval during which a rule fired.

    ``peak_burn`` is the largest long-window burn rate observed at
    any evaluation step inside the interval.
    """

    rule: str
    severity: str
    start_s: float
    end_s: float
    peak_burn: float

    @property
    def duration_s(self) -> float:
        """How long the rule stayed firing."""
        return self.end_s - self.start_s


class _BurnSeries:
    """Prefix-summed good/bad terminal events for window queries."""

    def __init__(self, terminals: list[tuple[float, bool]]):
        terminals.sort(key=lambda item: item[0])
        self.times = [ts for ts, _ in terminals]
        self.good_prefix = [0]
        self.bad_prefix = [0]
        for _, good in terminals:
            self.good_prefix.append(
                self.good_prefix[-1] + (1 if good else 0)
            )
            self.bad_prefix.append(
                self.bad_prefix[-1] + (0 if good else 1)
            )

    def burn(self, t: float, window_s: float, objective: float) -> float:
        """Burn rate over the half-open window ``(t - w, t]``."""
        lo = bisect_right(self.times, t - window_s)
        hi = bisect_right(self.times, t)
        good = self.good_prefix[hi] - self.good_prefix[lo]
        bad = self.bad_prefix[hi] - self.bad_prefix[lo]
        total = good + bad
        if total == 0:
            return 0.0
        return (bad / total) / (1.0 - objective)


def _terminals(
    log: TelemetryLog, deadlines: Mapping[str, float] | float
) -> list[tuple[float, bool]]:
    """(timestamp, good?) per settled request, from the span table.

    Each model's deadline is resolved once, at its first completion.
    """
    limits: dict[str, float] = {}
    out: list[tuple[float, bool]] = []
    for _, model, submitted, state, ts in log.span_table.terminals():
        if state == "complete":
            limit = limits.get(model)
            if limit is None:
                limit = limits[model] = deadline_for(deadlines, model)
            out.append((ts, ts - submitted <= limit))
        else:
            out.append((ts, False))
    return out


def evaluate_alerts(
    log: TelemetryLog,
    deadlines: Mapping[str, float] | float,
    rules: Sequence[BurnRateRule] = DEFAULT_RULES,
    *,
    step_s: float | None = None,
) -> tuple[AlertFiring, ...]:
    """Evaluate burn-rate rules over a telemetry log.

    ``deadlines`` maps model name to its latency deadline in seconds
    (a scalar applies to every model), exactly as in
    :func:`repro.serving.slo.slo_report`.  Burn rates are evaluated
    at every multiple of ``step_s`` (default: the log's sampling
    interval) from 0 through the makespan; a rule fires at a step
    when both its windows exceed its threshold, and consecutive
    firing steps merge into one interval per rule.  Firings are
    returned ordered by rule declaration, then start time.  More than
    :data:`~repro.obs.telemetry.MAX_GRID_STEPS` steps raise.
    """
    if step_s is None:
        step_s = log.sample_interval_s
    _require_finite("step_s", step_s, step_s > 0, "positive")
    if log.makespan_s > MAX_GRID_STEPS * step_s:
        raise ValueError(
            f"step_s={step_s!r} over a {log.makespan_s!r} s makespan needs "
            f"{log.makespan_s / step_s:.3g} steps; at most "
            f"{MAX_GRID_STEPS:,} are allowed"
        )
    series = _BurnSeries(_terminals(log, deadlines))
    steps: list[float] = []
    k = 0
    while k * step_s < log.makespan_s:
        steps.append(k * step_s)
        k += 1
    steps.append(log.makespan_s)
    firings: list[AlertFiring] = []
    for rule in rules:
        start: float | None = None
        last: float = 0.0
        peak = 0.0
        for t in steps:
            long_burn = series.burn(
                t, rule.long_window_s, rule.objective
            )
            short_burn = series.burn(
                t, rule.short_window_s, rule.objective
            )
            firing = (
                long_burn > rule.threshold
                and short_burn > rule.threshold
            )
            if firing:
                if start is None:
                    start = t
                    peak = long_burn
                else:
                    peak = max(peak, long_burn)
                last = t
            elif start is not None:
                firings.append(AlertFiring(
                    rule=rule.name, severity=rule.severity,
                    start_s=start, end_s=last, peak_burn=peak,
                ))
                start = None
        if start is not None:
            firings.append(AlertFiring(
                rule=rule.name, severity=rule.severity,
                start_s=start, end_s=last, peak_burn=peak,
            ))
    return tuple(firings)
