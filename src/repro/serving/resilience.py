"""Overload protection and graceful degradation for the fleet.

The paper's cost model says TTI/TTV latency is dominated by knobs a
serving system can turn at runtime — diffusion step count, output
resolution, frame count — which makes *graceful degradation* a
first-class serving lever rather than an offline quality setting.
This module defines the four cooperating protection mechanisms the
fleet simulator (:mod:`repro.serving.fleet`) understands, each
individually toggleable and deterministic under the existing seed
contract (no randomness lives here at all; every decision is a pure
function of simulation state):

* **Admission control / load shedding** (:class:`AdmissionConfig`) —
  reject requests at the front door when the estimated queue wait
  exceeds a per-model budget, when the queue is deeper than a cap, or
  when a token-bucket rate limit is exhausted.  Shed requests are a
  new terminal state (``FleetReport.shed``): a fast, cheap "no" instead
  of a slow, expensive timeout.
* **Per-server circuit breakers** (:class:`CircuitBreakerConfig`) —
  after K failures inside a sliding window a server stops receiving
  batches (open); after a cooldown it admits one probe batch
  (half-open) whose outcome decides between closing and re-opening.
  Repeated crash or straggler hits become fast failover instead of
  repeated in-flight losses.
* **Hedged requests** (:class:`HedgeConfig`) — duplicate a request
  onto a second eligible server after a delay (fixed, or a running
  latency quantile); first completion wins and the loser is cancelled,
  with hedge-rate and wasted-work accounting.
* **Brownout / degraded serving modes** (:class:`BrownoutConfig`) — a
  per-model degradation ladder (:class:`DegradedRung`, e.g. Stable
  Diffusion at 50 -> 30 -> 20 denoising steps) whose rung latencies
  come from profiled latency tables of the re-configured model graphs.
  When backlog per active server crosses a threshold the pool steps
  down a rung; when it drains, the pool steps back up.  Every degraded
  completion carries its rung and quality, so the SLO report can show
  the *quality debt* the brownout bought its latency with.

:data:`RESILIENCE_OFF` (every mechanism ``None``) is the default of
:func:`repro.serving.fleet.simulate_fleet` and is guaranteed to
reproduce the unprotected simulator event-for-event.

The recorded fleet corpus toggles each mechanism independently and
pins the engine's output bit for bit.  A :class:`DegradedRung`'s
``latency_fns`` must be pure, like the pool's own — the engine
memoizes per rung.  All times are seconds (``_s`` suffix).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Mapping

from repro.serving.batching import BatchLatencyFn
from repro.serving.faults import _require_finite


@dataclass(frozen=True)
class AdmissionConfig:
    """Front-door load shedding: say no early instead of late.

    Checks run in a fixed order at every enqueue (arrivals and
    retries): token bucket first (arrivals only — a retry has already
    been paid for), then queue depth, then estimated wait.  The first
    violated check sheds the request with its reason
    (``"shed-rate"``, ``"shed-depth"``, ``"shed-wait"``).

    Attributes:
        max_queue_depth: shed when the routed pool already queues this
            many requests (``None`` disables).
        wait_budget_s: per-model budget on the *estimated* queue wait
            — a scalar applies to every model, a mapping only to the
            models it names.  The estimator is intentionally simple
            and documented: ``pool.load() * latency(batch=1)`` at the
            pool's current brownout rung.
        rate_per_s: token-bucket refill rate; the bucket is drained by
            one token per admitted arrival (``None`` disables).
        burst: bucket capacity (also its initial fill).
    """

    max_queue_depth: int | None = None
    wait_budget_s: Mapping[str, float] | float | None = None
    rate_per_s: float | None = None
    burst: float = 1.0

    def __post_init__(self) -> None:
        if self.max_queue_depth is not None and self.max_queue_depth < 0:
            raise ValueError("max_queue_depth must be non-negative")
        budgets = self.wait_budget_s
        if isinstance(budgets, Mapping):
            values = budgets.values()
        elif budgets is not None:
            values = (budgets,)
        else:
            values = ()
        for value in values:
            _require_finite("wait_budget_s", value, value > 0, "positive")
        if self.rate_per_s is not None:
            _require_finite(
                "rate_per_s", self.rate_per_s, self.rate_per_s > 0,
                "positive",
            )
        # A bucket below one token never admits a request.
        _require_finite("burst", self.burst, self.burst >= 1, ">= 1")

    def budget_for(self, model: str) -> float | None:
        """The wait budget applying to ``model`` (``None`` = no cap)."""
        if isinstance(self.wait_budget_s, Mapping):
            return self.wait_budget_s.get(model)
        return self.wait_budget_s


@dataclass(frozen=True)
class CircuitBreakerConfig:
    """Per-server failure breaker: closed -> open -> half-open.

    A *failure* is a crash while serving, or a completed batch whose
    realized latency exceeded ``slow_factor`` times its nominal
    latency (a straggler hit).  ``failure_threshold`` failures inside
    ``window_s`` open the breaker: the server stops receiving batches.
    After ``cooldown_s`` it turns half-open and admits exactly one
    probe batch — a clean completion closes the breaker, another
    failure re-opens it for a fresh cooldown.

    Attributes:
        failure_threshold: failures in the window that trip the breaker.
        window_s: sliding failure-counting window.
        cooldown_s: open duration before the half-open probe.
        slow_factor: realized/nominal latency ratio that counts a
            completed batch as a failure (``None`` = only crashes
            count).
    """

    failure_threshold: int = 3
    window_s: float = 60.0
    cooldown_s: float = 30.0
    slow_factor: float | None = 2.0

    def __post_init__(self) -> None:
        if self.failure_threshold < 1:
            raise ValueError("failure_threshold must be >= 1")
        for name in ("window_s", "cooldown_s"):
            value = getattr(self, name)
            _require_finite(name, value, value > 0, "positive")
        if self.slow_factor is not None:
            _require_finite(
                "slow_factor", self.slow_factor, self.slow_factor > 1, "> 1"
            )


@dataclass(frozen=True)
class HedgeConfig:
    """Tail-latency hedging: duplicate slow requests, first wins.

    A request still unfinished ``delay`` seconds after arrival is
    duplicated onto a second eligible pool (a different pool when one
    exists; batch assembly never co-schedules the two copies).  The
    first copy to complete wins; the loser is cancelled — dropped from
    its queue, or charged to ``hedge_wasted_s`` if already running.

    The delay is either fixed (``delay_s``) or adaptive
    (``quantile`` of the client latencies observed so far for the
    request's model, e.g. ``95.0`` for "hedge past the running p95";
    until ``min_samples`` completions exist no hedges launch).
    Exactly one of ``delay_s`` and ``quantile`` must be set.

    Attributes:
        delay_s: fixed hedge delay after arrival.
        quantile: running latency percentile used as the delay.
        min_samples: completions of a model required before
            quantile-based hedging activates for it.
    """

    delay_s: float | None = None
    quantile: float | None = None
    min_samples: int = 20

    def __post_init__(self) -> None:
        if (self.delay_s is None) == (self.quantile is None):
            raise ValueError(
                "set exactly one of delay_s and quantile"
            )
        if self.delay_s is not None:
            _require_finite(
                "delay_s", self.delay_s, self.delay_s > 0, "positive"
            )
        if self.quantile is not None:
            _require_finite(
                "quantile", self.quantile, 0 < self.quantile <= 100,
                "in (0, 100]",
            )
        if self.min_samples < 1:
            raise ValueError("min_samples must be >= 1")


@dataclass(frozen=True)
class DegradedRung:
    """One step of a brownout ladder: cheaper graphs, lower quality.

    Attributes:
        label: human-readable rung name (``"sd-30-steps"``).
        latency_fns: model name -> batch-latency function of the
            re-configured (degraded) model graph on the pool's
            hardware — profiled tables, not guessed scalars.  A model
            missing from a rung serves at the pool's nominal latency.
        quality: retained output quality in ``(0, 1)`` relative to the
            nominal configuration; a completion at this rung adds
            ``1 - quality`` to the model's quality debt.
    """

    label: str
    latency_fns: Mapping[str, BatchLatencyFn]
    quality: float

    def __post_init__(self) -> None:
        if not self.label:
            raise ValueError("rung needs a label")
        if not self.latency_fns:
            raise ValueError("rung must re-price at least one model")
        if not 0.0 < self.quality < 1.0:
            raise ValueError("rung quality must be in (0, 1)")


@dataclass(frozen=True)
class BrownoutConfig:
    """Backlog-driven stepping through a degradation ladder.

    Every ``check_interval_s`` each pool compares its backlog per
    active server against the thresholds: at or above
    ``step_down_backlog`` it descends one rung (serving the cheaper,
    lower-quality graphs), at or below ``step_up_backlog`` it climbs
    back one rung toward nominal.  ``dwell_s`` is the minimum time
    between rung changes per pool — the hysteresis that stops the
    ladder from oscillating every tick.

    Attributes:
        rungs: the ladder, least degraded first; rung 0 (nominal) is
            implicit and uses the pool's own ``latency_fns``.
        step_down_backlog: backlog per active server that triggers a
            step down.
        step_up_backlog: backlog per active server that allows a step
            back up (must be strictly below ``step_down_backlog``).
        check_interval_s: controller period.
        dwell_s: minimum seconds between rung changes per pool.
    """

    rungs: tuple[DegradedRung, ...]
    step_down_backlog: float = 4.0
    step_up_backlog: float = 1.0
    check_interval_s: float = 5.0
    dwell_s: float = 10.0

    def __post_init__(self) -> None:
        if not self.rungs:
            raise ValueError("brownout needs at least one rung")
        for name in ("step_up_backlog", "step_down_backlog", "dwell_s"):
            value = getattr(self, name)
            _require_finite(name, value, value >= 0, "non-negative")
        if not self.step_up_backlog < self.step_down_backlog:
            raise ValueError(
                "need 0 <= step_up_backlog < step_down_backlog"
            )
        _require_finite(
            "check_interval_s", self.check_interval_s,
            self.check_interval_s > 0, "positive",
        )
        qualities = [rung.quality for rung in self.rungs]
        if qualities != sorted(qualities, reverse=True):
            raise ValueError(
                "rung qualities must decrease down the ladder"
            )


@dataclass(frozen=True)
class ResilienceConfig:
    """The four protection mechanisms, each independently toggleable.

    ``None`` disables a mechanism entirely — no events are scheduled
    and no state is tracked for it, so :data:`RESILIENCE_OFF`
    reproduces the unprotected simulator event-for-event (the serve1
    golden trace pins this).
    """

    admission: AdmissionConfig | None = None
    breaker: CircuitBreakerConfig | None = None
    hedge: HedgeConfig | None = None
    brownout: BrownoutConfig | None = None

    @property
    def enabled(self) -> bool:
        """True when any mechanism is configured."""
        return (
            self.admission is not None
            or self.breaker is not None
            or self.hedge is not None
            or self.brownout is not None
        )


RESILIENCE_OFF = ResilienceConfig()


@dataclass(frozen=True)
class ShedRequest:
    """A request rejected by admission control (terminal state).

    ``pool`` is empty for rate-limit sheds (the bucket sits in front
    of routing); depth/wait sheds name the pool that was over budget.
    """

    request: object
    pool: str
    attempts: int
    reason: str
    shed_at_s: float


@dataclass(frozen=True)
class ResilienceStats:
    """Fleet-wide accounting of what the protection layer did.

    Attributes:
        shed: requests rejected by admission control.
        hedges_launched: duplicate copies actually spawned.
        hedge_wins: completions where the hedge copy finished first.
        hedge_wasted_s: server-seconds spent on cancelled copies.
        breaker_opens: closed/half-open -> open transitions.
        breaker_open_s: total server-seconds spent open.
        rung_completions: completions per brownout rung; index 0 is
            nominal quality, index k is ladder rung k.  Sums to the
            total completion count.
        rung_changes: brownout steps taken (down and up).
    """

    shed: int = 0
    hedges_launched: int = 0
    hedge_wins: int = 0
    hedge_wasted_s: float = 0.0
    breaker_opens: int = 0
    breaker_open_s: float = 0.0
    rung_completions: tuple[int, ...] = field(default=(0,))
    rung_changes: int = 0

    @property
    def degraded_completions(self) -> int:
        """Completions served below nominal quality (rung > 0)."""
        return sum(self.rung_completions[1:])
