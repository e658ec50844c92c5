"""Fault injection for the fleet simulator.

A characterization study can pretend servers never die; a deployable
system cannot.  This module defines the fault events the fleet
simulator understands — full crashes with a recovery time, and
stragglers (a server that keeps serving but at a slowdown multiplier,
the gray-failure mode that dominates real incident load) — plus the
retry/timeout policy that governs what happens to requests caught in a
fault.  Schedules are generated deterministically from a seed (same
contract as :mod:`repro.serving.workload`: one ``random.Random(seed)``
consumed in a fixed order), so a fault scenario is a reproducible,
diffable artifact rather than a flake.

Semantics, as implemented by :mod:`repro.serving.fleet`:

* **Crash** — at ``at_s`` the server drops its in-flight batch; those
  requests re-enter the queue (one retry attempt consumed, re-arriving
  after ``RetryPolicy.backoff_s``).  The server is unavailable until
  ``at_s + downtime_s``.
* **Straggler** — batches *launched* inside the window take
  ``slowdown``× their nominal latency.  Already-running batches are
  unaffected (the slowdown is applied at launch, like a clock-throttle
  taking effect between kernels).
* **Timeout** — a request whose queueing delay exceeds
  ``RetryPolicy.timeout_s`` abandons the queue; it retries (after
  backoff) while attempts remain, else it is recorded as failed.

The deterministic backoff jitter is seeded per request id, so retry
timing is a pure function of the inputs.
All times are seconds (``_s`` suffix), rates are per hour where named
so (``crash_rate_per_hour``).
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass


def _require_finite(
    name: str, value: float, ok: bool = True, rule: str = ""
) -> None:
    """Raise a ValueError naming ``name`` unless ``value`` is finite and
    ``ok``, the field's bound (described by ``rule``) as evaluated by
    the caller.

    ``nan < 0`` is False, so a bare bound lets NaN through: every float
    field of the fault, resilience, autoscaler, traffic, failure-domain,
    orchestration, telemetry and alert configs checks here.
    """
    if not (math.isfinite(value) and ok):
        bound = f" and {rule}" if rule else ""
        raise ValueError(f"{name} must be finite{bound}, got {value!r}")


@dataclass(frozen=True)
class Crash:
    """A full server failure with bounded recovery.

    Attributes:
        server: fleet-wide server id the fault targets.
        at_s: simulation time the server dies.
        downtime_s: how long until the server rejoins its pool.
    """

    server: int
    at_s: float
    downtime_s: float

    def __post_init__(self) -> None:
        _require_finite("at_s", self.at_s, self.at_s >= 0, "non-negative")
        _require_finite(
            "downtime_s", self.downtime_s, self.downtime_s > 0, "positive"
        )

    @property
    def recover_s(self) -> float:
        """Absolute time the server comes back."""
        return self.at_s + self.downtime_s


@dataclass(frozen=True)
class Straggler:
    """A slow-but-alive server window (gray failure).

    Attributes:
        server: fleet-wide server id the fault targets.
        at_s: window start.
        duration_s: window length.
        slowdown: latency multiplier for batches launched inside the
            window (must be > 1).
    """

    server: int
    at_s: float
    duration_s: float
    slowdown: float

    def __post_init__(self) -> None:
        _require_finite("at_s", self.at_s, self.at_s >= 0, "non-negative")
        _require_finite(
            "duration_s", self.duration_s, self.duration_s > 0, "positive"
        )
        _require_finite("slowdown", self.slowdown, self.slowdown > 1, "> 1")

    @property
    def until_s(self) -> float:
        """Absolute time the window closes."""
        return self.at_s + self.duration_s


@dataclass(frozen=True)
class RetryPolicy:
    """What happens to requests caught in a fault or a deep queue.

    The defaults (``multiplier=1.0``, ``jitter=0.0``) reproduce the
    original fixed-backoff behaviour exactly — recorded golden traces
    only change where a scenario opts into exponential backoff or
    jitter.

    Attributes:
        max_retries: additional attempts after the first (0 = fail on
            first fault).
        backoff_s: base delay before a retried request re-enters the
            queue (client backoff).
        timeout_s: maximum queueing delay before a request abandons its
            attempt; ``None`` disables queue timeouts.
        multiplier: exponential growth factor per failed attempt; the
            n-th failure backs off ``backoff_s * multiplier**(n-1)``.
        max_backoff_s: cap on any single backoff delay (``None`` =
            uncapped).
        jitter: in ``[0, 1]`` — blend weight of deterministic
            decorrelated jitter (seeded from the request id, so the
            reproducibility contract survives): 0 is the pure
            exponential schedule, 1 is pure decorrelated jitter.
    """

    max_retries: int = 2
    backoff_s: float = 1.0
    timeout_s: float | None = None
    multiplier: float = 1.0
    max_backoff_s: float | None = None
    jitter: float = 0.0

    def __post_init__(self) -> None:
        if self.max_retries < 0:
            raise ValueError(
                f"max_retries must be non-negative, got {self.max_retries!r}"
            )
        _require_finite(
            "backoff_s", self.backoff_s, self.backoff_s >= 0, "non-negative"
        )
        if self.timeout_s is not None:
            _require_finite(
                "timeout_s", self.timeout_s, self.timeout_s > 0, "positive"
            )
        _require_finite(
            "multiplier", self.multiplier, self.multiplier >= 1, ">= 1"
        )
        if self.max_backoff_s is not None:
            _require_finite(
                "max_backoff_s", self.max_backoff_s,
                self.max_backoff_s > 0, "positive",
            )
        _require_finite(
            "jitter", self.jitter, 0 <= self.jitter <= 1, "in [0, 1]"
        )

    @property
    def max_attempts(self) -> int:
        """Total tries a request gets (first attempt + retries)."""
        return self.max_retries + 1

    def backoff_for(self, failures: int, request_id: int) -> float:
        """Backoff before the attempt following failure ``failures``.

        Deterministic: the jitter stream is seeded from the request id
        alone, so a request backs off identically across runs (and
        across unrelated schedule changes — the draws of one request
        never perturb another's).  The jittered delay follows the
        decorrelated-jitter recursion ``d_n = uniform(base, 3 *
        d_{n-1})`` capped at ``max_backoff_s``; the returned delay is
        the ``jitter``-weighted blend of the exponential schedule and
        that draw.  With the defaults this returns ``backoff_s``
        bit-exactly.
        """
        if failures < 1:
            raise ValueError("failures must be >= 1")
        cap = (
            self.max_backoff_s if self.max_backoff_s is not None
            else float("inf")
        )
        # Clamp the exponent before exponentiating: float ** raises
        # OverflowError near 2**1024, and chaos campaigns legitimately
        # retry a request hundreds of times.  Below the clamp the value
        # is bit-identical to the unguarded arithmetic.
        exponent = failures - 1
        if exponent > _MAX_BACKOFF_DOUBLINGS and self.multiplier > 1.0:
            exponent = _MAX_BACKOFF_DOUBLINGS
        base = min(cap, self.backoff_s * self.multiplier ** exponent)
        if self.jitter == 0.0 or self.backoff_s == 0.0:
            return base
        # Tuple-of-ints seeds hash deterministically (PYTHONHASHSEED
        # only salts str/bytes), so this is stable across processes.
        rng = random.Random(0x5F3759DF ^ (request_id * 0x9E3779B97F4A7C15))
        delay = self.backoff_s
        for _ in range(min(failures, _MAX_BACKOFF_DOUBLINGS)):
            delay = min(
                cap,
                rng.uniform(
                    self.backoff_s, max(self.backoff_s, 3.0 * delay)
                ),
            )
        return (1.0 - self.jitter) * base + self.jitter * delay


_MAX_BACKOFF_DOUBLINGS = 64
"""Exponent clamp inside :meth:`RetryPolicy.backoff_for`.

``multiplier ** (failures - 1)`` overflows a float once ``failures``
reaches a few hundred (chaos campaigns and hypothesis runs legitimately
produce such counts); past 64 doublings the un-capped delay already
exceeds any practical ``max_backoff_s``, so clamping the exponent first
changes nothing observable while keeping the arithmetic finite.
"""


NO_RETRIES = RetryPolicy(max_retries=0, backoff_s=0.0, timeout_s=None)


@dataclass(frozen=True)
class FaultSchedule:
    """An immutable, ordered fault scenario for one simulation run."""

    crashes: tuple[Crash, ...] = ()
    stragglers: tuple[Straggler, ...] = ()

    def __post_init__(self) -> None:
        for events in (self.crashes, self.stragglers):
            times = [event.at_s for event in events]
            if times != sorted(times):
                raise ValueError("fault events must be time-ordered")

    @property
    def is_empty(self) -> bool:
        """True when the schedule injects nothing (the control run)."""
        return not self.crashes and not self.stragglers

    def for_server(self, server: int) -> "FaultSchedule":
        """The sub-schedule targeting one server.

        Empty schedules short-circuit to ``self`` — the chaos-off fast
        path allocates nothing per call.
        """
        if not self.crashes and not self.stragglers:
            return self
        return FaultSchedule(
            crashes=tuple(
                crash for crash in self.crashes if crash.server == server
            ),
            stragglers=tuple(
                event for event in self.stragglers
                if event.server == server
            ),
        )


FAULT_FREE = FaultSchedule()


CONTROL_KINDS = ("cordon", "uncordon")
"""Valid :class:`ControlAction` kinds.

``cordon`` drains a server: it stops taking new batches but finishes
the one in flight (and, unlike a crash, loses no work).  ``uncordon``
returns a cordoned or cold-standby server to service — promotion of a
warm standby is an ``uncordon`` of a server that started inactive.
"""

MARKER_KINDS = ("domain_down", "domain_detected", "domain_up")
"""Valid :class:`DomainMarker` kinds (domain-transition telemetry)."""


@dataclass(frozen=True)
class ControlAction:
    """One scheduled orchestration action on one server.

    Attributes:
        at_s: simulation time the action fires.
        kind: one of :data:`CONTROL_KINDS`.
        server: fleet-wide server id the action targets.
    """

    at_s: float
    kind: str
    server: int

    def __post_init__(self) -> None:
        if self.at_s < 0 or self.server < 0:
            raise ValueError("invalid control action")
        if self.kind not in CONTROL_KINDS:
            raise ValueError(
                f"unknown control kind {self.kind!r}; "
                f"known: {CONTROL_KINDS}"
            )


@dataclass(frozen=True)
class DomainMarker:
    """A domain-transition annotation the engine emits to telemetry.

    Markers are purely observational: they never read or write
    simulation state, so a plan with markers and no actions produces a
    bit-identical report to ``plan=None`` (the extra no-op heap events
    only advance the telemetry clock).

    Attributes:
        at_s: simulation time of the transition.
        kind: one of :data:`MARKER_KINDS`.
        domain: domain label (``"zone:2"``, ``"rack:0"``).
        event: campaign event kind that caused it (``"zone_outage"``).
    """

    at_s: float
    kind: str
    domain: str
    event: str

    def __post_init__(self) -> None:
        if self.at_s < 0:
            raise ValueError("marker time must be non-negative")
        if self.kind not in MARKER_KINDS:
            raise ValueError(
                f"unknown marker kind {self.kind!r}; "
                f"known: {MARKER_KINDS}"
            )


@dataclass(frozen=True)
class RecoveryPlan:
    """A compiled orchestration schedule for one simulation run.

    Produced by :func:`repro.serving.domains.compile_campaign` from a
    domain topology plus an
    :class:`~repro.serving.domains.OrchestrationConfig`; consumed by
    the fleet engine via ``simulate_fleet(..., plan=...)``.  Because
    fault schedules are known inputs, recovery orchestration compiles
    to *scheduled* control actions — warm-standby promotion at
    detection time, staggered re-admission after recovery — rather
    than runtime feedback, which keeps the engine deterministic with
    zero new decision logic.
    """

    actions: tuple[ControlAction, ...] = ()
    markers: tuple[DomainMarker, ...] = ()

    def __post_init__(self) -> None:
        times = [action.at_s for action in self.actions]
        if times != sorted(times):
            raise ValueError("control actions must be time-ordered")
        times = [marker.at_s for marker in self.markers]
        if times != sorted(times):
            raise ValueError("markers must be time-ordered")

    @property
    def is_empty(self) -> bool:
        """True when the plan schedules nothing."""
        return not self.actions and not self.markers


def generate_faults(
    *,
    servers: int,
    duration_s: float,
    seed: int = 0,
    crash_rate_per_hour: float = 0.0,
    mean_downtime_s: float = 60.0,
    straggler_rate_per_hour: float = 0.0,
    mean_straggler_s: float = 120.0,
    slowdown: float = 3.0,
) -> FaultSchedule:
    """Draw a deterministic fault schedule for a fleet.

    Crashes and stragglers are independent Poisson processes *per
    server* with the given hourly rates; downtimes and straggler
    windows are exponential around their means.  Draw order (the
    seeding contract): first the crash process for every server in
    ascending server-id order (arrival, then downtime, repeated), then
    the straggler process for every server (arrival, then duration) —
    so the same seed always yields the same schedule, and enabling
    stragglers does not perturb the crash times.
    """
    if not isinstance(servers, int) or servers < 1:
        raise ValueError(f"servers must be an int >= 1, got {servers!r}")
    # A NaN or infinite horizon would never end the arrival loops below.
    _require_finite("duration_s", duration_s, duration_s > 0, "positive")
    for name, rate in (
        ("crash_rate_per_hour", crash_rate_per_hour),
        ("straggler_rate_per_hour", straggler_rate_per_hour),
    ):
        _require_finite(name, rate, rate >= 0, "non-negative")
    for name, mean in (
        ("mean_downtime_s", mean_downtime_s),
        ("mean_straggler_s", mean_straggler_s),
    ):
        _require_finite(name, mean, mean > 0, "positive")
    _require_finite("slowdown", slowdown, slowdown > 1.0, "> 1")
    rng = random.Random(seed)
    crashes: list[Crash] = []
    stragglers: list[Straggler] = []
    if crash_rate_per_hour > 0:
        for server in range(servers):
            clock = 0.0
            while True:
                clock += rng.expovariate(crash_rate_per_hour / 3600.0)
                if clock >= duration_s:
                    break
                # Advance the clock by the *stored* (clamped) downtime:
                # the next crash draw starts after the recovery window
                # the simulator will actually observe, so consecutive
                # crashes on one server can never overlap.
                downtime = max(rng.expovariate(1.0 / mean_downtime_s), 1.0)
                crashes.append(
                    Crash(
                        server=server, at_s=clock, downtime_s=downtime,
                    )
                )
                clock += downtime
    for server in range(servers):
        if straggler_rate_per_hour > 0:
            clock = 0.0
            while True:
                clock += rng.expovariate(straggler_rate_per_hour / 3600.0)
                if clock >= duration_s:
                    break
                window = max(rng.expovariate(1.0 / mean_straggler_s), 1.0)
                stragglers.append(
                    Straggler(
                        server=server, at_s=clock,
                        duration_s=window, slowdown=slowdown,
                    )
                )
                clock += window
    crashes.sort(key=lambda event: (event.at_s, event.server))
    stragglers.sort(key=lambda event: (event.at_s, event.server))
    return FaultSchedule(
        crashes=tuple(crashes), stragglers=tuple(stragglers)
    )
