"""Request spans: per-request timestamped state transitions.

A span is the request-centric view of a fleet run — every state the
request moved through, with the simulated timestamp and the
pool/server/rung involved.  Hedged requests keep **one** span per
request id: the duplicate copy's events carry ``hedge: 1`` attributes
and the losing copy contributes a single ``cancel`` event, so the
span reads as one client-visible request with an internal race.

The well-formedness contract (pinned by a hypothesis property suite
and re-checked independently by ``tools/check_jsonl.py``):

* the first event is ``submit`` and timestamps are monotone
  non-decreasing;
* exactly one terminal event (:data:`TERMINAL_STATES`) appears;
* after the terminal event only ``cancel`` events may follow (the
  losing hedge copy settles in the same event cascade that completed
  the winner — never earlier than the terminal timestamp).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Mapping

SPAN_STATES = (
    "submit",
    "admit",
    "dispatch",
    "complete",
    "retry",
    "hedge",
    "cancel",
    "shed",
    "fail",
)
"""Every state a span event may carry, in rough lifecycle order.

``submit`` is the arrival; ``admit`` is a successful enqueue (one per
attempt — retries and hedge copies re-admit); ``dispatch`` is batch
launch on a server; ``retry`` is an abandoned attempt (crash or
timeout) with backoff scheduled; ``hedge`` marks the duplicate copy
being launched; ``cancel`` marks a copy losing the hedge race (or
being superseded while its twin survives); ``complete``/``fail``/
``shed`` are the request's terminal states.
"""

TERMINAL_STATES = ("complete", "fail", "shed")
"""States that settle a request; exactly one appears per span."""


@dataclass(frozen=True)
class SpanEvent:
    """One timestamped state transition inside a request span.

    ``attrs`` is a small read-only mapping of strings/ints/floats —
    the pool, server, rung, attempt count or reason involved in the
    transition (see ``docs/OBSERVABILITY.md`` for the per-state
    attribute schema).  Treat it as immutable.
    """

    ts_s: float
    state: str
    attrs: Mapping[str, object]


@dataclass(frozen=True)
class RequestSpan:
    """The full recorded lifecycle of one request.

    Events are in simulation processing order, which is also
    timestamp order (the well-formedness property).  ``request_id``
    and ``model`` identify the request; hedged copies share the span.
    """

    request_id: int
    model: str
    events: tuple[SpanEvent, ...]

    @property
    def terminal(self) -> SpanEvent | None:
        """The terminal event, or ``None`` for a malformed span."""
        for event in self.events:
            if event.state in TERMINAL_STATES:
                return event
        return None

    @property
    def state(self) -> str:
        """The span's terminal state (``"open"`` if none recorded)."""
        terminal = self.terminal
        return terminal.state if terminal is not None else "open"

    @property
    def submitted_at_s(self) -> float:
        """Arrival timestamp (the ``submit`` event's time)."""
        return self.events[0].ts_s

    @property
    def latency_s(self) -> float | None:
        """Submit-to-terminal latency; ``None`` for open spans."""
        terminal = self.terminal
        if terminal is None:
            return None
        return terminal.ts_s - self.submitted_at_s

    def first(self, state: str) -> SpanEvent | None:
        """The first event with the given state, if any."""
        for event in self.events:
            if event.state == state:
                return event
        return None

    def all(self, state: str) -> tuple[SpanEvent, ...]:
        """Every event with the given state, in order."""
        return tuple(
            event for event in self.events if event.state == state
        )


def validate_span(span: RequestSpan) -> list[str]:
    """Check span well-formedness; returns human-readable violations.

    An empty list means the span satisfies the contract documented in
    the module docstring.  This is the reference implementation the
    property suite asserts against and
    ``tools/check_jsonl.py`` mirrors line-by-line.
    """
    errors: list[str] = []
    if not span.events:
        return [f"span {span.request_id}: no events"]
    if span.events[0].state != "submit":
        errors.append(
            f"span {span.request_id}: first event is "
            f"{span.events[0].state!r}, not 'submit'"
        )
    terminal_at: float | None = None
    terminal_count = 0
    last_ts = span.events[0].ts_s
    for event in span.events:
        if event.state not in SPAN_STATES:
            errors.append(
                f"span {span.request_id}: unknown state "
                f"{event.state!r}"
            )
        if event.ts_s < last_ts:
            errors.append(
                f"span {span.request_id}: timestamp {event.ts_s} "
                f"goes backwards (previous {last_ts})"
            )
        last_ts = event.ts_s
        if terminal_at is not None and event.state != "cancel":
            errors.append(
                f"span {span.request_id}: {event.state!r} event "
                f"after terminal state"
            )
        if event.state in TERMINAL_STATES:
            terminal_count += 1
            terminal_at = event.ts_s
    if terminal_count != 1:
        errors.append(
            f"span {span.request_id}: {terminal_count} terminal "
            f"events (want exactly 1)"
        )
    return errors
