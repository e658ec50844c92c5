"""Request spans: per-request timestamped state transitions.

A span is the request-centric view of a fleet run — every state the
request moved through, with the simulated timestamp and the
pool/server/rung involved.  Hedged requests keep **one** span per
request id: the duplicate copy's events carry ``hedge: 1`` attributes
and the losing copy contributes a single ``cancel`` event, so the
span reads as one client-visible request with an internal race.

A run's spans are stored as a :class:`SpanTable`: one compact row per
span event, ``(state, ts_s, *attribute values)`` in the order
:data:`SPAN_SCHEMA` lists the state's attributes, grouped per request
and sorted by request id.  This module is the only one that knows the
row layout; :class:`RequestSpan` and :class:`SpanEvent` objects are
built from rows on demand, and the JSONL writer, the loader and the
readers (:meth:`SpanTable.terminals`, :meth:`SpanTable.first_ts`) work
on the rows.

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

import json
import math
import operator
from bisect import bisect_left
from dataclasses import dataclass
from typing import Iterable, Iterator, Mapping, Sequence

SPAN_SCHEMA: Mapping[str, tuple[tuple[str, type], ...]] = {
    "submit": (),
    "admit": (("pool", str), ("attempt", int), ("hedge", int)),
    "dispatch": (
        ("pool", str), ("server", int), ("batch", int), ("rung", int),
        ("hedge", int),
    ),
    "complete": (
        ("pool", str), ("server", int), ("attempts", int),
        ("rung", int), ("hedged", int), ("hedge_win", int),
    ),
    "retry": (
        ("reason", str), ("backoff_s", float), ("attempt", int),
    ),
    "hedge": (("pool", str),),
    "cancel": (),
    "shed": (("pool", str), ("reason", str)),
    "fail": (("pool", str), ("reason", str), ("attempts", int)),
}
"""Each span state's attributes, as ``(name, type)`` in row order.

The one attribute schema: span rows, :attr:`SpanEvent.attrs`, the
JSONL span records and the table in ``docs/OBSERVABILITY.md`` all
follow it.  Types are plain ``str``, ``int`` or ``float``; ``hedge``,
``hedged`` and ``hedge_win`` are 0/1 flags.
"""

SPAN_STATES = tuple(SPAN_SCHEMA)
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

_TERMINAL = frozenset(TERMINAL_STATES)
_NAMES = {
    state: tuple(name for name, _ in attrs)
    for state, attrs in SPAN_SCHEMA.items()
}


@dataclass(frozen=True)
class SpanEvent:
    """One timestamped state transition inside a request span.

    ``attrs`` is a small read-only mapping of strings/ints/floats —
    the pool, server, rung, attempt count or reason involved in the
    transition (:data:`SPAN_SCHEMA` lists them per state).  Treat it
    as immutable.
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


def _materialize(row: tuple) -> SpanEvent:
    """The public event for one ``(state, ts, *attrs)`` row."""
    state = row[0]
    return SpanEvent(row[1], state, dict(zip(_NAMES[state], row[2:])))


def _plain_float(value: object) -> float:
    if isinstance(value, (str, bytes)):
        raise TypeError(f"expected a number, got {value!r}")
    return float(value)


def _plain_str(value: object) -> str:
    if not isinstance(value, str):
        raise TypeError(f"expected a string, got {value!r}")
    return str(value)


_PLAIN = {int: operator.index, float: _plain_float, str: _plain_str}


def _row(request_id: int, ts: object, state: object, attrs) -> tuple:
    """One validated row from an event's time, state and attributes."""
    if state not in SPAN_SCHEMA:
        raise ValueError(
            f"span {request_id}: unknown state {state!r}; known: "
            f"{', '.join(SPAN_STATES)}"
        )
    schema = SPAN_SCHEMA[state]
    if set(attrs) != set(_NAMES[state]):
        raise ValueError(
            f"span {request_id}: {state} attributes {sorted(attrs)} "
            f"are not {sorted(_NAMES[state])}"
        )
    row = (state, _plain_float(ts), *(
        _PLAIN[kind](attrs[name]) for name, kind in schema
    ))
    for (name, kind), value in zip((("ts_s", float),) + schema, row[1:]):
        if kind is float and not math.isfinite(value):
            raise ValueError(
                f"span {request_id}: {state} {name} must be finite, "
                f"got {value!r}"
            )
    return row


class SpanTable:
    """A run's spans as compact rows, grouped per request.

    ``request_ids`` ascend strictly; ``models[i]`` and ``rows[i]`` (a
    list of ``(state, ts_s, *attrs)`` tuples in processing order, with
    attributes in :data:`SPAN_SCHEMA` order) belong to
    ``request_ids[i]``.  Every value is a plain ``int``, ``float`` or
    ``str``.  ``==`` compares the rows.
    """

    __slots__ = ("request_ids", "models", "rows")

    def __init__(
        self,
        request_ids: Sequence[int],
        models: Sequence[str],
        rows: Sequence[list[tuple]],
    ):
        self.request_ids = tuple(request_ids)
        self.models = tuple(models)
        self.rows = tuple(rows)

    @staticmethod
    def group(
        request_id: int, model: str, events: Iterable[tuple]
    ) -> tuple[int, str, list[tuple]]:
        """One request's validated ``(request_id, model, rows)``.

        Each event is a ``(ts_s, state, attrs)`` triple.  Raises a
        ``ValueError`` naming the request for an unknown state,
        attributes that are not the state's :data:`SPAN_SCHEMA`
        names, or a ``ts_s`` or ``backoff_s`` that is not finite, and
        a ``TypeError`` for a value of the wrong type.
        """
        request_id = operator.index(request_id)
        return request_id, _plain_str(model), [
            _row(request_id, ts, state, attrs)
            for ts, state, attrs in events
        ]

    @classmethod
    def from_groups(
        cls, groups: Iterable[tuple[int, str, list[tuple]]]
    ) -> SpanTable:
        """The table of :meth:`group` results, sorted by request id.

        A request id that appears twice raises a ``ValueError``.
        """
        ordered = sorted(groups, key=lambda group: group[0])
        for before, after in zip(ordered, ordered[1:]):
            if before[0] == after[0]:
                raise ValueError(f"span {after[0]}: duplicate request id")
        if not ordered:
            return cls((), (), ())
        return cls(*zip(*ordered))

    @classmethod
    def from_spans(cls, spans: Iterable[RequestSpan]) -> SpanTable:
        """The validated table of built spans (see :meth:`group`)."""
        return cls.from_groups(
            cls.group(span.request_id, span.model, (
                (event.ts_s, event.state, event.attrs)
                for event in span.events
            ))
            for span in spans
        )

    def __len__(self) -> int:
        return len(self.request_ids)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, SpanTable):
            return NotImplemented
        return (
            self.request_ids == other.request_ids
            and self.models == other.models
            and self.rows == other.rows
        )

    def __repr__(self) -> str:
        events = sum(map(len, self.rows))
        return f"SpanTable({len(self)} spans, {events} events)"

    def _span_at(self, index: int) -> RequestSpan:
        return RequestSpan(
            self.request_ids[index], self.models[index],
            tuple(map(_materialize, self.rows[index])),
        )

    def spans(self) -> tuple[RequestSpan, ...]:
        """Every span, built, in request-id order."""
        return tuple(map(self._span_at, range(len(self))))

    def span(self, request_id: int) -> RequestSpan:
        """One request's built span; ``ValueError`` if it has none."""
        index = bisect_left(self.request_ids, request_id)
        if index == len(self) or self.request_ids[index] != request_id:
            raise ValueError(
                f"no span for request {request_id} "
                f"({len(self)} spans recorded)"
            )
        return self._span_at(index)

    def terminals(self) -> Iterator[tuple[int, str, float, str, float]]:
        """``(index, model, submitted_s, state, ts_s)`` per settled span.

        ``state`` and ``ts_s`` are the first terminal row's;
        ``submitted_s`` is the first row's time.  Spans without a
        terminal row are skipped.
        """
        terminal = _TERMINAL
        for index, (model, rows) in enumerate(zip(self.models, self.rows)):
            for row in rows:
                if row[0] in terminal:
                    yield index, model, rows[0][1], row[0], row[1]
                    break

    def first_ts(self, index: int, state: str) -> float | None:
        """Time of the ``index``-th span's first ``state`` row, if any."""
        for row in self.rows[index]:
            if row[0] == state:
                return row[1]
        return None

    def json_lines(self) -> Iterator[str]:
        """One canonical JSON ``span`` record per request, in order.

        The bytes equal ``repro.jsonl.canonical`` of the record
        ``{"kind": "span", "request": id, "model": model, "events":
        [[ts_s, state, attrs], ...]}``: per-state ``%`` templates
        carry the keys in sorted order, floats go through ``repr``
        (the JSON encoder's ``float.__repr__``, equal for the finite
        plain floats a table holds), ints through ``%d``, and each
        distinct string is JSON-encoded once.
        """
        strings = _Encoded()
        templates: dict[object, str] = {}
        plans = _WRITE_PLANS
        for request_id, model, rows in zip(
            self.request_ids, self.models, self.rows
        ):
            events = []
            for row in rows:
                key_of, args_of = plans[row[0]]
                key = key_of(row)
                template = templates.get(key)
                if template is None:
                    template = templates[key] = _template(key, strings)
                events.append(template % args_of(row))
            yield '{"events":[%s],"kind":"span","model":%s,"request":%d}' % (
                ",".join(events), strings[model], request_id,
            )


class _Encoded(dict):
    """Each string's JSON encoding, computed on first use."""

    def __missing__(self, text: str) -> str:
        encoded = self[text] = json.dumps(text)
        return encoded


def _json_order(state: str) -> list[tuple[int, str, type]]:
    """``(row index, name, type)`` of a state's attributes, by name."""
    return sorted(
        (
            (index + 2, name, kind)
            for index, (name, kind) in enumerate(SPAN_SCHEMA[state])
        ),
        key=lambda attr: attr[1],
    )


def _write_plan(state: str):
    attrs = _json_order(state)
    strings = [index for index, _, kind in attrs if kind is str]
    numbers = [index for index, _, kind in attrs if kind is not str]
    return (
        operator.itemgetter(0, *strings),
        operator.itemgetter(1, *numbers),
    )


_WRITE_PLANS = {state: _write_plan(state) for state in SPAN_SCHEMA}
"""Per state: the row's template key (state and strings) and its
number arguments (``ts_s``, then numbers in key order)."""

_FORMATS = {int: "%d", float: "%r"}


def _template(key: str | tuple, strings: _Encoded) -> str:
    """The ``%`` template of one state with its strings filled in."""
    state, *values = (key,) if isinstance(key, str) else key
    filled = iter(values)
    fields = []
    for _, name, kind in _json_order(state):
        value = (
            strings[next(filled)].replace("%", "%%") if kind is str
            else _FORMATS[kind]
        )
        fields.append(f"{json.dumps(name)}:{value}")
    return f"[%r,{json.dumps(state)},{{{','.join(fields)}}}]"
