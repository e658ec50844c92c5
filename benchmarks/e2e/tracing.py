"""Per-layer spans from the benchmark's side of the simulator's public API.

A :class:`Tracer` wraps the public functions in :data:`TRACED` at every
module binding that holds them (and methods on their class), records one
span per call and puts every original back when it is uninstalled.  The
simulator itself is not edited: the spans sit at the calls into each
layer.  Spans live in memory; :func:`chrome_trace` turns them into a
Chrome/Perfetto file once the run is over.

A span's self time is its duration minus the durations of its child
spans.  Calls are only recorded inside an op, so the untimed checks the
benchmark runs between ops stay out of the per-layer numbers.
"""

from __future__ import annotations

import functools
import importlib
import sys
import time
from contextlib import contextmanager, nullcontext
from dataclasses import dataclass
from typing import Iterator, NamedTuple


@dataclass(frozen=True)
class Traced:
    """A public function (or ``Class.method``) whose calls become spans."""

    span: str
    module: str
    qualname: str


TRACED: tuple[Traced, ...] = (
    Traced("distributed.plan_parallelism", "repro.distributed.planner",
           "plan_parallelism"),
    Traced("distributed.build_axis", "repro.distributed.planner",
           "build_axis"),
    Traced("distributed.partition", "repro.distributed.partition",
           "TensorParallel.partition"),
    Traced("distributed.build_timelines", "repro.distributed.timeline",
           "build_timelines"),
    Traced("profiler.profile_model", "repro.profiler.profiler",
           "profile_model"),
    Traced("kernels.compute_estimate", "repro.kernels.estimator",
           "CostEstimator.compute_estimate"),
    Traced("kernels.simulate_attention_cache", "repro.kernels.attention",
           "simulate_attention_cache"),
    Traced("serving.simulate_fleet", "repro.serving.fleet",
           "simulate_fleet"),
    Traced("serving.generate_traffic", "repro.serving.traffic",
           "generate_traffic"),
    Traced("serving.generate_requests", "repro.serving.workload",
           "generate_requests"),
    Traced("serving.chaos_compile", "repro.serving.chaos",
           "ChaosCampaign.compile"),
    Traced("serving.slo_report", "repro.serving.slo", "slo_report"),
    Traced("serving.domain_slo_report", "repro.serving.slo",
           "domain_slo_report"),
    Traced("serving.check_invariants", "repro.serving.chaos",
           "check_invariants"),
    Traced("obs.telemetry_log", "repro.obs.telemetry", "Telemetry.log"),
    Traced("obs.dumps_telemetry", "repro.obs.export", "dumps_telemetry"),
    Traced("obs.evaluate_alerts", "repro.obs.alerts", "evaluate_alerts"),
)

#: Root span of every op; its self time is the op's unattributed time.
OP_SPAN = "op"


class Span(NamedTuple):
    name: str
    start: float
    end: float
    parent: int | None
    op: int


def self_times(spans: list[Span]) -> list[float]:
    """Each span's duration minus the durations of its direct children."""
    child_time = [0.0] * len(spans)
    for span in spans:
        if span.parent is not None:
            child_time[span.parent] += span.end - span.start
    return [
        (span.end - span.start) - child_time[index]
        for index, span in enumerate(spans)
    ]


def aggregate(spans: list[Span]) -> dict[str, dict[str, float]]:
    """Per span name: ``calls``, inclusive ``total_s`` and ``self_s``.

    A recursive call's inclusive time is counted once per level, so
    ``total_s`` can exceed wall time for recursive names; ``self_s``
    never double counts.
    """
    table: dict[str, dict[str, float]] = {}
    for span, own in zip(spans, self_times(spans)):
        row = table.setdefault(
            span.name, {"calls": 0, "total_s": 0.0, "self_s": 0.0}
        )
        row["calls"] += 1
        row["total_s"] += span.end - span.start
        row["self_s"] += own
    return table


def _resolve(traced: Traced):
    """(owner, attribute, original) for one traced function."""
    owner = importlib.import_module(traced.module)
    *path, attribute = traced.qualname.split(".")
    for part in path:
        owner = getattr(owner, part)
    original = owner.__dict__[attribute]
    return owner, attribute, original


def _module_bindings(targets: dict[int, object]) -> Iterator[tuple]:
    """(module, name, value) of every module binding to one of ``targets``.

    ``targets`` maps ``id(obj)`` to ``obj``.
    """
    for module in list(sys.modules.values()):
        namespace = getattr(module, "__dict__", None)
        if not isinstance(namespace, dict):
            continue
        for name, value in list(namespace.items()):
            if id(value) in targets and targets[id(value)] is value:
                yield module, name, value


class Tracer:
    """Collects nested spans, grouped by op, while installed.

    Besides spans it keeps two counters that ratios need: profile-memo
    hits (a ``profile_model`` call that priced no kernel) and requests
    offered to ``simulate_fleet``.
    """

    def __init__(self) -> None:
        self.memo_hits = 0
        self.fleet_requests = 0
        self._records: list[list] = []
        self._stack: list[int] = []
        self._op = -1
        self._ops = 0
        self._installed: list[tuple[object, str, object]] = []
        self._wrappers: dict[int, object] = {}

    @property
    def spans(self) -> list[Span]:
        return [Span(*record) for record in self._records]

    # -- recording -----------------------------------------------------

    def _begin(self, name: str) -> list:
        parent = self._stack[-1] if self._stack else None
        self._stack.append(len(self._records))
        record = [name, 0.0, 0.0, parent, self._op]
        self._records.append(record)
        record[1] = time.perf_counter()
        return record

    def _end(self, record: list) -> None:
        record[2] = time.perf_counter()
        self._stack.pop()

    @contextmanager
    def span(self, name: str):
        """A span around a block, recorded only inside an op."""
        if self._op < 0:
            yield
            return
        record = self._begin(name)
        try:
            yield
        finally:
            self._end(record)

    @contextmanager
    def op(self):
        """Root span of one op; its children are the layers it called."""
        self._op = self._ops
        self._ops += 1
        record = self._begin(OP_SPAN)
        try:
            yield
        finally:
            self._end(record)
            self._op = -1

    # -- wrapping ------------------------------------------------------

    def _wrapper(self, traced: Traced, original):
        tracer = self
        name = traced.span
        counts_memo = name == "profiler.profile_model"
        counts_requests = name == "serving.simulate_fleet"
        if counts_memo:
            from repro.kernels.cache import cost_cache_stats

        @functools.wraps(original)
        def wrapper(*args, **kwargs):
            if tracer._op < 0:
                return original(*args, **kwargs)
            if counts_memo:
                lookups = cost_cache_stats().lookups
            record = tracer._begin(name)
            try:
                result = original(*args, **kwargs)
            finally:
                tracer._end(record)
            if counts_memo and cost_cache_stats().lookups == lookups:
                tracer.memo_hits += 1
            if counts_requests:
                tracer.fleet_requests += result.offered
            return result

        return wrapper

    def install(self) -> None:
        """Wrap each traced function on its class and at every binding."""
        if self._installed:
            raise RuntimeError("tracer is already installed")
        originals: dict[int, object] = {}
        for traced in TRACED:
            owner, attribute, original = _resolve(traced)
            wrapper = self._wrapper(traced, original)
            originals[id(original)] = original
            self._wrappers[id(original)] = wrapper
            if isinstance(owner, type):
                setattr(owner, attribute, wrapper)
                self._installed.append((owner, attribute, original))
        for module, name, original in list(_module_bindings(originals)):
            setattr(module, name, self._wrappers[id(original)])
            self._installed.append((module, name, original))

    def uninstall(self) -> None:
        """Put every original back, including bindings made while installed.

        A module imported while the tracer was installed may have bound a
        wrapper with ``from ... import``; the scan for wrappers finds it.
        """
        for owner, name, original in self._installed:
            setattr(owner, name, original)
        wrappers = {id(w): w for w in self._wrappers.values()}
        for module, name, wrapper in list(_module_bindings(wrappers)):
            setattr(module, name, wrapper.__wrapped__)
        self._installed = []
        self._wrappers = {}

    @contextmanager
    def installed(self):
        self.install()
        try:
            yield self
        finally:
            self.uninstall()


def null_span(name: str):
    """The span factory of an untraced run."""
    return nullcontext()


def chrome_trace(rounds: list[tuple[str, list[Span]]], meta: dict) -> dict:
    """Chrome/Perfetto trace of ``(label, spans)`` of each worker process.

    Each round (one worker process) is its own ``pid``; every span keeps
    its index, its parent's index and its op id in ``args``, so all
    spans of one op can be selected together.
    """
    events = []
    for pid, (label, spans) in enumerate(rounds, start=1):
        origin = min((span.start for span in spans), default=0.0)
        events.append({
            "name": "process_name", "ph": "M", "pid": pid, "tid": 1,
            "args": {"name": label},
        })
        for index, span in enumerate(spans):
            events.append({
                "name": span.name,
                "cat": span.name.split(".", 1)[0],
                "ph": "X",
                "pid": pid,
                "tid": 1,
                "ts": (span.start - origin) * 1e6,
                "dur": (span.end - span.start) * 1e6,
                "args": {"op": span.op, "span": index, "parent": span.parent},
            })
    return {
        "traceEvents": events,
        "displayTimeUnit": "ms",
        "otherData": meta,
    }
