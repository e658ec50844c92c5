"""Traces stored as runs: replays stay unbuilt until events are read.

A replayed module call is one run in the trace, not one event per
recorded row.  These tests pin that the aggregate readers and the
distributed layer never build the replayed events, that the events
built on demand are the ones re-execution emits, and that reading
between appends yields the same list a one-shot read does.
"""

from __future__ import annotations

import pytest

from repro.distributed.partition import trace_classes
from repro.distributed.planner import (
    PlannerBasis,
    build_axis,
    plan_parallelism,
)
from repro.distributed.registry import machine_from_name
from repro.ir.context import AttentionImpl, ExecutionContext
from repro.ir.module import Module
from repro.ir.ops import Elementwise
from repro.ir.tensor import tensor
from repro.ir.trace import Replay, TraceEvent
from repro.kernels.estimator import CostEstimator
from repro.layers.linear import Linear
from repro.models.registry import build_model
from repro.profiler.profiler import profile_model

MACHINE = machine_from_name("dgx-a100-80g")


def test_readers_build_no_events(monkeypatch):
    built = []
    emitted = []
    init = TraceEvent.__init__
    emit = ExecutionContext.emit

    def counting_init(self, *args, **kwargs):
        built.append(1)
        init(self, *args, **kwargs)

    def counting_emit(self, *args, **kwargs):
        emitted.append(1)
        return emit(self, *args, **kwargs)

    monkeypatch.setattr(TraceEvent, "__init__", counting_init)
    monkeypatch.setattr(ExecutionContext, "emit", counting_emit)
    # A fresh instance, so the profile memo cannot answer.
    model = build_model("stable_diffusion")
    trace = profile_model(
        model, gpu=MACHINE.gpu, attention_impl=AttentionImpl.FLASH
    ).trace
    # Only emissions build events; the replayed rows stay runs.
    assert len(built) == len(emitted) < len(trace) // 10

    len(trace)
    trace.total_time_s, trace.total_flops, trace.total_moved_bytes
    trace.time_by_category()
    trace.times_s()
    list(trace.rows())
    trace_classes(trace)
    for tp in (1, 2, 4, 8):
        build_axis(trace, tp, MACHINE)
    # global_batch=1 keeps the search on the one profiled trace.
    result = plan_parallelism(
        model, machine=MACHINE, global_batch=1,
        basis=PlannerBasis(model, MACHINE),
    )
    assert result.stats["trace_profiles"] == 1
    assert len(built) == len(emitted)
    # Only the replayed anchors are built, each as the full build has it.
    anchors = trace.attention_anchors()
    emitted_ids = {id(run) for run in trace.runs_since(0)}
    replayed = [a for a in anchors if id(a) not in emitted_ids]
    assert replayed and len(built) == len(emitted) + len(replayed)
    events = trace.events
    assert anchors == [e for e in events if e.is_attention_anchor]
    assert list(trace.rows()) == [
        (e.module_path, e.op, e.cost, e.flags, e.repeat) for e in events
    ]


class Block(Module):
    """Two projections and an activation: memoized after two calls."""

    def __init__(self):
        super().__init__(name="block")
        self.up = Linear(64, 256, name="up")
        self.down = Linear(256, 64, name="down")

    def forward(self, ctx, x):
        h = self.up(ctx, x)
        ctx.emit(Elementwise("gelu", numel=h.numel))
        return self.down(ctx, h)


def _run(read_between: bool) -> tuple[ExecutionContext, list]:
    """Direct calls, a recording, then replays; optionally read events
    after each phase.  Returns the context and the lists read."""
    block = Block()
    ctx = ExecutionContext()
    x = tensor(2, 64)
    reads = []
    with ctx.named_scope("step0"):
        block(ctx, x)
    if read_between:
        reads.append(ctx.trace.events)
    ctx.emit(Elementwise("scale", numel=128))
    with ctx.named_scope("step1"):
        block(ctx, x)
    if read_between:
        reads.append(ctx.trace.events)
    for step in range(2, 5):
        with ctx.named_scope(f"step{step}"):
            block(ctx, x)
    ctx.emit(Elementwise("scale", numel=128))
    reads.append(ctx.trace.events)
    return ctx, reads


def test_events_extend_after_later_appends():
    ctx, reads = _run(read_between=True)
    one_shot, _ = _run(read_between=False)
    assert any(type(run) is Replay for run in ctx.trace.runs_since(0))
    events = ctx.trace.events
    # One list, extended in place, and a repeat read returns it.
    assert all(read is events for read in reads)
    assert ctx.trace.events is events
    assert events == one_shot.trace.events
    assert [event.index for event in events] == list(range(len(ctx.trace)))
    assert len(events) == len(ctx.trace)
    assert events[-1].start_s + events[-1].cost.time_s == ctx.elapsed_s


@pytest.mark.parametrize(
    "name", ["stable_diffusion", "muse", "make_a_video", "llama"]
)
def test_clock_ends_at_the_total_time(suite_profiles, name):
    # The built events' starts and the trace's total add the same costs
    # left to right, replayed rows one by one: never a subtotal.
    trace = suite_profiles[name][1].trace
    assert any(type(run) is Replay for run in trace.runs_since(0))
    assert trace.events[-1].end_s == trace.total_time_s


@pytest.mark.parametrize(
    "name", ["stable_diffusion", "muse", "make_a_video", "llama"]
)
def test_built_events_equal_an_uncached_run(suite_profiles, suite_models, name):
    cached = suite_profiles[name][1]
    # An estimator without the cost cache has no memo token, so the
    # context re-executes every module call instead of replaying.
    ctx = ExecutionContext(
        gpu=cached.gpu,
        attention_impl=cached.attention_impl,
        estimator=CostEstimator(cached.gpu, use_cache=False),
    )
    assert ctx.memo_token is None
    suite_models[name].run_inference(ctx, batch=1)
    uncached = ctx.trace
    assert all(type(run) is TraceEvent for run in uncached.runs_since(0))
    assert cached.trace.events == uncached.events
    assert len(cached.trace) == len(uncached)
    assert (
        cached.trace.total_time_s,
        cached.trace.total_flops,
        cached.trace.total_moved_bytes,
    ) == (
        uncached.total_time_s, uncached.total_flops, uncached.total_moved_bytes,
    )
    assert list(cached.trace.time_by_category().items()) == list(
        uncached.time_by_category().items()
    )
    assert cached.trace.times_s() == [e.cost.time_s for e in uncached.events]


def test_time_by_category_equals_a_per_row_loop(suite_profiles):
    # The totals index a list by category code; a dict keyed by the
    # category itself, filled row by row in trace order, must give the
    # same keys in the same order and the same float bits.
    for name, profiles in suite_profiles.items():
        for profile in profiles:
            expected: dict = {}
            for _, op, cost, _, _ in profile.trace.rows():
                expected[op.category] = (
                    expected.get(op.category, 0.0) + cost.time_s
                )
            got = profile.trace.time_by_category()
            assert [(key, value.hex()) for key, value in got.items()] == [
                (key, value.hex()) for key, value in expected.items()
            ], (name, profile.attention_impl)
