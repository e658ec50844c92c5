"""ExecutionContext and Trace behaviour tests."""

import math
import re

import pytest

from repro.ir.context import AttentionImpl, ExecutionContext
from repro.ir.ops import Elementwise, Gemm, OpCategory
from repro.ir.trace import KernelCost, Trace


def make_cost(time_s=1.0, flops=10.0, moved=20.0) -> KernelCost:
    return KernelCost(
        time_s=time_s,
        compute_time_s=time_s / 2,
        memory_time_s=time_s / 3,
        launch_time_s=time_s / 10,
        flops=flops,
        moved_bytes=moved,
        limiter="compute",
    )


class TestKernelCost:
    def test_scaled_multiplies_everything(self):
        cost = make_cost().scaled(3)
        assert cost.time_s == 3.0
        assert cost.flops == 30.0
        assert cost.moved_bytes == 60.0
        assert cost.launch_time_s == pytest.approx(0.3)

    def test_scaled_by_one_is_identity(self):
        cost = make_cost()
        assert cost.scaled(1) is cost

    def test_scaled_rejects_zero(self):
        with pytest.raises(ValueError):
            make_cost().scaled(0)

    def test_negative_time_rejected(self):
        for time_s in (-1.0, math.nan, math.inf):
            with pytest.raises(ValueError, match=re.escape(repr(time_s))):
                KernelCost(time_s, 0, 0, 0, 0, 0, "compute")


class TestContext:
    def test_emit_appends_event_and_advances_clock(self):
        ctx = ExecutionContext()
        ctx.emit(Gemm("g", m=64, n=64, k=64))
        ctx.emit(Gemm("g", m=64, n=64, k=64))
        assert len(ctx.trace) == 2
        first, second = ctx.trace.events
        assert second.start_s == pytest.approx(first.cost.time_s)
        assert ctx.elapsed_s == pytest.approx(
            first.cost.time_s + second.cost.time_s
        )

    def test_module_path_from_named_scopes(self):
        ctx = ExecutionContext()
        with ctx.named_scope("outer"):
            with ctx.named_scope("inner"):
                ctx.emit(Elementwise("e", numel=10))
        assert ctx.trace.events[0].module_path == "outer.inner"

    def test_scope_restored_after_exception(self):
        ctx = ExecutionContext()
        with pytest.raises(RuntimeError):
            with ctx.named_scope("broken"):
                raise RuntimeError("boom")
        assert ctx.current_path == ""

    def test_repeat_scope_scales_costs(self):
        plain = ExecutionContext()
        plain.emit(Elementwise("e", numel=1000))
        repeated = ExecutionContext()
        with repeated.repeat_scope(5):
            repeated.emit(Elementwise("e", numel=1000))
        assert repeated.elapsed_s == pytest.approx(5 * plain.elapsed_s)

    def test_repeat_scopes_nest_multiplicatively(self):
        ctx = ExecutionContext()
        with ctx.repeat_scope(2):
            with ctx.repeat_scope(3):
                ctx.emit(Elementwise("e", numel=1000))
        single = ExecutionContext()
        single.emit(Elementwise("e", numel=1000))
        assert ctx.elapsed_s == pytest.approx(6 * single.elapsed_s)
        assert ctx.trace.events[0].repeat == 6
        assert single.trace.events[0].repeat == 1

    def test_repeat_scope_rejects_zero(self):
        # A fold factor counts launches: anything but an int >= 1 would
        # scale the cost by a launch count no event can stand for.
        ctx = ExecutionContext()
        op = Elementwise("e", numel=10)
        for factor in (0, -2, 2.5, math.nan, "2"):
            with pytest.raises(ValueError, match=re.escape(repr(factor))):
                with ctx.repeat_scope(factor):
                    pass
            with pytest.raises(ValueError, match=re.escape(repr(factor))):
                ctx.emit(op, repeat=factor)
        assert len(ctx.trace) == 0
        ctx.emit(op)
        assert ctx.trace.events[0].repeat == 1

    def test_flags_frozen_on_event(self):
        ctx = ExecutionContext()
        ctx.emit(Elementwise("e", numel=1), flags={"attention_anchor"})
        assert ctx.trace.events[0].is_attention_anchor

    def test_reset_clears_state(self):
        ctx = ExecutionContext()
        ctx.emit(Elementwise("e", numel=1))
        ctx.reset()
        assert len(ctx.trace) == 0
        assert ctx.elapsed_s == 0.0

    def test_default_attention_impl_is_baseline(self):
        assert ExecutionContext().attention_impl is AttentionImpl.BASELINE


class TestTraceQueries:
    def _trace(self) -> Trace:
        ctx = ExecutionContext()
        with ctx.named_scope("a"):
            ctx.emit(Gemm("g", m=64, n=64, k=64))
        with ctx.named_scope("b"):
            ctx.emit(Elementwise("e", numel=100))
        return ctx.trace

    def test_time_by_category(self):
        times = self._trace().time_by_category()
        assert OpCategory.LINEAR in times
        assert OpCategory.ELEMENTWISE in times

    def test_totals(self):
        trace = self._trace()
        assert trace.total_time_s > 0
        assert trace.total_flops > 0
        assert trace.total_moved_bytes > 0

    def test_totals_add_each_cost_in_trace_order(self):
        ctx = ExecutionContext()
        first = ctx.emit(Gemm("g", m=64, n=64, k=64))
        with ctx.repeat_scope(3):
            second = ctx.emit(Elementwise("e", numel=100))
        trace = ctx.trace
        assert trace.total_time_s == first.time_s + second.time_s
        assert trace.total_flops == first.flops + second.flops
        assert trace.total_moved_bytes == (
            first.moved_bytes + second.moved_bytes
        )

    def test_filter_by_category(self):
        linear = self._trace().filter(
            lambda event: event.category is OpCategory.LINEAR
        )
        assert len(linear) == 1

    def test_filter_by_module_subtree(self):
        ctx = ExecutionContext()
        with ctx.named_scope("unet"):
            with ctx.named_scope("down"):
                ctx.emit(Elementwise("e", numel=1))
        with ctx.named_scope("unet_other"):
            ctx.emit(Elementwise("e", numel=1))
        scoped = ctx.trace.filter(
            lambda event: event.module_path == "unet"
            or event.module_path.startswith("unet.")
        )
        assert len(scoped) == 1  # prefix must match on path segments
        assert scoped.events[0].module_path == "unet.down"

    def test_events_end_time(self):
        trace = self._trace()
        event = trace.events[0]
        assert event.end_s == pytest.approx(
            event.start_s + event.cost.time_s
        )
