"""Cross-cutting invariants of the whole simulator, property-style."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.ir.context import AttentionImpl, ExecutionContext
from repro.ir.ops import Conv2d, Elementwise, Gemm
from repro.profiler.trace_export import parse_chrome_trace, to_chrome_trace


@st.composite
def random_ops(draw):
    kind = draw(st.sampled_from(["gemm", "conv", "elementwise"]))
    if kind == "gemm":
        return Gemm(
            "g",
            m=draw(st.integers(1, 2048)),
            n=draw(st.integers(1, 2048)),
            k=draw(st.integers(1, 2048)),
            batch=draw(st.integers(1, 8)),
        )
    if kind == "conv":
        return Conv2d(
            "c",
            batch=draw(st.integers(1, 4)),
            in_channels=draw(st.sampled_from([3, 32, 128])),
            out_channels=draw(st.sampled_from([16, 64])),
            h=draw(st.sampled_from([8, 32, 64])),
            w=draw(st.sampled_from([8, 32, 64])),
        )
    return Elementwise("e", numel=draw(st.integers(1, 1 << 20)))


@settings(max_examples=40, deadline=None)
@given(ops=st.lists(random_ops(), min_size=1, max_size=12))
def test_trace_totals_are_additive(ops):
    """Trace totals equal the sum of the per-event costs, and the clock
    advances monotonically."""
    ctx = ExecutionContext()
    for op in ops:
        ctx.emit(op)
    trace = ctx.trace
    assert trace.total_time_s == pytest.approx(
        sum(event.cost.time_s for event in trace)
    )
    # Both add the same floats left to right, on every interpreter.
    assert ctx.elapsed_s == trace.total_time_s
    starts = [event.start_s for event in trace]
    assert starts == sorted(starts)
    assert sum(trace.time_by_category().values()) == pytest.approx(
        trace.total_time_s
    )


@settings(max_examples=25, deadline=None)
@given(ops=st.lists(random_ops(), min_size=1, max_size=8))
def test_chrome_round_trip_preserves_totals(ops):
    ctx = ExecutionContext()
    for op in ops:
        ctx.emit(op)
    records = parse_chrome_trace(to_chrome_trace(ctx.trace))
    assert len(records) == len(ctx.trace)
    total_us = sum(record["duration_us"] for record in records)
    assert total_us == pytest.approx(ctx.trace.total_time_s * 1e6)


@settings(max_examples=25, deadline=None)
@given(
    ops=st.lists(random_ops(), min_size=1, max_size=8),
    repeat=st.integers(2, 16),
)
def test_repeat_scope_equals_manual_repetition(ops, repeat):
    manual = ExecutionContext()
    for _ in range(repeat):
        for op in ops:
            manual.emit(op)
    bucketed = ExecutionContext()
    with bucketed.repeat_scope(repeat):
        for op in ops:
            bucketed.emit(op)
    assert bucketed.elapsed_s == pytest.approx(manual.elapsed_s)
    assert bucketed.trace.total_flops == pytest.approx(
        manual.trace.total_flops
    )
    assert len(bucketed.trace) == len(ops)
    assert all(event.repeat == repeat for event in bucketed.trace)
    assert all(event.repeat == 1 for event in manual.trace)


@settings(max_examples=20, deadline=None)
@given(
    seq=st.sampled_from([64, 256, 1024, 4096]),
    heads=st.sampled_from([4, 8, 16]),
    batch=st.integers(1, 4),
)
def test_flash_dominates_baseline_for_any_self_attention(
    seq, heads, batch
):
    """Structural guarantee behind Table II: whatever the shape, the
    fused kernel never loses to the unfused sequence end-to-end."""
    from repro.ir.ops import AttentionKind, AttentionRole
    from repro.layers.attention import emit_attention_core

    times = {}
    for impl in AttentionImpl:
        ctx = ExecutionContext(attention_impl=impl)
        emit_attention_core(
            ctx,
            batch=batch,
            num_heads=heads,
            seq_q=seq,
            seq_kv=seq,
            head_dim=64,
            role=AttentionRole.SELF,
            kind=AttentionKind.TOKEN,
        )
        times[impl] = ctx.trace.total_time_s
    assert times[AttentionImpl.FLASH] <= times[AttentionImpl.BASELINE]
