"""Partition strategies: FLOPs invariants and collective placement."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.distributed.collectives import CollectiveKind
from repro.distributed.partition import (
    DataParallel,
    TensorParallel,
    split_cumulative,
    strategy_from_name,
)
from repro.ir.context import ExecutionContext
from repro.ir.ops import Elementwise, FusedAttention, Gemm, OpCategory
from repro.ir.trace import KernelCost, Trace, TraceEvent
from tests.distributed.plan_reference import (
    greedy_boundaries,
    sharded_events,
)


def transformer_trace(blocks: int = 2, repeat: int = 1):
    """A small transformer-shaped trace: qkv/core/proj + MLP per block."""
    ctx = ExecutionContext()
    for index in range(blocks):
        with ctx.named_scope(f"block{index}"):
            # Mirrors MultiHeadAttention: projections live in their own
            # leaf scopes, the fused core is the anchor in the parent.
            with ctx.named_scope("attn"):
                with ctx.named_scope("qkv"):
                    ctx.emit(
                        Gemm(
                            "qkv", m=64, n=768, k=256, b_is_weight=True,
                            category_override=OpCategory.ATTENTION,
                        ),
                        repeat=repeat,
                    )
                ctx.emit(
                    FusedAttention(
                        "core", batch=1, seq_q=64, seq_kv=64,
                        head_dim=32, num_heads=8,
                    ),
                    flags={"attention_anchor"},
                    repeat=repeat,
                )
                with ctx.named_scope("out_proj"):
                    ctx.emit(
                        Gemm(
                            "proj", m=64, n=256, k=256, b_is_weight=True,
                            category_override=OpCategory.ATTENTION,
                        ),
                        repeat=repeat,
                    )
            with ctx.named_scope("mlp"):
                with ctx.named_scope("fc1"):
                    ctx.emit(
                        Gemm("fc1", m=64, n=1024, k=256, b_is_weight=True),
                        repeat=repeat,
                    )
                with ctx.named_scope("fc2"):
                    ctx.emit(
                        Gemm("fc2", m=64, n=256, k=1024, b_is_weight=True),
                        repeat=repeat,
                    )
            ctx.emit(Elementwise("residual", numel=64 * 256), repeat=repeat)
    return ctx.trace


class TestTensorParallelInvariants:
    @pytest.mark.parametrize("world", [1, 2, 4, 8])
    def test_total_flops_preserved(self, world):
        trace = transformer_trace()
        plan = TensorParallel(world).partition(trace)
        assert plan.total_flops() == pytest.approx(
            trace.total_flops, rel=1e-6
        )

    def test_folded_loops_preserved(self):
        # repeat_scope-folded events must keep their fold factor.
        trace = transformer_trace(repeat=50)
        plan = TensorParallel(4).partition(trace)
        assert plan.total_flops() == pytest.approx(
            trace.total_flops, rel=1e-6
        )

    def test_work_is_balanced(self):
        plan = TensorParallel(4).partition(transformer_trace())
        per_rank = plan.flops_per_rank()
        assert max(per_rank) <= 1.05 * min(per_rank)

    def test_world_one_emits_no_collectives(self):
        plan = TensorParallel(1).partition(transformer_trace())
        assert plan.collective_counts() == {}

    def test_row_splits_emit_all_reduce(self):
        plan = TensorParallel(2).partition(transformer_trace())
        counts = plan.collective_counts()
        assert counts.get(CollectiveKind.ALL_REDUCE, 0) > 0

    def test_roles_stable_across_repeated_blocks(self):
        # The same leaf module must get the same role in every block /
        # denoising step, otherwise weights would be resharded mid-run.
        trace = transformer_trace(blocks=3)
        plan = TensorParallel(2).partition(trace)
        roles = {}
        for sharded in sharded_events(plan):
            leaf = sharded.source.module_path.split(".", 1)[-1]
            key = (leaf, sharded.source.op.name)
            if key in roles:
                assert roles[key] == sharded.role
            else:
                roles[key] = sharded.role


class TestDataParallel:
    @pytest.mark.parametrize("world", [2, 4])
    def test_total_flops_preserved(self, world):
        # DP slices the (global-batch) trace across replicas; the work
        # in the trace is conserved, not replicated.
        trace = transformer_trace()
        plan = DataParallel(world, batch=world).partition(trace)
        assert plan.total_flops() == pytest.approx(
            trace.total_flops, rel=1e-6
        )

    def test_inference_dp_has_no_collectives(self):
        plan = DataParallel(4, batch=4).partition(transformer_trace())
        assert plan.collective_counts() == {}

    def test_describe_mentions_batch(self):
        assert "batch" in DataParallel(4, batch=8).describe()


def timed_trace(times_s):
    """A trace of one 4096^3 GEMM, then elementwise ops, at given times."""
    events = []
    start = 0.0
    for index, time_s in enumerate(times_s):
        op = (
            Gemm("gemm", m=4096, n=4096, k=4096) if index == 0
            else Elementwise(f"ew{index}", numel=4096)
        )
        cost = KernelCost(
            time_s=time_s, compute_time_s=time_s, memory_time_s=0.0,
            launch_time_s=0.0, flops=op.flops(),
            moved_bytes=op.total_bytes(), limiter="compute",
        )
        events.append(TraceEvent(index, f"m{index}", op, cost, start))
        start += time_s
    return Trace(events)


def split_weights(weights, stages):
    """The planner's split of per-event weights into ``stages``."""
    return split_cumulative(np.cumsum(np.asarray(weights, dtype=float)), stages)


def assert_every_stage_owns_an_event(boundaries, n, stages):
    edges = [0] + boundaries + [n]
    assert len(edges) == stages + 1
    assert all(a < b for a, b in zip(edges, edges[1:]))


class TestStageSplitter:
    def test_one_outweighing_event_closes_one_stage(self):
        # One 4.2 ms GEMM outweighs two stage shares.  The splitter
        # used to close stages 0 and 1 at the same index, leaving
        # stage 1 empty.
        assert split_weights([10.0, 1.0, 1.0, 1.0], 3) == [1, 2]
        assert split_weights([4.2e-3, 4e-6, 4e-6, 4e-6], 3) == [1, 2]

    def test_more_stages_than_events_rejected(self):
        with pytest.raises(ValueError, match="more stages than events"):
            split_weights([1.0, 1.0], 3)

    @settings(max_examples=500, deadline=None)
    @given(
        weights=st.lists(
            st.one_of(
                st.just(0.0),
                st.floats(min_value=0.0, max_value=1e-3),
                st.floats(min_value=0.0, max_value=1e3),
            ),
            min_size=1, max_size=40,
        ),
        data=st.data(),
    )
    def test_bisection_matches_the_greedy_reference(self, weights, data):
        stages = data.draw(st.integers(1, len(weights)))
        boundaries = split_weights(weights, stages)
        assert boundaries == greedy_boundaries(weights, stages)
        assert_every_stage_owns_an_event(boundaries, len(weights), stages)


class TestStrategyFactory:
    def test_known_names(self):
        assert isinstance(strategy_from_name("tp", 4), TensorParallel)
        assert isinstance(strategy_from_name("dp", 4), DataParallel)

    def test_unknown_name_rejected(self):
        # Pipeline parallelism is the planner's (split_stages), not a
        # partition strategy.
        for name in ("zp", "pp"):
            with pytest.raises(ValueError, match="known: tp, dp$"):
                strategy_from_name(name, 4)

    def test_invalid_world_rejected(self):
        with pytest.raises(ValueError):
            TensorParallel(0)
