"""Partition strategies: FLOPs invariants and collective placement."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.distributed.collectives import CollectiveKind
from repro.distributed.partition import (
    DataParallel,
    PipelineParallel,
    TensorParallel,
    stage_boundaries,
    strategy_from_name,
)
from repro.ir.context import ExecutionContext
from repro.ir.ops import Elementwise, FusedAttention, Gemm, OpCategory
from repro.ir.trace import KernelCost, Trace, TraceEvent
from tests.distributed.plan_reference import sharded_events


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


class TestPipelineParallel:
    def test_total_flops_preserved(self):
        trace = transformer_trace(blocks=4)
        plan = PipelineParallel(4).partition(trace)
        assert plan.total_flops() == pytest.approx(
            trace.total_flops, rel=1e-6
        )

    def test_stages_are_contiguous(self):
        plan = PipelineParallel(2).partition(transformer_trace(blocks=4))
        stages = [event.stage for event in sharded_events(plan)]
        assert stages == sorted(stages)
        assert set(stages) == set(range(max(stages) + 1))

    def test_stage_boundaries_emit_send_recv(self):
        plan = PipelineParallel(2).partition(transformer_trace(blocks=4))
        counts = plan.collective_counts()
        assert counts.get(CollectiveKind.SEND_RECV, 0) >= 1

    def test_more_ranks_than_events_emits_no_phantom_p2p(self):
        # Regression: with world > len(events) the trailing stages own
        # nothing, and the last populated event used to emit a
        # SEND_RECV into the empty stage after it.
        trace = transformer_trace(blocks=1)  # 6 events
        plan = PipelineParallel(8).partition(trace)
        populated = {event.stage for event in sharded_events(plan)}
        sends = [
            event for event in sharded_events(plan)
            if event.comm is not None
        ]
        # One boundary per *populated* stage pair, none into the void.
        assert len(sends) == len(populated) - 1
        for event in sends:
            assert event.stage + 1 in populated

    def test_world_equal_to_events_keeps_all_boundaries(self):
        trace = transformer_trace(blocks=1)  # 6 events
        plan = PipelineParallel(6).partition(trace)
        sends = sum(
            1 for event in sharded_events(plan) if event.comm is not None
        )
        assert sends == 5
        assert {event.stage for event in sharded_events(plan)} == set(
            range(6)
        )


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


class TestPipelineStagesNeverEmpty:
    def test_heavy_first_event_still_feeds_every_stage(self):
        # One 4.2 ms GEMM outweighs two stage shares.  The splitter
        # used to close stages 0 and 1 at the same index, leaving stage
        # 1 empty and sending stage 0's activation into it.
        trace = timed_trace([4.2e-3, 4e-6, 4e-6, 4e-6])
        plan = PipelineParallel(3).partition(trace)
        assert [e.stage for e in sharded_events(plan)] == [0, 1, 2, 2]
        sends = [e.stage for e in sharded_events(plan) if e.comm is not None]
        assert sends == [0, 1]

    def test_more_ranks_than_events_populate_a_stage_per_event(self):
        trace = timed_trace([4.2e-3, 4e-6, 4e-6])
        plan = PipelineParallel(5).partition(trace)
        assert [e.stage for e in sharded_events(plan)] == [0, 1, 2]


def greedy_boundaries(weights, stages):
    """Plain greedy reference: one pass, at most one close per event."""
    n = len(weights)
    total = 0.0
    for w in weights:  # left to right: sum() is compensated from 3.12
        total += w
    boundaries = []
    cumulative = 0.0
    target = 1
    for index, w in enumerate(weights):
        cumulative += w
        remaining = n - (index + 1)
        if (
            target < stages
            and remaining >= stages - target
            and (
                cumulative >= total * target / stages
                or remaining == stages - target
            )
        ):
            boundaries.append(index + 1)
            target += 1
    return boundaries


def assert_every_stage_owns_an_event(boundaries, n, stages):
    edges = [0] + boundaries + [n]
    assert len(edges) == stages + 1
    assert all(a < b for a, b in zip(edges, edges[1:]))


class TestStageSplitter:
    def test_one_outweighing_event_closes_one_stage(self):
        assert stage_boundaries([10.0, 1.0, 1.0, 1.0], 3) == [1, 2]

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
        boundaries = stage_boundaries(weights, stages)
        assert boundaries == greedy_boundaries(weights, stages)
        assert_every_stage_owns_an_event(boundaries, len(weights), stages)


class TestStrategyFactory:
    def test_known_names(self):
        assert isinstance(strategy_from_name("tp", 4), TensorParallel)
        assert isinstance(strategy_from_name("dp", 4), DataParallel)
        assert isinstance(
            strategy_from_name("pp", 4), PipelineParallel
        )

    def test_unknown_name_rejected(self):
        with pytest.raises(ValueError):
            strategy_from_name("zp", 4)

    def test_invalid_world_rejected(self):
        with pytest.raises(ValueError):
            TensorParallel(0)
