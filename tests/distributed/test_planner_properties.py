"""Auto-planner properties: symbolic==brute, determinism, caps, Pareto.

The planner's load-bearing promise is that costing a config from the
cached prefix arrays (:meth:`PlannerBasis.cost_config`) produces the
*identical floats* a full re-partition + re-pricing would
(:func:`bruteforce_cost`) — hypothesis drives that equality across the
whole search space.  The rest of the suite pins the search contract:
determinism across fresh bases, memory caps respected under any margin,
the Pareto frontier exactly the non-dominated set, and the degenerate
tp=1/pp=1 axes reproducing single- and multi-device timeline traces
bit-exactly.
"""

import dataclasses
import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.distributed.partition import TensorParallel
from repro.distributed.planner import (
    ParallelConfig,
    PlannerBasis,
    enumerate_configs,
    pareto_frontier,
    plan_parallelism,
)
from repro.distributed.registry import machine_from_name
from repro.distributed.timeline import build_timelines
from repro.ir.context import ExecutionContext
from repro.ir.module import Module
from repro.ir.ops import Elementwise, FusedAttention, Gemm, OpCategory
from tests.distributed.plan_reference import (
    axis_comm,
    axis_comm_sp,
    bruteforce_cost,
)

MACHINE = machine_from_name("dgx-a100-80g")
GLOBAL_BATCH = 8


class TinyTransformer(Module):
    """Three-block batch-scaled transformer; profiles in milliseconds.

    Mirrors the suite models' structure (attention anchor flags, leaf
    scopes for the Megatron column/row assignment) at toy dimensions so
    property tests can afford hundreds of planner costings.
    """

    def __init__(self, blocks: int = 3):
        super().__init__(name="tiny_transformer")
        self.blocks = blocks

    def own_param_count(self) -> int:
        per_block = 256 * 768 + 256 * 256 + 256 * 1024 + 1024 * 256
        return self.blocks * per_block

    def run_inference(self, ctx: ExecutionContext, batch: int = 1) -> None:
        m = 64 * batch
        for index in range(self.blocks):
            with ctx.named_scope(f"block{index}"):
                with ctx.named_scope("attn"):
                    with ctx.named_scope("qkv"):
                        ctx.emit(Gemm(
                            "qkv", m=m, n=768, k=256, b_is_weight=True,
                            category_override=OpCategory.ATTENTION,
                        ))
                    ctx.emit(
                        FusedAttention(
                            "core", batch=batch, seq_q=64, seq_kv=64,
                            head_dim=32, num_heads=8,
                        ),
                        flags={"attention_anchor"},
                    )
                    with ctx.named_scope("out_proj"):
                        ctx.emit(Gemm(
                            "proj", m=m, n=256, k=256, b_is_weight=True,
                            category_override=OpCategory.ATTENTION,
                        ))
                with ctx.named_scope("mlp"):
                    with ctx.named_scope("fc1"):
                        ctx.emit(Gemm(
                            "fc1", m=m, n=1024, k=256, b_is_weight=True,
                        ))
                    with ctx.named_scope("fc2"):
                        ctx.emit(Gemm(
                            "fc2", m=m, n=256, k=1024, b_is_weight=True,
                        ))
                ctx.emit(Elementwise("residual", numel=m * 256))


MODEL = TinyTransformer()
BASIS = PlannerBasis(MODEL, MACHINE)
CONFIGS = enumerate_configs(gpu_budget=8, global_batch=GLOBAL_BATCH)


def _cost(costing: str, **inputs):
    """Cost tp=2 on the shared basis through one of the three entry
    points that take the costing inputs."""
    if costing == "cost_config":
        return BASIS.cost_config(ParallelConfig(tp=2), **inputs)
    if costing == "bruteforce":
        return bruteforce_cost(BASIS, ParallelConfig(tp=2), **inputs)
    return plan_parallelism(MODEL, machine=MACHINE, basis=BASIS, **inputs)


class TestSymbolicEqualsBruteforce:
    @settings(max_examples=66, deadline=None)
    @given(config=st.sampled_from(CONFIGS))
    def test_every_config_prices_identically(self, config):
        # Not approx: the two paths must agree float-for-float, nested
        # schedules and memory estimate included.
        symbolic = BASIS.cost_config(config, global_batch=GLOBAL_BATCH)
        brute = bruteforce_cost(BASIS, config, global_batch=GLOBAL_BATCH)
        assert symbolic == brute

    @settings(max_examples=25, deadline=None)
    @given(
        config=st.sampled_from(CONFIGS),
        global_batch=st.sampled_from((3, 5, 8)),
        backward_ratio=st.sampled_from((1.0, 2.0, 3.5)),
    )
    def test_agreement_survives_uneven_batches_and_ratios(
        self, config, global_batch, backward_ratio
    ):
        symbolic = BASIS.cost_config(
            config, global_batch=global_batch,
            backward_ratio=backward_ratio,
        )
        brute = bruteforce_cost(
            BASIS, config, global_batch=global_batch,
            backward_ratio=backward_ratio,
        )
        assert symbolic == brute


class TestDeterminism:
    def test_fresh_bases_reproduce_identical_plans(self):
        first = plan_parallelism(
            MODEL, machine=MACHINE, gpu_budget=8,
            global_batch=GLOBAL_BATCH,
        )
        second = plan_parallelism(
            MODEL, machine=MACHINE, gpu_budget=8,
            global_batch=GLOBAL_BATCH,
        )
        assert first.points == second.points
        assert first.frontier == second.frontier
        assert [p.config.label for p in first.points] == [
            p.config.label for p in second.points
        ]

    def test_search_costs_every_enumerated_config_once(self):
        result = plan_parallelism(
            MODEL, machine=MACHINE, gpu_budget=8,
            global_batch=GLOBAL_BATCH,
        )
        assert len(result.points) == len(CONFIGS)
        assert result.stats["configs_costed"] == len(CONFIGS)
        # The symbolic basis amortizes: far fewer axis builds than
        # configs, and only as many profiles as distinct microbatch
        # sizes.
        assert result.stats["axis_builds"] < len(CONFIGS)
        assert result.stats["trace_profiles"] <= 4


class TestSharedBasis:
    def test_planned_pool_on_a_searched_basis_matches_a_fresh_one(self):
        from repro.serving.sharded import planned_pool

        basis = PlannerBasis(MODEL, MACHINE)
        plan_parallelism(
            MODEL, machine=MACHINE, gpu_budget=8,
            global_batch=GLOBAL_BATCH, basis=basis,
        )
        profiles = basis.stats["trace_profiles"]
        shared, shared_point = planned_pool(
            "p", MODEL, machine=MACHINE, global_batch=GLOBAL_BATCH,
            basis=basis,
        )
        fresh, fresh_point = planned_pool(
            "p", MODEL, machine=MACHINE, global_batch=GLOBAL_BATCH,
        )
        # The pool reuses the search's traces instead of re-profiling.
        assert basis.stats["trace_profiles"] == profiles
        assert shared_point == fresh_point
        assert shared.servers == fresh.servers
        latency = shared.latency_fns[MODEL.name]
        assert [latency(b) for b in range(1, 9)] == [
            fresh.latency_fns[MODEL.name](b) for b in range(1, 9)
        ]


class TestMemoryCap:
    @settings(max_examples=40, deadline=None)
    @given(
        config=st.sampled_from(CONFIGS),
        margin=st.floats(min_value=1e-6, max_value=1.0),
    )
    def test_fits_flag_matches_the_cap(self, config, margin):
        point = BASIS.cost_config(
            config, global_batch=GLOBAL_BATCH, memory_margin=margin,
        )
        capacity = MACHINE.gpu.dram_capacity
        assert point.fits == (point.memory_bytes <= capacity * margin)

    def test_no_feasible_plan_raises(self):
        starved = dataclasses.replace(
            MACHINE,
            gpu=dataclasses.replace(
                MACHINE.gpu, name="starved", dram_capacity=1,
            ),
        )
        result = plan_parallelism(
            MODEL, machine=starved, gpu_budget=8,
            global_batch=GLOBAL_BATCH,
        )
        assert result.feasible == []
        assert result.frontier == []
        with pytest.raises(ValueError, match="no feasible plan"):
            result.best_throughput()
        with pytest.raises(ValueError, match="no feasible plan"):
            result.best_latency()

    def test_feasible_set_grows_with_margin(self):
        sets = [
            {
                p.config.label
                for p in plan_parallelism(
                    MODEL, machine=MACHINE, gpu_budget=8,
                    global_batch=GLOBAL_BATCH, memory_margin=margin,
                ).feasible
            }
            for margin in (0.1, 0.5, 0.9)
        ]
        assert sets[0] <= sets[1] <= sets[2]


class TestParetoFrontier:
    def _dominates(self, b, a):
        return (
            b.latency_s <= a.latency_s
            and b.throughput_rps >= a.throughput_rps
            and b.config.world <= a.config.world
            and (
                b.latency_s < a.latency_s
                or b.throughput_rps > a.throughput_rps
                or b.config.world < a.config.world
            )
        )

    def test_frontier_is_exactly_the_non_dominated_feasible_set(self):
        result = plan_parallelism(
            MODEL, machine=MACHINE, gpu_budget=8,
            global_batch=GLOBAL_BATCH,
        )
        feasible = result.feasible
        expected = [
            a for a in feasible
            if not any(
                self._dominates(b, a) for b in feasible if b is not a
            )
        ]
        assert result.frontier == expected
        # And it is a fixed point of the filter.
        assert pareto_frontier(result.frontier) == result.frontier

    def test_best_picks_sit_on_the_frontier(self):
        result = plan_parallelism(
            MODEL, machine=MACHINE, gpu_budget=8,
            global_batch=GLOBAL_BATCH,
        )
        labels = {p.config.label for p in result.frontier}
        assert result.best_throughput().config.label in labels
        assert result.best_latency().config.label in labels


class TestDegenerateAxes:
    """tp=1 / pp=1 must add zero cost and reproduce traces bit-exactly."""

    def test_tp1_pp1_is_the_single_device_trace(self):
        point = BASIS.cost_config(
            ParallelConfig(), global_batch=GLOBAL_BATCH,
        )
        trace = BASIS.trace(GLOBAL_BATCH)
        assert point.latency_s == trace.total_time_s  # byte-identical
        assert point.tp_comm_s == 0.0
        assert point.p2p_s == 0.0
        assert point.bubble_fraction == 0.0

    @pytest.mark.parametrize("batch", [1, 2, 4])
    def test_degenerate_replica_latency_is_exact(self, batch):
        assert (
            BASIS.replica_latency(ParallelConfig(), batch)
            == BASIS.trace(batch).total_time_s
        )

    def test_tp1_axis_carries_no_collectives(self):
        axis = BASIS.axis(1, 1)
        assert all(c == 0.0 for c in axis_comm(axis))
        assert all(c == 0.0 for c in axis_comm_sp(axis))
        assert axis.max_comm_payload == 0.0
        assert axis.acc[-1] == BASIS.trace(1).total_time_s

    @pytest.mark.parametrize("tp", [2, 4, 8])
    def test_pp1_matches_the_timeline_simulator_bit_exactly(self, tp):
        # The axis contract: rank 0 holds the largest shard of every
        # event, so accumulating its kernel + exposed collective times
        # in trace order reproduces build_timelines' makespan exactly.
        expected = build_timelines(
            TensorParallel(tp).partition(BASIS.trace(1)),
            MACHINE, keep_entries=False,
        ).total_time_s
        assert (
            BASIS.replica_latency(ParallelConfig(tp=tp), 1) == expected
        )

    @pytest.mark.parametrize("tp", [2, 4, 8])
    def test_pp1_has_zero_pipeline_overheads(self, tp):
        point = BASIS.cost_config(
            ParallelConfig(tp=tp), global_batch=GLOBAL_BATCH,
        )
        assert point.p2p_s == 0.0
        assert point.bubble_fraction == 0.0
        assert len(point.stage_times_s) == 1


class TestEnumeration:
    @settings(max_examples=60, deadline=None)
    @given(
        gpu_budget=st.integers(min_value=1, max_value=16),
        global_batch=st.integers(min_value=1, max_value=16),
    )
    def test_configs_are_canonical_unique_and_sorted(
        self, gpu_budget, global_batch
    ):
        configs = enumerate_configs(
            gpu_budget=gpu_budget, global_batch=global_batch,
        )
        assert len(set(configs)) == len(configs)
        keys = [
            (c.tp, c.pp, c.dp, c.microbatches, c.sequence_parallel)
            for c in configs
        ]
        assert keys == sorted(keys)
        for c in configs:
            assert c.world <= gpu_budget
            assert c.dp <= global_batch
            if c.pp == 1:
                assert c.microbatches == 1
            if c.tp == 1:
                assert not c.sequence_parallel

    def test_config_validation(self):
        with pytest.raises(ValueError):
            ParallelConfig(tp=0)
        with pytest.raises(ValueError):
            ParallelConfig(microbatches=0)
        with pytest.raises(ValueError):
            ParallelConfig(tp=1, sequence_parallel=True)

    def test_labels_are_compact_and_unique(self):
        labels = [c.label for c in CONFIGS]
        assert len(set(labels)) == len(labels)
        assert ParallelConfig().label == "tp1-pp1-dp1"
        assert ParallelConfig(
            tp=2, pp=2, dp=2, microbatches=4, sequence_parallel=True
        ).label == "tp2-pp2-dp2-mb4-sp"

    def test_overdeep_pipelines_rejected(self):
        with pytest.raises(ValueError, match="exceeds the trace"):
            BASIS.cost_config(
                ParallelConfig(pp=32), global_batch=GLOBAL_BATCH,
            )


class TestInputValidation:
    """Each costing input out of range fails naming its field."""

    def test_kv_bytes_must_be_finite_and_non_negative(self):
        for bad in (-1e12, math.nan, math.inf):
            with pytest.raises(ValueError, match="kv_bytes"):
                PlannerBasis(MODEL, MACHINE, kv_bytes=bad)

    @pytest.mark.parametrize("costing", ["cost_config", "plan", "bruteforce"])
    def test_global_batch_must_be_a_positive_int(self, costing):
        for bad in (0, -2, 1.5):
            with pytest.raises(ValueError, match="global_batch"):
                _cost(costing, global_batch=bad)

    @pytest.mark.parametrize("search", ["enumerate", "plan"])
    def test_gpu_budget_must_be_a_positive_int(self, search):
        # Fails before the planner builds its basis.
        for bad in (0, -4, 2.5, math.nan):
            with pytest.raises(ValueError, match="gpu_budget must be an int"):
                if search == "enumerate":
                    enumerate_configs(gpu_budget=bad)
                else:
                    plan_parallelism(MODEL, machine=MACHINE, gpu_budget=bad)

    @pytest.mark.parametrize("costing", ["cost_config", "plan", "bruteforce"])
    def test_backward_ratio_must_be_finite_and_non_negative(self, costing):
        for bad in (-0.5, math.nan, math.inf):
            with pytest.raises(ValueError, match="backward_ratio"):
                _cost(costing, backward_ratio=bad)

    @pytest.mark.parametrize("costing", ["cost_config", "plan", "bruteforce"])
    def test_memory_margin_must_be_in_unit_interval(self, costing):
        for bad in (0.0, 1.5, math.nan, math.inf):
            with pytest.raises(ValueError, match="memory_margin"):
                _cost(costing, memory_margin=bad)
