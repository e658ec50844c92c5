"""Class-indexed plans and timelines equal the per-event reference.

A :class:`DistributedPlan` stores one row per kernel class plus the
class of every source event, and ``build_timelines`` prices each class
once and walks the index.  :mod:`tests.distributed.plan_reference`
keeps the per-event partitioners and builders; here every strategy,
world size, entry setting and overlap must give the same sharded events
and the same timelines, float for float and entry for entry.  World 3
splits unevenly.  Pipeline parallelism is the planner's:
:func:`split_stages` over a class-priced :func:`build_axis` must give
the per-event reference's stage and boundary times
(:func:`bruteforce_stages` over :func:`bruteforce_axis`), and a
pipeline deeper than its trace is refused.
"""

from __future__ import annotations

import gc

import pytest

from repro.distributed.partition import strategy_from_name
from repro.distributed.planner import build_axis, split_stages
from repro.distributed.registry import machine_from_name
from repro.distributed.timeline import build_timelines
from repro.ir.context import AttentionImpl, ExecutionContext
from repro.ir.ops import Gemm
from repro.models.registry import build_model
from repro.profiler.profiler import profile_model
from tests.distributed.plan_reference import (
    bruteforce_axis,
    bruteforce_stages,
    reference_collective_counts,
    reference_comm_payload_bytes,
    reference_events,
    reference_flops_per_rank,
    reference_timelines,
    sharded_events,
)
from tests.distributed.test_partition import timed_trace, transformer_trace

MACHINE = machine_from_name("dgx-a100-80g")
STRATEGIES = ("tp", "dp")
WORLDS = (1, 2, 3, 4, 8)
PIPELINE_DEPTHS = (1, 2, 3, 4, 8)
OVERLAPS = (0.0, 0.5)
# 0.5 scales exactly, so a reassociated exposed time (comm - comm * x
# for comm * (1 - x)) reads the same there; 0.3 rounds and tells them
# apart.  The toy traces are small enough to take the third value.
TOY_OVERLAPS = OVERLAPS + (0.3,)


@pytest.fixture(autouse=True)
def no_cyclic_collection():
    """Pause the cyclic collector while the timelines are built.

    A case builds up to a million timeline entries, and every full
    collection would rescan the session's cached suite profiles; the
    entries form no cycles, so reference counting frees them anyway.
    """
    enabled = gc.isenabled()
    gc.disable()
    yield
    if enabled:
        gc.enable()


def strategy(name: str, world: int):
    # A global batch of world + 1 gives the data-parallel ranks uneven
    # shares (rank 0 takes two samples).
    return strategy_from_name(name, world, batch=world + 1)


def totals(dist):
    return [
        (t.rank, t.compute_time_s, t.comm_time_s, t.exposed_comm_time_s,
         t.end_s)
        for t in dist.timelines
    ]


def assert_same_timelines(dist, reference, keep_entries, case) -> None:
    assert (dist.strategy, dist.world, dist.machine, dist.overlap) == (
        reference.strategy, reference.world, reference.machine,
        reference.overlap,
    ), case
    assert totals(dist) == totals(reference), case
    for timeline, expected in zip(dist.timelines, reference.timelines):
        if keep_entries:
            assert timeline.entries == expected.entries, (case, timeline.rank)
        else:
            assert timeline.entries == [], case


def assert_matches_reference(
    trace, name: str, world: int, overlaps=OVERLAPS
) -> None:
    chosen = strategy(name, world)
    plan = chosen.partition(trace)
    sharded = reference_events(chosen, trace)
    assert sharded_events(plan) == sharded
    assert (plan.strategy, plan.world) == (chosen.describe(), world)
    for overlap in overlaps:
        reference = reference_timelines(
            chosen, sharded, MACHINE, overlap=overlap
        )
        for keep_entries in (True, False):
            dist = build_timelines(
                plan, MACHINE, overlap=overlap, keep_entries=keep_entries
            )
            assert_same_timelines(
                dist, reference, keep_entries,
                (name, world, overlap, keep_entries),
            )


def shared_op_trace():
    """One op object under a column and a row leaf, folded 1x and 3x:
    a class key without the role or the fold factor merges events that
    shard or price differently."""
    ctx = ExecutionContext()
    op = Gemm("shared", m=128, n=512, k=512, b_is_weight=True)
    for index, fold in enumerate((1, 3)):
        with ctx.named_scope(f"block{index}"):
            for leaf in ("up", "down"):
                with ctx.named_scope(leaf):
                    ctx.emit(op, repeat=fold)
    return ctx.trace


TOY_TRACES = {
    "transformer": lambda: transformer_trace(blocks=2),
    "folded": lambda: transformer_trace(blocks=1, repeat=50),
    "timed": lambda: timed_trace([4.2e-3, 4e-6, 4e-6, 4e-6]),
    "shared_op": shared_op_trace,
}


@pytest.mark.parametrize("world", WORLDS)
@pytest.mark.parametrize("name", STRATEGIES)
@pytest.mark.parametrize("toy", sorted(TOY_TRACES))
def test_toy_traces(toy, name, world):
    assert_matches_reference(TOY_TRACES[toy](), name, world, TOY_OVERLAPS)


@pytest.fixture(scope="module")
def model_traces(suite_profiles):
    sd = profile_model(
        build_model("stable_diffusion@256"), gpu=MACHINE.gpu,
        attention_impl=AttentionImpl.FLASH,
    )
    return {
        "stable_diffusion@256": sd.trace,
        "muse": suite_profiles["muse"][1].trace,
        "make_a_video": suite_profiles["make_a_video"][1].trace,
    }


@pytest.mark.parametrize("world", WORLDS)
@pytest.mark.parametrize("name", STRATEGIES)
@pytest.mark.parametrize(
    "model", ["stable_diffusion@256", "muse", "make_a_video"]
)
def test_flash_traces(model_traces, model, name, world):
    assert_matches_reference(model_traces[model], name, world)


@pytest.mark.parametrize("world", WORLDS)
@pytest.mark.parametrize("name", STRATEGIES)
def test_aggregates_equal_per_event_sums(model_traces, name, world):
    for trace in (
        TOY_TRACES["transformer"](),
        TOY_TRACES["folded"](),
        TOY_TRACES["shared_op"](),
        model_traces["stable_diffusion@256"],
    ):
        chosen = strategy(name, world)
        plan = chosen.partition(trace)
        sharded = reference_events(chosen, trace)
        assert plan.flops_per_rank() == reference_flops_per_rank(
            world, sharded
        )
        assert plan.comm_payload_bytes() == reference_comm_payload_bytes(
            sharded
        )
        # Same kinds in the same first-issue order, same counts.
        assert list(plan.collective_counts().items()) == list(
            reference_collective_counts(sharded).items()
        )


def test_uneven_world_keeps_per_rank_clocks():
    # World 3 splits 256-wide dimensions unevenly: rank 0 carries the
    # extra unit, so its compute differs from the others'.
    plan = strategy("tp", 3).partition(transformer_trace(blocks=2))
    dist = build_timelines(plan, MACHINE)
    computes = [t.compute_time_s for t in dist.timelines]
    assert len(set(computes)) > 1
    assert dist.compute_time_s == computes[0]


def assert_stages_match_reference(trace, axis, reference, pp) -> None:
    for sequence_parallel in (False, True):
        if pp > len(trace.events):
            with pytest.raises(ValueError, match="more stages than events"):
                split_stages(axis, pp, sequence_parallel, MACHINE)
            continue
        stage_times, p2p_times = split_stages(
            axis, pp, sequence_parallel, MACHINE
        )
        assert (stage_times, p2p_times) == bruteforce_stages(
            trace, reference, pp, sequence_parallel, MACHINE
        ), (pp, sequence_parallel)
        assert len(stage_times) == len(p2p_times) == pp
        assert p2p_times[-1] == 0.0


# The toy traces carry costs of their own, which a tp = 1 axis
# re-prices and the reference reads verbatim; they split tp >= 2 axes.
@pytest.mark.parametrize("pp", PIPELINE_DEPTHS)
@pytest.mark.parametrize("tp", (2, 4))
@pytest.mark.parametrize("toy", sorted(TOY_TRACES))
def test_toy_pipeline_stages(toy, tp, pp):
    trace = TOY_TRACES[toy]()
    assert_stages_match_reference(
        trace, build_axis(trace, tp, MACHINE),
        bruteforce_axis(trace, tp, MACHINE), pp,
    )


@pytest.fixture(scope="module")
def model_axes(model_traces):
    """``{(model, tp): (axis, per-event reference axis)}``, built on
    first use and shared by every pipeline depth."""
    axes = {}

    def get(model, tp):
        if (model, tp) not in axes:
            trace = model_traces[model]
            axes[model, tp] = (
                build_axis(trace, tp, MACHINE),
                bruteforce_axis(trace, tp, MACHINE),
            )
        return axes[model, tp]

    return get


@pytest.mark.parametrize("pp", PIPELINE_DEPTHS)
@pytest.mark.parametrize(
    "model", ["stable_diffusion@256", "muse", "make_a_video"]
)
def test_flash_pipeline_stages(model_traces, model_axes, model, pp):
    # Profiled on the machine's GPU, so tp = 1 re-prices to the trace.
    for tp in (1, 2):
        axis, reference = model_axes(model, tp)
        assert_stages_match_reference(
            model_traces[model], axis, reference, pp
        )


def test_heavy_first_event_still_feeds_every_stage():
    # One 4096^3 GEMM outweighs every stage share; the split still
    # gives each of the three stages an event, so none is empty and
    # both boundaries send an activation.
    trace = timed_trace([4.2e-3, 4e-6, 4e-6, 4e-6])
    stage_times, p2p_times = split_stages(
        build_axis(trace, 2, MACHINE), 3, False, MACHINE
    )
    assert all(time > 0.0 for time in stage_times)
    assert stage_times[0] > stage_times[1] + stage_times[2]
    assert p2p_times[0] > 0.0 and p2p_times[1] > 0.0
