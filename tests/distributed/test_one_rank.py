"""One rank is the profiled trace, on the general pricing path.

A one-rank tensor-parallel axis and a one-rank plan of any strategy
are priced like every other degree: the plan's ops are re-priced on
the machine's GPU and it has no collective.  On the GPU and tuning
that profiled the trace that reproduces the trace's own floats; on
another machine or tuning it gives that profile's floats instead.
"""

import dataclasses

import pytest

from repro.distributed.partition import TensorParallel, trace_classes
from repro.distributed.planner import build_axis
from repro.distributed.registry import machine_from_name
from repro.distributed.scaling import strong_scaling
from repro.experiments.suite_cache import all_profiles
from repro.ir.context import AttentionImpl
from repro.kernels.base import DEFAULT_TUNING
from repro.models.registry import build_model
from repro.profiler import profile_model
from tests.distributed.plan_reference import axis_times, bruteforce_axis
from tests.distributed.test_axis_classes import assert_axes_equal

A100 = machine_from_name("dgx-a100-80g")
H100 = machine_from_name("dgx-h100")


@pytest.mark.parametrize(
    "name", ["stable_diffusion", "muse", "make_a_video", "llama"]
)
def test_tp1_axis_is_the_profiled_trace(name):
    trace = all_profiles()[name][1].trace  # flash, profiled on the A100
    axis = build_axis(trace, 1, A100)
    assert axis_times(axis) == trace.times_s()
    assert axis.total_s == trace.total_time_s
    assert axis.comm_total_s == 0.0


@pytest.mark.parametrize(
    "tuning",
    [DEFAULT_TUNING, dataclasses.replace(
        DEFAULT_TUNING, gemm_base_utilization=0.6
    )],
    ids=["default", "slow-gemm"],
)
def test_tp1_axis_reprices_on_the_axis_machine(tuning):
    model = build_model("stable_diffusion@256")
    a100_trace = profile_model(
        model, gpu=A100.gpu, attention_impl=AttentionImpl.FLASH
    ).trace
    h100_trace = profile_model(
        model, gpu=H100.gpu, attention_impl=AttentionImpl.FLASH,
        tuning=tuning,
    ).trace
    axis = build_axis(a100_trace, 1, H100, tuning=tuning)
    assert axis_times(axis) == h100_trace.times_s()
    assert axis.total_s == h100_trace.total_time_s
    assert_axes_equal(
        axis, bruteforce_axis(h100_trace, 1, H100, tuning=tuning)
    )


@pytest.mark.parametrize(
    "name", ["stable_diffusion", "muse", "make_a_video", "llama"]
)
def test_one_rank_shards_are_the_source_ops(name):
    # A one-rank part is the whole dimension: the shard is the op itself,
    # not an equal copy.
    trace = all_profiles()[name][1].trace
    table = trace_classes(trace)
    plan = TensorParallel(1).partition(trace)
    assert len(plan.classes) == len(table.ops)
    for cls, op in zip(plan.classes, table.ops):
        assert len(cls.ops) == 1 and cls.ops[0] is op


@pytest.mark.parametrize("strategy", ["tp", "dp"])
def test_strong_scaling_one_rank_is_the_trace(strategy):
    model = build_model("stable_diffusion@256")
    trace = profile_model(
        model, gpu=A100.gpu, attention_impl=AttentionImpl.FLASH
    ).trace
    (point,) = strong_scaling(
        model, "dgx-a100-80g", worlds=(1,), strategy=strategy
    )
    assert point.time_s == trace.total_time_s
    assert point.compute_time_s == trace.total_time_s
    assert point.comm_time_s == 0.0
    assert point.speedup == 1.0
