"""Per-class axis pricing equals per-event pricing, field for field.

:func:`build_axis` prices each (op, role, collective, fold factor)
class of a trace once and gathers the per-event arrays by class index;
the reference :func:`bruteforce_axis` partitions the trace and prices
every event on its own.  Classes compare ops by value, so equal op
copies share one.  A toy model reuses one op object under a column leaf and a row leaf,
at two fold factors, so a class key that dropped the role or the fold
factor would merge events that price differently.  A real Muse trace
pins the equality at suite scale.
"""

import dataclasses

import numpy as np
import pytest

from repro.distributed.collectives import CollectiveKind
from repro.distributed.partition import TensorParallel, trace_classes
from repro.distributed.planner import (
    ParallelConfig,
    PlannerBasis,
    TPAxis,
    build_axis,
)
from repro.distributed.registry import machine_from_name
from repro.distributed.sharding import ShardRole
from repro.distributed.timeline import build_timelines
from repro.experiments.suite_cache import model_instance
from repro.ir.context import ExecutionContext
from repro.ir.module import Module
from repro.ir.ops import Gemm
from tests.distributed.plan_reference import (
    axis_comm,
    axis_comm_sp,
    axis_out_bytes,
    axis_times,
    bruteforce_axis,
    sharded_events,
)

MACHINE = machine_from_name("dgx-a100-80g")
TP_DEGREES = (1, 2, 4, 8)
# Every per-event value an axis carries, and its scalars: the class
# arrays themselves differ (the reference makes each event a class).
AXIS_VIEWS = (
    "tp", "batch", "times", "comm", "comm_sp", "out_bytes", "acc",
    "acc_sp", "comm_total_s", "comm_sp_total_s", "total_s",
    "act_peak_shard", "max_comm_payload",
)
EVENT_VIEWS = {
    "times": axis_times,
    "comm": axis_comm,
    "comm_sp": axis_comm_sp,
    "out_bytes": axis_out_bytes,
}


class SharedOpModel(Module):
    """One weight op object under a column and a row leaf, folded 1x and 3x."""

    FOLDS = (1, 3)

    def __init__(self):
        super().__init__(name="shared_op")
        self.op = Gemm("shared", m=128, n=512, k=512, b_is_weight=True)

    def own_param_count(self) -> int:
        return 512 * 512

    def run_inference(self, ctx: ExecutionContext, batch: int = 1) -> None:
        for index, fold in enumerate(self.FOLDS):
            with ctx.named_scope(f"block{index}"):
                with ctx.named_scope("up"):
                    ctx.emit(self.op, repeat=fold)
                with ctx.named_scope("down"):
                    ctx.emit(self.op, repeat=fold)


def axis_view(axis: TPAxis, name: str):
    """One of :data:`AXIS_VIEWS`, arrays as lists of Python floats."""
    if name in EVENT_VIEWS:
        return EVENT_VIEWS[name](axis)
    value = getattr(axis, name)
    return value.tolist() if isinstance(value, np.ndarray) else value


def assert_axes_equal(axis: TPAxis, reference: TPAxis) -> None:
    for name in AXIS_VIEWS:
        assert axis_view(axis, name) == axis_view(reference, name), name


@pytest.fixture(scope="module")
def toy_trace():
    return PlannerBasis(SharedOpModel(), MACHINE).trace(1)


class TestSharedOpClasses:
    def test_one_op_object_forms_four_classes(self, toy_trace):
        assert len({id(event.op) for event in toy_trace}) == 1
        table = trace_classes(toy_trace)
        assert len(table) == 4
        assert table.index == (0, 1, 2, 3)

    def test_equal_op_copies_share_a_class(self):
        # Ops are interned: an equal copy is the same object, and both
        # events fall in one class.
        ctx = ExecutionContext()
        op = Gemm("g", m=64, n=64, k=64)
        assert dataclasses.replace(op) is op
        ctx.emit(op)
        ctx.emit(dataclasses.replace(op))
        assert trace_classes(ctx.trace).index == (0, 0)

    @pytest.mark.parametrize("tp", TP_DEGREES)
    def test_axis_prices_each_role_and_fold(self, toy_trace, tp):
        plan = TensorParallel(tp).partition(toy_trace)
        reduce = CollectiveKind.ALL_REDUCE if tp > 1 else None
        assert [
            (e.role, e.comm.kind if e.comm else None, e.source.repeat)
            for e in sharded_events(plan)
        ] == [
            (ShardRole.COLUMN, None, 1),
            (ShardRole.ROW, reduce, 1),
            (ShardRole.COLUMN, None, 3),
            (ShardRole.ROW, reduce, 3),
        ]
        axis = build_axis(toy_trace, tp, MACHINE)
        assert_axes_equal(axis, bruteforce_axis(toy_trace, tp, MACHINE))
        # Independently of the partition: a 3x fold costs three 1x
        # launches, and only the row leaf issues a collective.
        times, comm = axis_times(axis), axis_comm(axis)
        assert times[2] == times[0] * 3
        assert times[3] == times[1] * 3
        if tp > 1:
            assert comm[0] == comm[2] == 0.0
            assert comm[1] > 0.0
            assert comm[3] == comm[1] * 3


@pytest.fixture(scope="module")
def muse_basis():
    return PlannerBasis(model_instance("muse"), MACHINE)


class TestMuseAxes:
    @pytest.mark.parametrize("batch", [1, 2])
    def test_trace_shape(self, muse_basis, batch):
        trace = muse_basis.trace(batch)
        assert len(trace.events) == 20872
        assert len(trace_classes(trace)) == 78

    @pytest.mark.parametrize("batch", [1, 2])
    @pytest.mark.parametrize("tp", TP_DEGREES)
    def test_axis_equals_per_event_reference(self, muse_basis, batch, tp):
        trace = muse_basis.trace(batch)
        assert_axes_equal(
            build_axis(trace, tp, MACHINE, batch=batch),
            bruteforce_axis(trace, tp, MACHINE, batch=batch),
        )

    @pytest.mark.parametrize("tp", TP_DEGREES)
    def test_replica_latency_is_the_timeline_makespan(self, muse_basis, tp):
        expected = build_timelines(
            TensorParallel(tp).partition(muse_basis.trace(1)),
            MACHINE, keep_entries=False,
        ).total_time_s
        assert (
            muse_basis.replica_latency(ParallelConfig(tp=tp), 1) == expected
        )
