"""The left-to-right float reduction against ``sum()`` on 3.10/3.11
and against CPython 3.12's compensated ``sum()``."""

import random

import numpy as np
import pytest

from repro.ordered_sum import ordered_sum
from tests.py312_sum import py312_sum


def left_to_right(values):
    total = 0
    for value in values:
        total += value
    return total


class TestPy312Sum:
    """The emulation differs from the plain loop where 3.12 does."""

    def test_compensates_floats(self):
        assert py312_sum([0.1] * 10) == 1.0
        assert left_to_right([0.1] * 10) == 0.9999999999999999
        assert py312_sum([1e16, 1.0, -1e16]) == 1.0

    def test_ints_and_empty_stay_ints(self):
        assert py312_sum([]) == 0 and type(py312_sum([])) is int
        assert py312_sum([1, 2, True]) == 4
        assert py312_sum([1.5, 2]) == 3.5

    def test_infinite_total_is_not_nan(self):
        assert py312_sum([1e308, 1e308, -1.0]) == float("inf")

    def test_start_value(self):
        assert py312_sum([0.5, 0.25], 1.0) == 1.75
        with pytest.raises(TypeError):
            py312_sum(["a"], "")


class TestOrderedSum:
    def test_matches_left_to_right_loop(self):
        rng = random.Random(3)
        for _ in range(200):
            values = [
                rng.uniform(-1e3, 1e3) * 10 ** rng.randint(-8, 8)
                for _ in range(rng.randint(1, 60))
            ]
            want = left_to_right(values)
            assert ordered_sum(values).hex() == want.hex()
            assert ordered_sum(np.array(values)).hex() == want.hex()

    def test_ignores_a_compensated_builtin(self, monkeypatch):
        import builtins

        monkeypatch.setattr(builtins, "sum", py312_sum)
        values = [0.1] * 10
        assert ordered_sum(values) == 0.9999999999999999
        assert ordered_sum(np.array(values)) == 0.9999999999999999

    def test_empty_is_int_zero(self):
        for empty in ([], (), iter(()), np.array([])):
            total = ordered_sum(empty)
            assert total == 0 and type(total) is int

    def test_zero_total_is_positive_zero(self):
        for values in ([-0.0], np.array([-0.0, -0.0])):
            assert ordered_sum(values).hex() == sum([-0.0]).hex()
            assert str(ordered_sum(values)) == "0.0"

    def test_array_result_is_a_python_float(self):
        assert type(ordered_sum(np.array([1.0, 2.0]))) is float
        assert type(ordered_sum(np.array([1, 2]))) is int


def test_fsdp_pods_and_tp_plans_unchanged_under_python312_sum(monkeypatch):
    """FSDP collective totals, the pod scheduler's floats and
    tensor-parallel plan totals keep their bits when CPython 3.12's
    compensated ``sum()`` is patched in."""
    import builtins

    from repro.distributed.partition import TensorParallel
    from repro.ir.context import AttentionImpl, ExecutionContext
    from repro.ir.tensor import TensorSpec
    from repro.models.stable_diffusion import StableDiffusion
    from repro.optimizations.step_pods import schedule_pods
    from repro.training.fsdp import fsdp_step_cost

    model = StableDiffusion()
    traces = []
    for batch in (1, 2):
        ctx = ExecutionContext(attention_impl=AttentionImpl.FLASH)
        model.unet(ctx, TensorSpec((batch, 4, 64, 64)))
        traces.append(ctx.trace)
    trace, step = traces
    params = model.param_count()

    def totals():
        values = []
        for world_size in (1, 2, 4, 8, 16, 32, 64, 128):
            cost = fsdp_step_cost(trace, params, world_size=world_size)
            values += [cost.all_gather_s, cost.reduce_scatter_s]
        for copies in (2, 4, 8, 16):
            report = schedule_pods(trace, copies)
            values += [
                report.aligned_makespan_s, report.staggered_makespan_s,
                report.aligned_peak_demand, report.staggered_peak_demand,
                report.average_demand,
            ]
        for tp in (2, 4, 8):
            plan = TensorParallel(tp).partition(step)
            values += [plan.total_flops(), plan.comm_payload_bytes()]
        return [value.hex() for value in values]

    plain = totals()
    monkeypatch.setattr(builtins, "sum", py312_sum)
    assert totals() == plain
