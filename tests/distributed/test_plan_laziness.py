"""Partitioning and pricing build no events.

A plan is stored by kernel class, so the partitioners read the trace's
rows and timings, not its events, and ``build_timelines`` walks the
class index.
"""

from __future__ import annotations

from collections import Counter

from repro.distributed.partition import DataParallel, TensorParallel
from repro.distributed.registry import machine_from_name
from repro.distributed.scaling import strong_scaling, weak_scaling
from repro.distributed.timeline import build_timelines
from repro.ir.context import AttentionImpl, ExecutionContext
from repro.ir.trace import TraceEvent
from repro.models.registry import build_model
from repro.profiler import profile_model, profile_sharded

MACHINE = machine_from_name("dgx-a100-80g")


def test_plans_build_no_events(monkeypatch):
    built = Counter()
    init = TraceEvent.__init__
    emit = ExecutionContext.emit

    def counting_init(self, *args, **kwargs):
        built["TraceEvent"] += 1
        init(self, *args, **kwargs)

    def counting_emit(self, *args, **kwargs):
        built["emit"] += 1
        return emit(self, *args, **kwargs)

    monkeypatch.setattr(TraceEvent, "__init__", counting_init)
    monkeypatch.setattr(ExecutionContext, "emit", counting_emit)
    # A fresh instance, so the profile memo cannot answer; the scaling
    # sweeps and profile_sharded below reuse this profile through it.
    model = build_model("stable_diffusion@256")
    trace = profile_model(
        model, gpu=MACHINE.gpu, attention_impl=AttentionImpl.FLASH
    ).trace
    assert built["TraceEvent"] == built["emit"] < len(trace) // 10

    for strategy in ("tp", "dp"):
        strong_scaling(model, MACHINE, (1, 2, 3), strategy=strategy)
    # World 2 profiles a batch-2 trace: only its emissions build events.
    weak_scaling(model, MACHINE, (1, 2))
    for keep_entries in (True, False):
        result = profile_sharded(
            model, machine=MACHINE, world=2, keep_entries=keep_entries
        )
        assert result.source_trace is trace
    plans = [
        strategy.partition(trace)
        for strategy in (TensorParallel(4), DataParallel(2, batch=3))
    ]
    for plan in plans:
        build_timelines(plan, MACHINE)
    assert built["TraceEvent"] == built["emit"]
