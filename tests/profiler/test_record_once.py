"""Record once, price per machine.

``profile_model`` runs a model once per (attention impl, batch) and
prices that recording for every other machine and tuning
(:meth:`repro.ir.trace.Trace.priced`).  A priced trace must equal the
trace a fresh model records on that machine, field for field and bit
for bit, and must share its recording's class table.
"""

from __future__ import annotations

import gc
from weakref import WeakKeyDictionary

import numpy as np
import pytest

from repro.distributed.partition import trace_classes
from repro.hw.spec import A100_80GB, H100_80GB
from repro.ir.context import AttentionImpl
from repro.kernels.base import TuningConstants
from repro.models.registry import build_model
from repro.profiler import profiler
from repro.profiler.profiler import clear_profile_cache, profile_model

SLOW_GEMM = TuningConstants(gemm_base_utilization=0.6)
MACHINES = (
    {"gpu": H100_80GB},
    {"gpu": A100_80GB, "tuning": SLOW_GEMM},
)


@pytest.fixture(autouse=True)
def no_cyclic_collection():
    """Pause the cyclic collector while traces are built and compared:
    every full collection would rescan the session's cached profiles,
    and the events form no cycles."""
    enabled = gc.isenabled()
    gc.disable()
    yield
    if enabled:
        gc.enable()


def event_fields(trace):
    return [
        (
            event.index, event.module_path, event.op, event.cost,
            event.start_s.hex(), event.flags, event.repeat,
        )
        for event in trace.events
    ]


def assert_same_trace(priced, recorded):
    assert len(priced) == len(recorded)
    assert event_fields(priced) == event_fields(recorded)
    for total in ("total_time_s", "total_flops", "total_moved_bytes"):
        assert getattr(priced, total).hex() == getattr(recorded, total).hex()
    assert {
        category: time_s.hex()
        for category, time_s in priced.time_by_category().items()
    } == {
        category: time_s.hex()
        for category, time_s in recorded.time_by_category().items()
    }
    assert [t.hex() for t in priced.times_s()] == [
        t.hex() for t in recorded.times_s()
    ]
    ours, theirs = trace_classes(priced), trace_classes(recorded)
    for field in ("ops", "roles", "collectives", "repeats", "index"):
        assert getattr(ours, field) == getattr(theirs, field), field
    assert np.array_equal(ours.index_array, theirs.index_array)


@pytest.mark.parametrize("attention", list(AttentionImpl))
@pytest.mark.parametrize(
    "name", ["stable_diffusion", "muse", "make_a_video", "llama"]
)
def test_priced_trace_equals_a_fresh_recording(name, attention):
    # Each model records on one machine and prices the other, so each
    # machine's priced trace meets the other model's recording there.
    models = [build_model(name), build_model(name)]
    recorded = [
        profile_model(model, attention_impl=attention, **machine).trace
        for model, machine in zip(models, MACHINES)
    ]
    priced = [
        profile_model(model, attention_impl=attention, **machine).trace
        for model, machine in zip(models, MACHINES[::-1])
    ]
    for trace, recording in zip(priced, recorded):
        assert trace.priced_from is recording
    assert_same_trace(priced[0], recorded[1])
    assert_same_trace(priced[1], recorded[0])
    for trace, recording in zip(priced, recorded):
        assert trace_classes(trace) is trace_classes(recording)


def counted(model):
    """``model`` with its ``run_inference`` calls counted per machine."""
    runs = []
    run_inference = model.run_inference

    def counting(ctx, batch=1):
        runs.append((ctx.gpu.name, batch))
        return run_inference(ctx, batch=batch)

    model.run_inference = counting
    return runs


def test_second_machine_does_not_run_the_model():
    model = build_model("llama")
    runs = counted(model)
    first = profile_model(model, gpu=H100_80GB)
    assert runs == [(H100_80GB.name, 1)]
    for machine in (
        {"gpu": A100_80GB},
        {"gpu": A100_80GB, "tuning": SLOW_GEMM},
    ):
        priced = profile_model(model, **machine)
        assert priced.trace.priced_from is first.trace
        assert priced.gpu is machine["gpu"]
    assert runs == [(H100_80GB.name, 1)]
    # A new batch or attention impl is a new recording.
    profile_model(model, gpu=A100_80GB, batch=2)
    profile_model(model, gpu=A100_80GB, attention_impl=AttentionImpl.FLASH)
    assert runs == [(H100_80GB.name, 1), (A100_80GB.name, 2),
                    (A100_80GB.name, 1)]
    profile_model(model, gpu=H100_80GB, batch=2)
    assert len(runs) == 3


def test_cleared_cache_records_again(monkeypatch):
    # An empty memo of its own, so clearing it leaves the session's.
    monkeypatch.setattr(profiler, "_PROFILE_CACHE", WeakKeyDictionary())
    model = build_model("llama")
    runs = counted(model)
    profile_model(model, gpu=H100_80GB)
    clear_profile_cache()
    again = profile_model(model, gpu=A100_80GB)
    assert len(runs) == 2 and again.trace.priced_from is None


def test_uncached_profiles_always_record(monkeypatch):
    monkeypatch.setenv("REPRO_NO_CACHE", "1")
    model = build_model("llama")
    runs = counted(model)
    traces = [
        profile_model(model, **machine).trace
        for machine in (*MACHINES, *MACHINES)
    ]
    assert len(runs) == 4
    assert all(trace.priced_from is None for trace in traces)
