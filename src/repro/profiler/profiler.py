"""Model profiler: runs a pipeline and captures its kernel trace.

The analog of the paper's PyTorch-Profiler-plus-hooks framework
(Section III, "Tools"): where the paper hooks each module's forward
function, every :class:`~repro.ir.module.Module` call opens
:meth:`ExecutionContext.module_scope`, which annotates the kernels it
emits with the module path.  The resulting :class:`ProfileResult` feeds
the breakdown, speedup and sequence-length analyses.
"""

from __future__ import annotations

import weakref
from dataclasses import dataclass

from repro.hw.spec import A100_80GB, GPUSpec
from repro.ir.context import AttentionImpl, ExecutionContext
from repro.ir.module import Module
from repro.ir.trace import Trace
from repro.kernels.base import DEFAULT_TUNING, TuningConstants
from repro.kernels.estimator import CostEstimator

# Process-wide profile memo: model instance -> {(machine token,
# attention impl, batch): ProfileResult, (attention impl, batch): the
# first trace run for it}.  Different experiments ask for the same
# configuration; profiling is deterministic, so they share one result,
# and another machine prices the recorded trace instead of running the
# model again.  Keyed weakly so profiles die with their model.
# Disabled along with every other layer by REPRO_NO_CACHE=1 (the
# estimator then carries no cache token, and every call runs the model).
_PROFILE_CACHE: "weakref.WeakKeyDictionary[Module, dict]" = (
    weakref.WeakKeyDictionary()
)


def clear_profile_cache() -> None:
    """Drop memoized profiles and recordings (tests, tuning ablations)."""
    _PROFILE_CACHE.clear()


@dataclass
class ProfileResult:
    """Trace plus the configuration that produced it."""

    model_name: str
    gpu: GPUSpec
    attention_impl: AttentionImpl
    trace: Trace
    parameters: int

    @property
    def total_time_s(self) -> float:
        return self.trace.total_time_s

    @property
    def total_flops(self) -> float:
        return self.trace.total_flops


def profile_model(
    model: Module,
    *,
    gpu: GPUSpec = A100_80GB,
    attention_impl: AttentionImpl = AttentionImpl.BASELINE,
    tuning: TuningConstants = DEFAULT_TUNING,
    batch: int = 1,
) -> ProfileResult:
    """Run one full inference of ``model`` and capture the trace.

    ``model`` must expose ``run_inference(ctx, batch=...)`` (every model
    in :mod:`repro.models` does).  Results are memoized per (model,
    machine, attention impl, batch): repeated profiles of one
    configuration return the same :class:`ProfileResult` object.  The
    model runs once per (attention impl, batch): another machine or
    tuning prices that recording (:meth:`repro.ir.trace.Trace.priced`)
    without calling a module.
    """
    if not isinstance(batch, int) or batch < 1:
        raise ValueError(f"batch must be an int >= 1, got {batch!r}")
    estimator = CostEstimator(gpu, tuning)
    key = None
    table = None
    recording = None
    if estimator.cache_token is not None:
        key = (estimator.cache_token, attention_impl, batch)
        table = _PROFILE_CACHE.get(model)
        if table is None:
            table = _PROFILE_CACHE.setdefault(model, {})
        cached = table.get(key)
        if cached is not None:
            return cached
        recording = table.get((attention_impl, batch))
    if recording is not None:
        trace = recording.priced(estimator)
    else:
        ctx = ExecutionContext(
            gpu=gpu,
            attention_impl=attention_impl,
            estimator=estimator,
        )
        model.run_inference(ctx, batch=batch)
        trace = ctx.trace
    result = ProfileResult(
        model_name=model.name,
        gpu=gpu,
        attention_impl=attention_impl,
        trace=trace,
        parameters=model.param_count(),
    )
    if table is not None:
        table[key] = result
        table.setdefault((attention_impl, batch), trace)
    return result


def profile_both(
    model: Module,
    *,
    gpu: GPUSpec = A100_80GB,
    tuning: TuningConstants = DEFAULT_TUNING,
    batch: int = 1,
) -> tuple[ProfileResult, ProfileResult]:
    """Profile with baseline attention and with Flash Attention."""
    baseline = profile_model(
        model, gpu=gpu, attention_impl=AttentionImpl.BASELINE,
        tuning=tuning, batch=batch,
    )
    flash = profile_model(
        model, gpu=gpu, attention_impl=AttentionImpl.FLASH,
        tuning=tuning, batch=batch,
    )
    return baseline, flash
