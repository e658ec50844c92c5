"""Profiling and analysis of model traces (the paper's tooling layer)."""

from repro.profiler.breakdown import (
    OperatorBreakdown,
    SpeedupReport,
    TemporalSpatialReport,
    attention_core_time,
    breakdown,
    speedup_report,
    temporal_spatial_report,
)
from repro.profiler.distributed import DistributedProfileResult, profile_sharded
from repro.profiler.memory_footprint import (
    InferenceMemoryFootprint,
    estimate_inference_memory,
    kv_cache_bytes,
    suite_kv_cache_bytes,
)
from repro.profiler.profiler import ProfileResult, profile_both, profile_model
from repro.profiler.summary import (
    ComponentSummary,
    render_summary,
    summarize_components,
)
from repro.profiler.seqlen import (
    SeqLenDistribution,
    SeqLenSample,
    fundamental_period,
    sequence_length_distribution,
    sequence_length_profile,
)
from repro.profiler.trace_export import (
    CATEGORY_LANES,
    load_chrome_trace,
    parse_chrome_trace,
    to_chrome_trace,
)

__all__ = [
    "CATEGORY_LANES",
    "ComponentSummary",
    "DistributedProfileResult",
    "InferenceMemoryFootprint",
    "OperatorBreakdown",
    "ProfileResult",
    "estimate_inference_memory",
    "kv_cache_bytes",
    "render_summary",
    "suite_kv_cache_bytes",
    "summarize_components",
    "SeqLenDistribution",
    "SeqLenSample",
    "SpeedupReport",
    "TemporalSpatialReport",
    "attention_core_time",
    "breakdown",
    "fundamental_period",
    "load_chrome_trace",
    "parse_chrome_trace",
    "profile_both",
    "profile_model",
    "profile_sharded",
    "sequence_length_distribution",
    "sequence_length_profile",
    "speedup_report",
    "temporal_spatial_report",
    "to_chrome_trace",
]
