"""repro: a reproduction of "Generative AI Beyond LLMs: System
Implications of Multi-Modal Generation" (ISPASS 2024).

The package is organized bottom-up:

* :mod:`repro.hw` — GPU specs, roofline math, cache simulator.
* :mod:`repro.ir` — symbolic tensors, operators, module tree, traces.
* :mod:`repro.kernels` — analytical kernel cost models (GEMM, conv,
  baseline vs Flash attention, bandwidth kernels) and the attention
  cache-behaviour simulator.
* :mod:`repro.layers` — model building blocks (linear, conv, resnet,
  attention variants, transformer blocks, UNets).
* :mod:`repro.models` — the paper's eight-workload suite.
* :mod:`repro.profiler` — trace capture, operator breakdowns, speedup
  and sequence-length analyses, chrome-trace export.
* :mod:`repro.analysis` — the paper's analytical frameworks (fleet,
  Pareto, attention memory, batching and scaling sweeps).
* :mod:`repro.experiments` — one module per table/figure, with claim
  checks against the published values.

Quickstart::

    from repro import profile_both, build_model, speedup_report

    model = build_model("stable_diffusion")
    baseline, flash = profile_both(model)
    print(speedup_report(baseline.trace, flash.trace).end_to_end_speedup)
"""

from repro.hw import A100_80GB, H100_80GB, GPUSpec
from repro.ir import AttentionImpl, ExecutionContext, Module, OpCategory, Trace
from repro.kernels import CostEstimator, TuningConstants
from repro.models import MODEL_SUITE, GenerativeModel, build_model, suite_names
from repro.profiler import (
    breakdown,
    profile_both,
    profile_model,
    sequence_length_distribution,
    sequence_length_profile,
    speedup_report,
    temporal_spatial_report,
)

__version__ = "1.0.0"

__all__ = [
    "A100_80GB",
    "AttentionImpl",
    "CostEstimator",
    "ExecutionContext",
    "GPUSpec",
    "GenerativeModel",
    "H100_80GB",
    "MODEL_SUITE",
    "Module",
    "OpCategory",
    "Trace",
    "TuningConstants",
    "__version__",
    "breakdown",
    "build_model",
    "profile_both",
    "profile_model",
    "sequence_length_distribution",
    "sequence_length_profile",
    "speedup_report",
    "suite_names",
    "temporal_spatial_report",
]
