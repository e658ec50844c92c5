"""Optimizations the paper's characterization motivates.

Two of the paper's forward-looking proposals, implemented against the
same cost models as the characterization:

* :mod:`repro.optimizations.flash_decoding` — split-KV attention for
  decode shapes (the gap Table III exposes);
* :mod:`repro.optimizations.step_pods` — staggered denoising-step pods
  to smooth the cyclic bandwidth demand of diffusion UNets (Section V).
"""

from repro.optimizations.flash_decoding import (
    DecodeAttentionComparison,
    FlashDecodingModel,
    compare_decode_attention,
)
from repro.optimizations.step_pods import (
    DemandBin,
    PodScheduleReport,
    bandwidth_demand_profile,
    schedule_pods,
)

__all__ = [
    "DecodeAttentionComparison",
    "DemandBin",
    "FlashDecodingModel",
    "PodScheduleReport",
    "bandwidth_demand_profile",
    "compare_decode_attention",
    "schedule_pods",
]
