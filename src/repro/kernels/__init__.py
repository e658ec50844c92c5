"""GPU kernel cost models and kernel-level analyses."""

from repro.kernels.attention import (
    AttentionCacheReport,
    attention_matmul_flops,
    similarity_matrix_bytes,
    simulate_attention_cache,
)
from repro.kernels.base import (
    DEFAULT_TUNING,
    CostModelBase,
    TuningConstants,
    tile_quantization,
    wave_efficiency,
)
from repro.kernels.conv import ConvCostModel
from repro.kernels.estimator import CostEstimator
from repro.kernels.flash_attention import FlashAttentionCostModel
from repro.kernels.gemm import GemmCostModel
from repro.kernels.normalization import BandwidthCostModel

__all__ = [
    "AttentionCacheReport",
    "BandwidthCostModel",
    "ConvCostModel",
    "CostEstimator",
    "CostModelBase",
    "DEFAULT_TUNING",
    "FlashAttentionCostModel",
    "GemmCostModel",
    "TuningConstants",
    "attention_matmul_flops",
    "similarity_matrix_bytes",
    "simulate_attention_cache",
    "tile_quantization",
    "wave_efficiency",
]
