"""Cost-model dispatch: one entry point for the execution context."""

from __future__ import annotations

from repro.hw.spec import GPUSpec
from repro.ir.ops import (
    Conv2d,
    Conv3d,
    Elementwise,
    Embedding,
    FusedAttention,
    Gemm,
    GroupNorm,
    LayerNorm,
    Op,
    Resample,
    Softmax,
    Transpose,
)
from repro.ir.trace import KernelCost
from repro.kernels.base import DEFAULT_TUNING, TuningConstants
from repro.kernels.cache import (
    GLOBAL_COST_CACHE,
    caching_disabled_by_env,
    machine_token,
)
from repro.kernels.conv import ConvCostModel
from repro.kernels.flash_attention import FlashAttentionCostModel
from repro.kernels.gemm import GemmCostModel
from repro.kernels.normalization import BandwidthCostModel


class CostEstimator:
    """Routes each operator to its kernel cost model.

    Costs are memoized in the process-wide
    :data:`repro.kernels.cache.GLOBAL_COST_CACHE`, content-addressed on
    (operator, GPU spec, tuning), so every estimator pricing the same
    machine shares one table.  Pass ``use_cache=False`` (or set
    ``REPRO_NO_CACHE=1``) to price every operator from scratch.
    """

    def __init__(
        self,
        spec: GPUSpec,
        tuning: TuningConstants = DEFAULT_TUNING,
        *,
        use_cache: bool | None = None,
    ):
        self.spec = spec
        self.tuning = tuning
        self.gemm = GemmCostModel(spec, tuning)
        self.conv = ConvCostModel(spec, tuning)
        self.flash = FlashAttentionCostModel(spec, tuning)
        self.bandwidth = BandwidthCostModel(spec, tuning)
        if use_cache is None:
            use_cache = not caching_disabled_by_env()
        self.cache_token = machine_token(spec, tuning) if use_cache else None
        if use_cache:
            # Bound methods resolved once: estimate() is the hottest
            # call in the simulator and runs a few hundred thousand
            # times per experiment sweep.
            self._bucket = GLOBAL_COST_CACHE.bucket(self.cache_token)
            self._count_hit = GLOBAL_COST_CACHE.count_hit
            self._count_miss = GLOBAL_COST_CACHE.count_miss

    def compute_estimate(self, op: Op) -> KernelCost:
        """Price one operator launch via its kernel model (uncached)."""
        if isinstance(op, Gemm):
            return self.gemm.estimate(op)
        if isinstance(op, (Conv2d, Conv3d)):
            return self.conv.estimate(op)
        if isinstance(op, FusedAttention):
            return self.flash.estimate(op)
        if isinstance(
            op,
            (Softmax, GroupNorm, LayerNorm, Elementwise, Embedding, Resample,
             Transpose),
        ):
            return self.bandwidth.estimate(op)
        raise TypeError(f"no cost model for operator type {type(op).__name__}")

    def estimate(self, op: Op) -> KernelCost:
        """Cost one operator launch (shared-cache hit after the first)."""
        if self.cache_token is None:
            return self.compute_estimate(op)
        cost = self._bucket.get(op)
        if cost is None:
            cost = self._bucket[op] = self.compute_estimate(op)
            self._count_miss()
        else:
            self._count_hit()
        return cost

    def cache_size(self) -> int:
        """Distinct operator shapes priced for this machine so far."""
        if self.cache_token is None:
            return 0
        return len(GLOBAL_COST_CACHE.bucket(self.cache_token))

