"""GPU hardware specifications.

The paper characterizes every workload on NVIDIA A100-80GB GPUs; the
roofline in Figure 5 is drawn against the A100's FP16 tensor-core peak
and HBM bandwidth.  ``GPUSpec`` captures the handful of machine
parameters the analytical performance model needs, plus presets for the
A100 variants and neighbouring parts so scaling studies can swap devices.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

from repro.ir.dtypes import BF16, FP8, FP16, FP32, INT8, TF32, DType


@dataclass(frozen=True)
class CacheSpec:
    """Geometry of one cache level."""

    capacity_bytes: int
    line_bytes: int
    associativity: int
    bandwidth_bytes_per_s: float

    def __post_init__(self) -> None:
        for name in ("capacity_bytes", "line_bytes", "associativity"):
            if getattr(self, name) < 1:
                raise ValueError(
                    f"{name} must be >= 1, got {getattr(self, name)!r}"
                )
        # ``nan <= 0`` is False: check finiteness explicitly.
        bandwidth = self.bandwidth_bytes_per_s
        if not (math.isfinite(bandwidth) and bandwidth > 0):
            raise ValueError(
                "bandwidth_bytes_per_s must be finite and positive, got "
                f"{bandwidth!r}"
            )
        if self.capacity_bytes % (self.line_bytes * self.associativity):
            raise ValueError(
                "cache capacity must be a multiple of line_bytes * associativity"
            )

    @property
    def num_sets(self) -> int:
        return self.capacity_bytes // (self.line_bytes * self.associativity)


@dataclass(frozen=True)
class GPUSpec:
    """Performance-relevant description of a GPU.

    Attributes:
        name: marketing name, e.g. ``"A100-80GB-SXM"``.
        sm_count: number of streaming multiprocessors.
        peak_flops: dict mapping dtype name to peak FLOP/s achievable for
            dense GEMM in that precision (tensor cores where applicable).
        vector_flops: FLOP/s for non-GEMM (CUDA-core) arithmetic.
        dram_bandwidth: HBM bandwidth in bytes/s.
        dram_capacity: HBM capacity in bytes.
        l2: level-2 cache spec (shared across SMs).
        l1_per_sm: per-SM level-1/shared-memory cache spec.
        kernel_launch_overhead_s: fixed host-side + scheduling cost per
            kernel launch (gap between dependent kernels at inference
            batch sizes).
    """

    name: str
    sm_count: int
    peak_flops: dict[str, float]
    vector_flops: float
    dram_bandwidth: float
    dram_capacity: int
    l2: CacheSpec
    l1_per_sm: CacheSpec
    kernel_launch_overhead_s: float = 4.0e-6

    def peak_flops_for(self, dtype: DType) -> float:
        """Peak GEMM FLOP/s for ``dtype``, falling back to vector rate."""
        return self.peak_flops.get(dtype.name, self.vector_flops)

    @property
    def l1_total_bytes(self) -> int:
        return self.l1_per_sm.capacity_bytes * self.sm_count

    def ridge_point(self, dtype: DType = FP16) -> float:
        """Arithmetic intensity (FLOP/byte) where the roofline bends."""
        return self.peak_flops_for(dtype) / self.dram_bandwidth

    def with_launch_overhead(self, seconds: float) -> "GPUSpec":
        """Copy of this spec with a different launch-overhead constant.

        Used by the ablation benchmarks: the temporal-attention result is
        sensitive to small-kernel cost.
        """
        return replace(self, kernel_launch_overhead_s=seconds)


def _a100_cache_l2() -> CacheSpec:
    return CacheSpec(
        capacity_bytes=40 * 1024 * 1024,
        line_bytes=128,
        associativity=16,
        bandwidth_bytes_per_s=5.0e12,
    )


def _a100_cache_l1() -> CacheSpec:
    return CacheSpec(
        capacity_bytes=192 * 1024,
        line_bytes=128,
        associativity=4,
        bandwidth_bytes_per_s=19.4e12,
    )


A100_80GB = GPUSpec(
    name="A100-80GB-SXM",
    sm_count=108,
    peak_flops={
        FP16.name: 312e12,
        BF16.name: 312e12,
        TF32.name: 156e12,
        INT8.name: 624e12,
        FP32.name: 19.5e12,
    },
    vector_flops=19.5e12,
    dram_bandwidth=2.039e12,
    dram_capacity=80 * 1024**3,
    l2=_a100_cache_l2(),
    l1_per_sm=_a100_cache_l1(),
)

A100_40GB = GPUSpec(
    name="A100-40GB-SXM",
    sm_count=108,
    peak_flops=dict(A100_80GB.peak_flops),
    vector_flops=19.5e12,
    dram_bandwidth=1.555e12,
    dram_capacity=40 * 1024**3,
    l2=_a100_cache_l2(),
    l1_per_sm=_a100_cache_l1(),
)

H100_80GB = GPUSpec(
    name="H100-80GB-SXM",
    sm_count=132,
    peak_flops={
        FP16.name: 989e12,
        BF16.name: 989e12,
        TF32.name: 494e12,
        FP8.name: 1979e12,
        INT8.name: 1979e12,
        FP32.name: 67e12,
    },
    vector_flops=67e12,
    dram_bandwidth=3.35e12,
    dram_capacity=80 * 1024**3,
    l2=CacheSpec(
        capacity_bytes=50 * 1024 * 1024,
        line_bytes=128,
        associativity=16,
        bandwidth_bytes_per_s=8.0e12,
    ),
    l1_per_sm=CacheSpec(
        capacity_bytes=256 * 1024,
        line_bytes=128,
        associativity=4,
        bandwidth_bytes_per_s=33.0e12,
    ),
)

V100_32GB = GPUSpec(
    name="V100-32GB-SXM",
    sm_count=80,
    peak_flops={
        FP16.name: 125e12,
        FP32.name: 15.7e12,
    },
    vector_flops=15.7e12,
    dram_bandwidth=0.9e12,
    dram_capacity=32 * 1024**3,
    l2=CacheSpec(
        capacity_bytes=6 * 1024 * 1024,
        line_bytes=128,
        associativity=16,
        bandwidth_bytes_per_s=2.5e12,
    ),
    l1_per_sm=CacheSpec(
        capacity_bytes=128 * 1024,
        line_bytes=128,
        associativity=4,
        bandwidth_bytes_per_s=12.0e12,
    ),
)

# AMD MI300X (CDNA3): the non-NVIDIA point in the multi-backend
# registry.  304 CUs stand in for sm_count; the 256 MB Infinity Cache
# plays the L2 role in the memory model.  Peak numbers are dense (no
# structured sparsity), matching how the NVIDIA presets are quoted.
MI300X_192GB = GPUSpec(
    name="MI300X-192GB-OAM",
    sm_count=304,
    peak_flops={
        FP16.name: 1307e12,
        BF16.name: 1307e12,
        TF32.name: 653e12,
        FP8.name: 2614e12,
        INT8.name: 2614e12,
        FP32.name: 163.4e12,
    },
    vector_flops=163.4e12,
    dram_bandwidth=5.3e12,
    dram_capacity=192 * 1024**3,
    l2=CacheSpec(
        capacity_bytes=256 * 1024 * 1024,
        line_bytes=128,
        associativity=16,
        bandwidth_bytes_per_s=17.0e12,
    ),
    l1_per_sm=CacheSpec(
        capacity_bytes=64 * 1024,
        line_bytes=128,
        associativity=4,
        bandwidth_bytes_per_s=40.0e12,
    ),
)

PRESETS: dict[str, GPUSpec] = {
    spec.name: spec
    for spec in (A100_80GB, A100_40GB, H100_80GB, V100_32GB, MI300X_192GB)
}


def gpu_from_name(name: str) -> GPUSpec:
    """Look up a preset GPU by name."""
    try:
        return PRESETS[name]
    except KeyError:
        raise ValueError(
            f"unknown GPU {name!r}; known: {sorted(PRESETS)}"
        ) from None
