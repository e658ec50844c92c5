"""GPU spec tests."""

import pytest

from repro.hw.spec import (
    A100_40GB,
    A100_80GB,
    H100_80GB,
    PRESETS,
    V100_32GB,
    CacheSpec,
    gpu_from_name,
)
from repro.ir.dtypes import BF16, FP16, FP32, INT8


class TestCacheSpec:
    def test_num_sets(self):
        spec = CacheSpec(
            capacity_bytes=192 * 1024,
            line_bytes=128,
            associativity=4,
            bandwidth_bytes_per_s=1e12,
        )
        assert spec.num_sets == 192 * 1024 // (128 * 4)

    def test_rejects_non_positive_capacity(self):
        with pytest.raises(ValueError):
            CacheSpec(0, 128, 4, 1e12)

    def test_rejects_non_divisible_geometry(self):
        with pytest.raises(ValueError):
            CacheSpec(1000, 128, 4, 1e12)

    @pytest.mark.parametrize(
        "field, value",
        [
            ("capacity_bytes", 0),
            ("capacity_bytes", -4096),
            ("line_bytes", 0),
            ("line_bytes", -64),
            ("associativity", 0),
            ("associativity", -2),
            ("bandwidth_bytes_per_s", 0.0),
            ("bandwidth_bytes_per_s", -1.0),
            ("bandwidth_bytes_per_s", float("nan")),
            ("bandwidth_bytes_per_s", float("inf")),
        ],
    )
    def test_rejects_bad_field(self, field, value):
        fields = {
            "capacity_bytes": 4096,
            "line_bytes": 64,
            "associativity": 4,
            "bandwidth_bytes_per_s": 1e12,
        }
        with pytest.raises(ValueError, match=field):
            CacheSpec(**{**fields, field: value})


class TestA100:
    def test_fp16_peak_is_tensor_core(self):
        assert A100_80GB.peak_flops_for(FP16) == pytest.approx(312e12)

    def test_bf16_matches_fp16(self):
        assert A100_80GB.peak_flops_for(BF16) == A100_80GB.peak_flops_for(
            FP16
        )

    def test_int8_doubles_fp16(self):
        assert A100_80GB.peak_flops_for(INT8) == pytest.approx(624e12)

    def test_fp32_uses_cuda_cores(self):
        assert A100_80GB.peak_flops_for(FP32) == pytest.approx(19.5e12)

    def test_ridge_point_near_153(self):
        assert A100_80GB.ridge_point() == pytest.approx(153, rel=0.01)

    def test_80gb_has_more_bandwidth_than_40gb(self):
        assert A100_80GB.dram_bandwidth > A100_40GB.dram_bandwidth

    def test_l1_total_is_per_sm_times_sms(self):
        assert (
            A100_80GB.l1_total_bytes
            == A100_80GB.l1_per_sm.capacity_bytes * 108
        )

    def test_capacity_is_80_gib(self):
        assert A100_80GB.dram_capacity == 80 * 1024**3


class TestPresets:
    def test_h100_faster_than_a100(self):
        assert H100_80GB.peak_flops_for(FP16) > A100_80GB.peak_flops_for(
            FP16
        )
        assert H100_80GB.dram_bandwidth > A100_80GB.dram_bandwidth

    def test_v100_slower_than_a100(self):
        assert V100_32GB.peak_flops_for(FP16) < A100_80GB.peak_flops_for(
            FP16
        )

    def test_lookup_by_name(self):
        assert gpu_from_name("A100-80GB-SXM") is A100_80GB

    def test_lookup_unknown_raises(self):
        with pytest.raises(ValueError, match="unknown GPU"):
            gpu_from_name("TPU-v4")

    def test_all_presets_registered(self):
        # V100, A100 x2, H100, MI300X
        assert len(PRESETS) == 5

    def test_unknown_dtype_falls_back_to_vector(self):
        from repro.ir.dtypes import INT64

        assert A100_80GB.peak_flops_for(INT64) == A100_80GB.vector_flops


class TestWithLaunchOverhead:
    def test_returns_modified_copy(self):
        slower = A100_80GB.with_launch_overhead(10e-6)
        assert slower.kernel_launch_overhead_s == pytest.approx(10e-6)
        assert A100_80GB.kernel_launch_overhead_s == pytest.approx(4e-6)
        assert slower.dram_bandwidth == A100_80GB.dram_bandwidth
