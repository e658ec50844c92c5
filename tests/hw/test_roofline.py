"""Roofline bound classification tests."""

import math

import pytest

from repro.hw.roofline import classify_bound
from repro.hw.spec import A100_80GB, PRESETS
from repro.ir.dtypes import FP16, FP32


class TestClassify:
    def test_below_ridge_is_memory(self):
        assert classify_bound(A100_80GB, 10.0) == "memory"

    def test_above_ridge_is_compute(self):
        assert classify_bound(A100_80GB, 1000.0) == "compute"

    def test_ridge_itself_is_compute(self):
        assert classify_bound(
            A100_80GB, A100_80GB.ridge_point()
        ) == "compute"

    @pytest.mark.parametrize("dtype", [FP16, FP32], ids=str)
    @pytest.mark.parametrize("name", sorted(PRESETS))
    def test_each_gpu_bends_at_its_ridge(self, name, dtype):
        gpu = PRESETS[name]
        ridge = gpu.ridge_point(dtype)
        assert classify_bound(gpu, ridge, dtype) == "compute"
        assert classify_bound(
            gpu, math.nextafter(ridge, 0.0), dtype
        ) == "memory"

    @pytest.mark.parametrize("name", sorted(PRESETS))
    def test_fp32_roof_bends_first(self, name):
        # FP32 peaks lower on the same bandwidth, so the FP16 ridge is
        # already compute-bound in FP32.
        gpu = PRESETS[name]
        ridge = gpu.ridge_point(FP16)
        assert gpu.ridge_point(FP32) < ridge
        assert classify_bound(gpu, math.nextafter(ridge, 0.0)) == "memory"
        assert classify_bound(
            gpu, math.nextafter(ridge, 0.0), FP32
        ) == "compute"
