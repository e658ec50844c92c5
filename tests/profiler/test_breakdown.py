"""Breakdown / speedup / temporal-report tests."""

import pytest

from repro.ir.context import AttentionImpl, ExecutionContext
from repro.ir.ops import (
    AttentionInfo,
    AttentionKind,
    AttentionRole,
    Elementwise,
    FusedAttention,
    Gemm,
    OpCategory,
)
from repro.profiler.breakdown import (
    attention_core_time,
    attention_module_time,
    breakdown,
    speedup_report,
    temporal_spatial_report,
)


def mixed_trace():
    ctx = ExecutionContext()
    ctx.emit(Gemm("g", m=256, n=256, k=256))
    ctx.emit(Elementwise("e", numel=1000))
    return ctx.trace


class TestBreakdown:
    def test_fractions_sum_to_one(self):
        result = breakdown(mixed_trace())
        assert sum(result.fractions().values()) == pytest.approx(1.0)

    def test_missing_category_fraction_zero(self):
        result = breakdown(mixed_trace())
        assert result.fraction(OpCategory.CONV) == 0.0

    def test_dominant_category(self):
        result = breakdown(mixed_trace())
        assert result.dominant_category() in (
            OpCategory.LINEAR, OpCategory.ELEMENTWISE,
        )

    def test_normalized_to_baseline(self):
        result = breakdown(mixed_trace())
        normalized = result.normalized_to(2 * result.total_time_s)
        assert sum(normalized.values()) == pytest.approx(0.5)

    def test_normalized_rejects_zero_reference(self):
        with pytest.raises(ValueError):
            breakdown(mixed_trace()).normalized_to(0.0)

    def test_empty_trace_fraction(self):
        from repro.ir.trace import Trace

        result = breakdown(Trace())
        assert result.fraction(OpCategory.LINEAR) == 0.0


class TestSpeedupReport:
    def _traces(self):
        from repro.layers.attention import MultiHeadAttention
        from repro.ir.tensor import tensor

        attn = MultiHeadAttention(256, 4)
        baseline = ExecutionContext()
        attn(baseline, tensor(4, 2048, 256))
        flash = ExecutionContext(attention_impl=AttentionImpl.FLASH)
        attn(flash, tensor(4, 2048, 256))
        return baseline.trace, flash.trace

    def test_end_to_end_speedup_above_one(self):
        base, flash = self._traces()
        report = speedup_report(base, flash)
        assert report.end_to_end_speedup > 1.0

    def test_module_speedup_includes_projections(self):
        base, flash = self._traces()
        report = speedup_report(base, flash)
        # Projections are identical in both, so module speedup is lower
        # than core speedup.
        core = attention_core_time(base) / attention_core_time(flash)
        assert report.attention_module_speedup < core

    def test_attention_fraction_in_unit_interval(self):
        base, flash = self._traces()
        report = speedup_report(base, flash)
        assert 0.0 < report.baseline_attention_fraction <= 1.0

    def test_module_time_is_category_time(self):
        base, _ = self._traces()
        assert attention_module_time(base) == pytest.approx(
            base.time_by_category()[OpCategory.ATTENTION]
        )

    def test_core_time_excludes_projections(self):
        base, _ = self._traces()
        assert attention_core_time(base) < attention_module_time(base)


def fused_attention_trace(kind, fold):
    """One fused attention kernel of ``kind``, folded ``fold`` times."""
    dims = dict(batch=2, seq_q=64, seq_kv=64, head_dim=32, num_heads=4)
    info = AttentionInfo(role=AttentionRole.SELF, kind=kind, **dims)
    ctx = ExecutionContext(attention_impl=AttentionImpl.FLASH)
    with ctx.named_scope(f"{kind.value}_attention"):
        with ctx.repeat_scope(fold):
            ctx.emit(FusedAttention("flash_attention", attention=info, **dims))
    return ctx.trace


def spatial_matmul_trace(fold):
    """One unfused spatial QK^T matmul, folded ``fold`` times."""
    dims = dict(batch=2, seq_q=64, seq_kv=64, head_dim=32, num_heads=4)
    info = AttentionInfo(
        role=AttentionRole.SELF, kind=AttentionKind.SPATIAL, **dims
    )
    ctx = ExecutionContext()
    with ctx.named_scope("spatial_attention"):
        with ctx.repeat_scope(fold):
            ctx.emit(
                Gemm(
                    "qk", m=64, n=64, k=32, batch=8,
                    category_override=OpCategory.ATTENTION, attention=info,
                )
            )
    return ctx.trace


class TestTemporalSpatialReport:
    @pytest.mark.parametrize(
        "kind, field",
        [
            (AttentionKind.SPATIAL, "spatial_matmul_flops"),
            (AttentionKind.TEMPORAL, "temporal_matmul_flops"),
        ],
    )
    def test_folded_fused_attention_counts_each_launch(self, kind, field):
        once = temporal_spatial_report(fused_attention_trace(kind, 1))
        folded = temporal_spatial_report(fused_attention_trace(kind, 3))
        assert getattr(once, field) == 4.0 * 2 * 4 * 64 * 64 * 32
        assert getattr(folded, field) == 3 * getattr(once, field)

    def test_folded_attention_matmul_counts_each_launch(self):
        # A Gemm row's cost already carries its fold factor.
        once = temporal_spatial_report(spatial_matmul_trace(1))
        folded = temporal_spatial_report(spatial_matmul_trace(3))
        assert once.spatial_matmul_flops == 2.0 * 8 * 64 * 64 * 32
        assert folded.spatial_matmul_flops == 3 * once.spatial_matmul_flops

    def test_mav_report_ratios(self, suite_profiles):
        baseline, _ = suite_profiles["make_a_video"]
        report = temporal_spatial_report(baseline.trace)
        assert report.spatial_time_s > 0
        assert report.temporal_time_s > 0
        assert report.flop_ratio > 1.0

    def test_image_model_has_no_temporal_time(self, suite_profiles):
        baseline, _ = suite_profiles["stable_diffusion"]
        report = temporal_spatial_report(baseline.trace)
        assert report.temporal_time_s == 0.0
