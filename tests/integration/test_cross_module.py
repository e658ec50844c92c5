"""Cross-module integration: profile -> export -> parse -> analyze."""

import pytest

from repro.hw.spec import H100_80GB
from repro.ir.context import AttentionImpl
from repro.ir.ops import OpCategory
from repro.models.stable_diffusion import (
    StableDiffusion,
    StableDiffusionConfig,
)
from repro.profiler.breakdown import breakdown
from repro.profiler.profiler import profile_model
from repro.profiler.trace_export import (
    category_times_from_records,
    parse_chrome_trace,
    to_chrome_trace,
)


@pytest.fixture(scope="module")
def small_sd():
    return StableDiffusion(
        StableDiffusionConfig(denoising_steps=2).at_image_size(256)
    )


class TestTraceExportPipeline:
    def test_exported_breakdown_matches_live(self, small_sd):
        result = profile_model(small_sd)
        records = parse_chrome_trace(to_chrome_trace(result.trace))
        exported = category_times_from_records(records)
        live = result.trace.time_by_category()
        assert set(exported) == set(live)
        for category, time_s in live.items():
            assert exported[category] == pytest.approx(time_s, rel=1e-6)

    def test_event_order_preserved(self, small_sd):
        result = profile_model(small_sd)
        records = parse_chrome_trace(to_chrome_trace(result.trace))
        starts = [record["start_us"] for record in records]
        assert starts == sorted(starts)


class TestProfileInputs:
    @pytest.mark.parametrize("batch", [0, -1, 1.5, "2"])
    def test_bad_batch_fails_before_the_model_runs(
        self, small_sd, monkeypatch, batch
    ):
        def run_inference(ctx, batch=1):
            raise AssertionError("model code ran")

        monkeypatch.setattr(small_sd, "run_inference", run_inference)
        with pytest.raises(ValueError, match="batch must be an int >= 1"):
            profile_model(small_sd, batch=batch)


class TestDeviceSweep:
    def test_h100_faster_than_a100(self, small_sd):
        a100 = profile_model(small_sd)
        h100 = profile_model(small_sd, gpu=H100_80GB)
        assert h100.total_time_s < a100.total_time_s

    def test_flops_are_device_independent(self, small_sd):
        a100 = profile_model(small_sd)
        h100 = profile_model(small_sd, gpu=H100_80GB)
        assert a100.total_flops == pytest.approx(h100.total_flops)

    def test_flash_speedup_persists_on_h100(self, small_sd):
        baseline = profile_model(small_sd, gpu=H100_80GB)
        flash = profile_model(
            small_sd, gpu=H100_80GB, attention_impl=AttentionImpl.FLASH
        )
        assert flash.total_time_s < baseline.total_time_s


class TestBatchScaling:
    def test_batch_grows_time_sublinearly_or_linearly(self, small_sd):
        one = profile_model(small_sd, batch=1)
        four = profile_model(small_sd, batch=4)
        assert four.total_flops == pytest.approx(
            4 * one.total_flops, rel=0.05
        )
        assert one.total_time_s < four.total_time_s <= (
            4.05 * one.total_time_s
        )

    def test_batching_amortizes_launch_overhead(self, small_sd):
        one = profile_model(small_sd, batch=1)
        four = profile_model(small_sd, batch=4)
        # Same kernel count, 4x work: time grows less than 4x.
        assert four.total_time_s < 4 * one.total_time_s


class TestBreakdownStability:
    def test_step_count_does_not_change_unet_mix(self):
        short = profile_model(
            StableDiffusion(StableDiffusionConfig(denoising_steps=2))
        )
        long = profile_model(
            StableDiffusion(StableDiffusionConfig(denoising_steps=8))
        )
        # More steps -> closer to pure-UNet mix; conv fraction grows
        # toward its asymptote but stays in the same regime.
        short_conv = breakdown(short.trace).fraction(OpCategory.CONV)
        long_conv = breakdown(long.trace).fraction(OpCategory.CONV)
        assert abs(short_conv - long_conv) < 0.25
