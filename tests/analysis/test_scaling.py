"""Image-size and frame-count scaling analysis tests."""

from dataclasses import replace

import pytest

from repro.analysis.scaling import (
    ImageScalingPoint,
    crossover_frames,
    scaling_rate,
    sweep_frame_counts,
    sweep_image_sizes,
)
from repro.ir.context import AttentionImpl
from repro.ir.ops import OpCategory
from repro.models.stable_diffusion import (
    StableDiffusion,
    StableDiffusionConfig,
)
from repro.profiler.profiler import profile_model


class TestImageSweep:
    @pytest.fixture(scope="class")
    def flash_points(self):
        return sweep_image_sizes([64, 512], AttentionImpl.FLASH)

    def test_sizes_recorded(self, flash_points):
        assert [p.image_size for p in flash_points] == [64, 512]

    def test_times_grow_with_size(self, flash_points):
        assert flash_points[1].total_time_s > flash_points[0].total_time_s

    def test_scaling_rate(self, flash_points):
        # Small-latent convs sit on the kernel-latency floor, so growth
        # is sub-quadratic; what matters (Figure 9) is that convolution
        # grows faster than flash attention.
        conv_rate = scaling_rate(flash_points, "conv_time_s")
        attention_rate = scaling_rate(flash_points, "attention_time_s")
        assert conv_rate > 3.0
        assert conv_rate > attention_rate

    def test_scaling_rate_needs_two_points(self):
        points = sweep_image_sizes([64], AttentionImpl.FLASH)
        with pytest.raises(ValueError):
            scaling_rate(points, "conv_time_s")

    def test_impl_recorded(self, flash_points):
        assert flash_points[0].attention_impl == "flash"

    def test_point_is_one_unet_pass(self):
        (point,) = sweep_image_sizes([256], AttentionImpl.FLASH)
        config = StableDiffusionConfig().at_image_size(256)
        model = StableDiffusion(
            replace(config, denoising_steps=1, guidance=False)
        )
        profile = profile_model(model, attention_impl=AttentionImpl.FLASH)
        unet = profile.trace.filter(
            lambda event: event.module_path == "denoise_0"
            or event.module_path.startswith("denoise_0.")
        )
        times = unet.time_by_category()
        assert point.total_time_s == unet.total_time_s
        assert point.attention_time_s == times[OpCategory.ATTENTION]
        assert point.conv_time_s == times[OpCategory.CONV]

    def test_denoising_steps_scale_every_time(self, flash_points):
        # Every step is the same UNet pass, so the ratios Figure 9
        # plots do not depend on the step count.
        one = flash_points[0]
        (two,) = sweep_image_sizes(
            [64], AttentionImpl.FLASH, denoising_steps=2
        )
        for attribute in ("attention_time_s", "conv_time_s", "total_time_s"):
            assert getattr(two, attribute) == pytest.approx(
                2 * getattr(one, attribute), rel=1e-12
            )

    def test_baseline_attention_grows_faster_than_flash(self, flash_points):
        baseline = sweep_image_sizes([64, 512], AttentionImpl.BASELINE)
        assert baseline[0].attention_impl == "baseline"
        assert baseline[1].attention_time_s > flash_points[1].attention_time_s
        assert scaling_rate(baseline, "attention_time_s") > scaling_rate(
            flash_points, "attention_time_s"
        )

    def test_scaling_rate_rejects_zero_first_value(self):
        points = [
            ImageScalingPoint(64, "flash", 0.0, 1.0, 1.0),
            ImageScalingPoint(128, "flash", 2.0, 3.0, 5.0),
        ]
        with pytest.raises(ValueError, match="attention_time_s is zero"):
            scaling_rate(points, "attention_time_s")


class TestFrameSweep:
    def test_spatial_linear_temporal_quadratic(self):
        points = sweep_frame_counts([8, 16])
        assert points[1].spatial_flops == pytest.approx(
            2 * points[0].spatial_flops
        )
        assert points[1].temporal_flops == pytest.approx(
            4 * points[0].temporal_flops
        )

    def test_crossover_at_grid_squared(self):
        assert crossover_frames(16) == 256
        assert crossover_frames(8) == 64

    def test_equal_flops_at_crossover(self):
        grid = 8
        points = sweep_frame_counts(
            [crossover_frames(grid)], spatial_grid=grid
        )
        assert points[0].spatial_flops == pytest.approx(
            points[0].temporal_flops
        )

    def test_rejects_non_positive_frames(self):
        with pytest.raises(ValueError):
            sweep_frame_counts([0])

    def test_rejects_non_positive_grid(self):
        with pytest.raises(ValueError):
            crossover_frames(0)

    def test_batch_scales_both_kinds_linearly(self):
        (single,) = sweep_frame_counts([8])
        (double,) = sweep_frame_counts([8], batch=2)
        assert double.spatial_flops == 2 * single.spatial_flops
        assert double.temporal_flops == 2 * single.temporal_flops

    def test_default_sweep_has_seven_points(self):
        assert len(sweep_frame_counts()) == 7
