"""Figure 9: attention vs convolution scaling with image size."""

from __future__ import annotations

from repro.analysis.scaling import scaling_rate, sweep_image_sizes
from repro.experiments.base import ClaimCheck, ExperimentResult
from repro.ir.context import AttentionImpl

EXPERIMENT_ID = "fig9"

SIZES = [64, 128, 256, 512]


def run() -> ExperimentResult:
    """Regenerate this experiment and check its claims."""
    baseline_points = sweep_image_sizes(
        SIZES, attention_impl=AttentionImpl.BASELINE
    )
    flash_points = sweep_image_sizes(
        SIZES, attention_impl=AttentionImpl.FLASH
    )
    rows = []
    values: dict = {}
    for impl, points in (("baseline", baseline_points),
                         ("flash", flash_points)):
        values[impl] = {
            str(point.image_size): {
                "attention_time_s": point.attention_time_s,
                "conv_time_s": point.conv_time_s,
                "total_time_s": point.total_time_s,
            }
            for point in points
        }
        for point in points:
            rows.append(
                [
                    impl,
                    f"{point.image_size}x{point.image_size}",
                    f"{point.attention_time_s*1e3:.2f}",
                    f"{point.conv_time_s*1e3:.2f}",
                    f"{point.total_time_s*1e3:.2f}",
                ]
            )
    baseline_attention_rate = scaling_rate(
        baseline_points, "attention_time_s"
    )
    baseline_conv_rate = scaling_rate(baseline_points, "conv_time_s")
    flash_attention_rate = scaling_rate(flash_points, "attention_time_s")
    flash_conv_rate = scaling_rate(flash_points, "conv_time_s")
    values["growth"] = {
        "baseline": {"attention": baseline_attention_rate,
                     "conv": baseline_conv_rate},
        "flash": {"attention": flash_attention_rate,
                  "conv": flash_conv_rate},
    }
    conv_dominates_large_flash = (
        flash_points[-1].conv_time_s > flash_points[-1].attention_time_s
    )
    claims = [
        ClaimCheck(
            claim="before Flash, attention time scales faster than "
            "convolution with image size",
            paper="attention scales faster",
            measured=(
                f"attention x{baseline_attention_rate:.0f} vs conv "
                f"x{baseline_conv_rate:.0f} over {SIZES[0]}->{SIZES[-1]}px"
            ),
            holds=baseline_attention_rate > baseline_conv_rate,
        ),
        ClaimCheck(
            claim="after Flash, convolution scales faster than attention",
            paper="convolution becomes the limiting factor",
            measured=(
                f"attention x{flash_attention_rate:.0f} vs conv "
                f"x{flash_conv_rate:.0f}"
            ),
            holds=flash_conv_rate > flash_attention_rate,
        ),
        ClaimCheck(
            claim="convolution dominates attention at 512px with Flash",
            paper="conv is the limiting factor",
            measured=(
                f"conv {flash_points[-1].conv_time_s*1e3:.1f}ms vs "
                f"attention "
                f"{flash_points[-1].attention_time_s*1e3:.1f}ms"
            ),
            holds=conv_dominates_large_flash,
        ),
    ]
    return ExperimentResult(
        experiment_id=EXPERIMENT_ID,
        title="Stable Diffusion attention vs convolution time as image "
        "size scales (one UNet pass)",
        headers=["impl", "image", "attention ms", "conv ms", "total ms"],
        rows=rows,
        claims=claims,
        values=values,
    )
