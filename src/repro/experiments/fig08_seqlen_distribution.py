"""Figure 8: sequence-length frequency distribution vs image size."""

from __future__ import annotations

from repro.experiments.base import ClaimCheck, ExperimentResult
from repro.ir.context import ExecutionContext
from repro.ir.tensor import TensorSpec
from repro.profiler.seqlen import sequence_length_distribution

EXPERIMENT_ID = "fig8"

IMAGE_SIZES = (128, 256, 512, 768)


def distributions() -> dict[int, dict[int, int]]:
    """Seq-length histograms of one SD UNet pass per output size."""
    from repro.models.stable_diffusion import (
        StableDiffusion,
        StableDiffusionConfig,
    )

    out: dict[int, dict[int, int]] = {}
    for size in IMAGE_SIZES:
        config = StableDiffusionConfig().at_image_size(size)
        model = StableDiffusion(config)
        ctx = ExecutionContext()
        latent = TensorSpec(
            (1, config.latent_channels, config.latent_size,
             config.latent_size)
        )
        model.unet(ctx, latent)
        out[size] = sequence_length_distribution(ctx.trace).counts
    return out


def run() -> ExperimentResult:
    """Regenerate this experiment and check its claims."""
    per_size = distributions()
    rows = []
    for size, counts in per_size.items():
        total = sum(counts.values())
        rows.append(
            [
                f"{size}x{size}",
                ", ".join(
                    f"{seq}:{count/total:.2f}"
                    for seq, count in sorted(counts.items())
                ),
                max(counts),
            ]
        )
    maxima = {size: max(counts) for size, counts in per_size.items()}
    shifts_right = all(
        maxima[a] < maxima[b]
        for a, b in zip(IMAGE_SIZES, IMAGE_SIZES[1:])
    )
    quadratic = all(
        maxima[size] == (size // 8) ** 2 for size in IMAGE_SIZES
    )
    size_512 = per_size[512]
    top_two = sorted(size_512)[-2:]
    balanced = all(
        abs(size_512[seq] / sum(size_512.values()) - 1 / len(size_512))
        < 0.25
        for seq in top_two
    )
    claims = [
        ClaimCheck(
            claim="distribution shifts right as image size grows",
            paper="overlapping bars shift right",
            measured=", ".join(
                f"{size}->{maxima[size]}" for size in IMAGE_SIZES
            ),
            holds=shifts_right,
        ),
        ClaimCheck(
            claim="peak sequence length is quadratic in image size "
            "(latent area)",
            paper="seq = (H/8 * W/8)",
            measured=", ".join(
                f"{size}: {maxima[size]}" for size in IMAGE_SIZES
            ),
            holds=quadratic,
        ),
        ClaimCheck(
            claim="at 512px the distribution over lengths is relatively "
            "even (symmetric UNet)",
            paper="relatively equal distribution",
            measured=", ".join(
                f"{seq}:{size_512[seq]}" for seq in sorted(size_512)
            ),
            holds=balanced,
        ),
        ClaimCheck(
            claim="lengths confine themselves to distinct buckets",
            paper="distinct buckets",
            measured=f"{len(size_512)} distinct lengths at 512px",
            holds=2 <= len(size_512) <= 8,
        ),
    ]
    return ExperimentResult(
        experiment_id=EXPERIMENT_ID,
        title="Sequence-length frequency distribution for Stable "
        "Diffusion at several image sizes",
        headers=["image size", "seq:frequency", "max seq"],
        rows=rows,
        claims=claims,
        values={
            str(size): {str(seq): counts[seq] for seq in sorted(counts)}
            for size, counts in per_size.items()
        },
    )
