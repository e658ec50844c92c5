"""Table II's Stable Diffusion Flash-Attention speedup under perturbed
tuning constants: the structural claims docs/CALIBRATION.md cites."""

from dataclasses import replace

from repro.ir.context import AttentionImpl
from repro.kernels.base import DEFAULT_TUNING
from repro.models.stable_diffusion import (
    StableDiffusion,
    StableDiffusionConfig,
)
from repro.profiler.breakdown import speedup_report
from repro.profiler.profiler import profile_model


def sd_speedup(tuning) -> float:
    model = StableDiffusion(StableDiffusionConfig(denoising_steps=2))
    baseline = profile_model(model, tuning=tuning)
    flash = profile_model(
        model, attention_impl=AttentionImpl.FLASH, tuning=tuning
    )
    return speedup_report(
        baseline.trace, flash.trace
    ).end_to_end_speedup


def max_relative_change(field_name: str, scales=(0.5, 2.0)) -> float:
    """Largest |speedup / default speedup - 1| with one constant scaled."""
    base = sd_speedup(DEFAULT_TUNING)
    value = getattr(DEFAULT_TUNING, field_name)
    return max(
        abs(
            sd_speedup(replace(DEFAULT_TUNING, **{field_name: value * scale}))
            / base - 1.0
        )
        for scale in scales
    )


class TestStructuralClaims:
    """The README's calibration-honesty statement, as tests."""

    def test_sd_speedup_robust_to_temporal_derate(self):
        assert max_relative_change("temporal_locality_derate") <= 0.05

    def test_sd_speedup_robust_to_norm_derate(self):
        assert max_relative_change("norm_bandwidth_derate") <= 0.15

    def test_sd_speedup_sensitive_to_residency(self):
        """The one constant the Table II spread legitimately rides on:
        where the similarity matrix lives decides the baseline cost."""
        assert sd_speedup(DEFAULT_TUNING) > 1.3
