"""Figure 7: sequence length over the course of inference."""

from __future__ import annotations

from repro.experiments.base import ClaimCheck, ExperimentResult
from repro.experiments.suite_cache import all_profiles
from repro.ir.trace import Trace
from repro.models.registry import DISPLAY_NAMES
from repro.profiler.seqlen import fundamental_period, sequence_length_profile

EXPERIMENT_ID = "fig7"

_MODELS = ("stable_diffusion", "imagen", "muse", "parti")

# The figure profiles the *generator* component of each pipeline (the
# paper's plots exclude the text encoders).
_GENERATOR_MARKER = {
    "stable_diffusion": "unet",
    "imagen": "base_unet",
    "muse": "base_transformer",
    "parti": "decoder",
}


def profiles_per_model() -> dict[str, list[int]]:
    """Self-attention seq_q per call, truncated to a displayable window."""
    out: dict[str, list[int]] = {}
    for name in _MODELS:
        baseline, _ = all_profiles()[name]
        marker = _GENERATOR_MARKER[name]
        generator_anchors = Trace(
            [
                event
                for event in baseline.trace.attention_anchors()
                if marker in event.module_path.split(".")
            ]
        )
        samples = sequence_length_profile(generator_anchors)
        period = fundamental_period(samples)
        # Figure 7 truncates to the fundamental period; cap the window
        # for plotting-equivalent output.
        window = period if len(period) < len(samples) else samples[:96]
        out[name] = [sample.seq_q for sample in window]
    return out


def _is_u_shaped(values: list[int]) -> bool:
    """Down-then-up within one UNet pass (allowing plateaus)."""
    if len(values) < 3:
        return False
    low = values.index(min(values))
    descent = values[: low + 1]
    ascent = values[low:]
    return (
        low not in (0, len(values) - 1)
        and all(a >= b for a, b in zip(descent, descent[1:]))
        and all(a <= b for a, b in zip(ascent, ascent[1:]))
    )


def run() -> ExperimentResult:
    """Regenerate this experiment and check its claims."""
    per_model = profiles_per_model()
    rows = []
    for name, values in per_model.items():
        preview = ", ".join(str(v) for v in values[:12])
        if len(values) > 12:
            preview += ", ..."
        rows.append(
            [
                DISPLAY_NAMES[name],
                len(values),
                min(values),
                max(values),
                preview,
            ]
        )
    sd = per_model["stable_diffusion"]
    imagen = per_model["imagen"]
    muse = per_model["muse"]
    parti = per_model["parti"]
    sd_range = max(sd) / min(sd)
    claims = [
        ClaimCheck(
            claim="diffusion sequence length varies cyclically "
            "(U-shaped per UNet pass)",
            paper="U-shaped, cyclic",
            measured=f"SD {'U-shaped' if _is_u_shaped(sd) else 'not U'}, "
            f"Imagen {'U-shaped' if _is_u_shaped(imagen) else 'not U'}",
            holds=_is_u_shaped(sd) and _is_u_shaped(imagen),
        ),
        ClaimCheck(
            claim="SD sequence length varies by at least 4x "
            "(peaking at 4096)",
            paper=">=4x, max 4096",
            measured=f"{sd_range:.0f}x, max {max(sd)}",
            holds=sd_range >= 4.0 and max(sd) == 4096,
        ),
        ClaimCheck(
            claim="Muse sequence length is constant (parallel decoding)",
            paper="flat",
            measured=f"{min(muse)}..{max(muse)}",
            holds=min(muse) == max(muse),
        ),
        ClaimCheck(
            claim="Parti sequence length increases over inference "
            "(autoregressive)",
            paper="linear ramp",
            measured=f"{parti[0]} -> {parti[-1]}",
            holds=parti == sorted(parti) and parti[-1] > parti[0],
        ),
    ]
    return ExperimentResult(
        experiment_id=EXPERIMENT_ID,
        title="Self-attention sequence length over inference "
        "(fundamental period)",
        headers=["model", "calls", "min", "max", "profile"],
        rows=rows,
        claims=claims,
        notes=[
            "Parti's ramp is a staircase because decode steps are "
            "bucketed (32 steps per bucket) for trace-size control.",
        ],
        values=per_model,
    )
