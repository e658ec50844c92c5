"""Figure 5: the model suite on an A100 roofline.

Arithmetic intensity follows the paper's definition — FLOPs over
required model capacity (parameter bytes) — evaluated per *sequential
iteration* of each model's generation loop, which is what the roofline
placement reflects at serving time:

* a diffusion model's iteration is one denoising step: an entire image
  worth of FLOPs against one read of the UNet's parameters (the paper's
  "high parameter reuse");
* an autoregressive transformer's iteration is one decode step: 2 FLOPs
  per parameter byte read — the far memory-bound end;
* parallel-decode transformers (Muse, Phenaki) sit in between, with one
  token-grid refinement per iteration.

Compute- vs memory-bound placement uses traffic intensity (FLOPs over
bytes actually moved) from the Flash-Attention traces, the optimized
configuration a roofline characterizes.
"""

from __future__ import annotations

from repro.experiments.base import ClaimCheck, ExperimentResult
from repro.experiments.suite_cache import all_profiles, model_instance
from repro.hw.roofline import classify_bound
from repro.hw.spec import A100_80GB
from repro.ir.trace import Trace
from repro.models.registry import DISPLAY_NAMES

EXPERIMENT_ID = "fig5"

# Figure 5 plots the four Table I models; the wider suite is shown in
# the output table but claims are checked on the figure's own models.
DIFFUSION = ("imagen", "stable_diffusion")

# One representative iteration scope per model (module-path prefix).
_ITERATION_SCOPE = {
    "imagen": "stage_64px",  # one base-model denoise step (below)
    "stable_diffusion": "denoise_0",
    "prod_image": "denoise_0",
    "make_a_video": "decoder",
    "muse": "base_step_0",
    "phenaki": "refine_step_0",
}


def _scope_flops(trace: Trace, prefix: str) -> float:
    """FLOPs of the events whose module path starts with ``prefix``,
    added left to right as the trace's own total is."""
    flops = 0.0
    for path, _, cost, _, _ in trace.rows():
        if path.startswith(prefix):
            flops += cost.flops
    return flops


def _iteration_flops(name: str, trace: Trace) -> float:
    scope = _ITERATION_SCOPE[name]
    if name == "imagen":
        # stage scope holds all base denoise steps; take one.
        scope = "stage_64px.denoise_0"
    if name == "make_a_video":
        scope = "decoder.denoise_0"
    return _scope_flops(trace, scope)


def capacity_intensities() -> dict[str, float]:
    """Per-iteration FLOPs over model capacity for each suite model."""
    out: dict[str, float] = {}
    for name, (baseline, _flash) in all_profiles().items():
        model = model_instance(name)
        param_bytes = model.param_bytes()
        if name == "llama":
            decode = baseline.trace.filter(
                lambda event: event.module_path.split(".")[0] == "decode"
            )
            steps = model.config.decode_tokens
            out[name] = decode.total_flops / steps / param_bytes
        elif name == "parti":
            # Serving semantics: one KV-cached decode step reads every
            # parameter to produce 2 FLOPs per weight.
            out[name] = (
                2.0 * model.param_count() / model.param_bytes()
            )
        else:
            out[name] = _iteration_flops(
                name, baseline.trace
            ) / param_bytes
    return out


def run() -> ExperimentResult:
    """Regenerate this experiment and check its claims."""
    spec = A100_80GB
    capacity = capacity_intensities()
    rows: list[list[object]] = []
    traffic_bound: dict[str, str] = {}
    values: dict = {"ridge_flop_per_byte": spec.ridge_point()}
    for name, (_baseline, flash) in all_profiles().items():
        trace = flash.trace
        traffic = trace.total_flops / trace.total_moved_bytes
        bound = classify_bound(spec, traffic)
        traffic_bound[name] = bound
        values[name] = {
            "capacity_flop_per_byte": capacity[name],
            "traffic_flop_per_byte": traffic,
            "bound": bound,
        }
        rows.append(
            [
                DISPLAY_NAMES[name],
                f"{capacity[name]:.3g}",
                f"{traffic:.3g}",
                bound,
            ]
        )

    autoregressive = ("llama", "parti")
    max_diffusion = max(capacity[name] for name in DIFFUSION)
    min_diffusion = min(capacity[name] for name in DIFFUSION)
    max_ar = max(capacity[name] for name in autoregressive)
    parallel = ("muse",)
    max_parallel = max(capacity[name] for name in parallel)
    ratio = max_diffusion / max_ar
    claims = [
        ClaimCheck(
            claim="diffusion arithmetic intensity exceeds "
            "autoregressive transformers by up to ~100x",
            paper="up to 100x",
            measured=f"{ratio:.0f}x",
            holds=ratio >= 50.0,
        ),
        ClaimCheck(
            claim="diffusion models sit in the compute-bound region",
            paper="compute-bound",
            measured=", ".join(
                f"{DISPLAY_NAMES[n]}:{traffic_bound[n]}" for n in DIFFUSION
            ),
            holds=all(
                traffic_bound[name] == "compute" for name in DIFFUSION
            ),
        ),
        ClaimCheck(
            claim="autoregressive decode is memory-bound at low batch",
            paper="memory-bound",
            measured=(
                f"LLaMA decode {capacity['llama']:.1f} FLOP/B, Parti "
                f"decode {capacity['parti']:.1f} FLOP/B "
                f"(ridge {spec.ridge_point():.0f})"
            ),
            holds=max_ar < spec.ridge_point(),
        ),
        ClaimCheck(
            claim="diffusion intensity exceeds parallel-decode "
            "transformer TTI (Muse)",
            paper="diffusion > transformer TTI",
            measured=(
                f"min diffusion {min_diffusion:.3g} vs max parallel "
                f"{max_parallel:.3g}"
            ),
            holds=min_diffusion > max_parallel,
        ),
    ]
    return ExperimentResult(
        experiment_id=EXPERIMENT_ID,
        title=f"Roofline placement on {spec.name} "
        f"(ridge {spec.ridge_point():.0f} FLOP/B)",
        headers=[
            "model", "capacity FLOP/B (per iteration)",
            "traffic FLOP/B", "bound",
        ],
        rows=rows,
        claims=claims,
        notes=[
            "Capacity intensity per sequential generation iteration; "
            "LLaMA/Parti use their decode steps (Table III semantics).",
        ],
        values=values,
    )
