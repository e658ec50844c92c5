"""Table III + Section IV-B: prefill/decode correspondence.

Two parts:

1. The correspondence table itself — which phase of LLM inference each
   TTI architecture's generation step resembles, verified by the shapes
   our attention layers actually emit.
2. The quantitative consequence: Flash-Attention *kernel* speedup at
   prefill-like shapes (diffusion: all pixels at once) is 1.1-2.5x
   greater than at decode-like shapes (transformer TTI), and the
   attention-module speedups across the suite reflect that.
"""

from __future__ import annotations

from repro.experiments.base import ClaimCheck, ExperimentResult
from repro.experiments.suite_cache import all_profiles
from repro.ir.context import AttentionImpl, ExecutionContext
from repro.ir.ops import AttentionKind, AttentionRole
from repro.layers.attention import emit_attention_core
from repro.models.registry import DISPLAY_NAMES
from repro.ordered_sum import ordered_sum
from repro.profiler.breakdown import speedup_report

EXPERIMENT_ID = "table3"

DIFFUSION = ("imagen", "stable_diffusion", "prod_image", "make_a_video")
TRANSFORMER = ("muse", "parti", "phenaki")


def attention_kernel_speedup(
    seq_q: int, seq_kv: int, *, batch: int = 8, num_heads: int = 8,
    head_dim: int = 64,
) -> float:
    """Baseline-vs-Flash speedup of one attention call at given shape."""
    times = {}
    for impl in (AttentionImpl.BASELINE, AttentionImpl.FLASH):
        ctx = ExecutionContext(attention_impl=impl)
        emit_attention_core(
            ctx,
            batch=batch,
            num_heads=num_heads,
            seq_q=seq_q,
            seq_kv=seq_kv,
            head_dim=head_dim,
            role=AttentionRole.SELF,
            kind=AttentionKind.TOKEN,
        )
        times[impl] = ctx.trace.total_time_s
    return times[AttentionImpl.BASELINE] / times[AttentionImpl.FLASH]


def run() -> ExperimentResult:
    """Regenerate this experiment and check its claims."""
    rows = [
        ["LLM", "1st token (whole prompt)", "2nd token (1xN query)"],
        ["Diffusion", "all pixels at once (prefill-like)", "n/a"],
        ["Transformer TTI", "process text prompt",
         "autoregressive tokens (decode-like)"],
    ]
    prefill_speedup = attention_kernel_speedup(4096, 4096)
    decode_speedup = attention_kernel_speedup(1, 4096)
    kernel_ratio = prefill_speedup / decode_speedup

    module_speedups = {
        name: speedup_report(
            baseline.trace, flash.trace
        ).attention_module_speedup
        for name, (baseline, flash) in all_profiles().items()
    }
    diffusion_mean = ordered_sum(
        module_speedups[name] for name in DIFFUSION
    ) / len(DIFFUSION)
    transformer_mean = ordered_sum(
        module_speedups[name] for name in TRANSFORMER
    ) / len(TRANSFORMER)
    suite_ratio = diffusion_mean / transformer_mean
    claims = [
        ClaimCheck(
            claim="prefill-shaped attention gains far more from Flash "
            "than decode-shaped",
            paper="prefill >> decode",
            measured=(
                f"prefill {prefill_speedup:.2f}x vs decode "
                f"{decode_speedup:.2f}x ({kernel_ratio:.1f}x greater)"
            ),
            holds=prefill_speedup > 1.5 * decode_speedup,
        ),
        ClaimCheck(
            claim="diffusion attention-module speedup is 1.1-2.5x greater "
            "than transformer TTI",
            paper="1.1-2.5x greater",
            measured=(
                f"diffusion mean {diffusion_mean:.2f}x vs transformer "
                f"mean {transformer_mean:.2f}x = {suite_ratio:.2f}x"
            ),
            holds=1.1 <= suite_ratio <= 2.5,
        ),
    ]
    notes = [
        "attention-module speedups (incl. projections): "
        + ", ".join(
            f"{DISPLAY_NAMES[name]} {value:.2f}x"
            for name, value in module_speedups.items()
        ),
    ]
    return ExperimentResult(
        experiment_id=EXPERIMENT_ID,
        title="Prefill/decode correspondence across architectures",
        headers=["architecture", "prefill analog", "decode analog"],
        rows=rows,
        claims=claims,
        notes=notes,
        values={
            "prefill_kernel_speedup": prefill_speedup,
            "decode_kernel_speedup": decode_speedup,
            "attention_module_speedup": module_speedups,
            "diffusion_mean": diffusion_mean,
            "transformer_mean": transformer_mean,
        },
    )
