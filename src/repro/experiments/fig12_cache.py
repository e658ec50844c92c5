"""Figure 12: L1/L2 cache hit rates for spatial vs temporal attention.

The paper reads these from NVIDIA Nsight Compute; we replay the
attention kernels' address streams through the set-associative cache
simulator (see repro.kernels.attention for the mechanism).
"""

from __future__ import annotations

from repro.experiments.base import ClaimCheck, ExperimentResult
from repro.hw.spec import A100_80GB
from repro.ir.ops import AttentionInfo, AttentionKind, AttentionRole
from repro.kernels.attention import simulate_attention_cache

EXPERIMENT_ID = "fig12"

# Simulated SMs: each has its own L1, all share the L2.
NUM_SMS = 4


def attention_configs(
    *,
    grid: int = 64,
    frames: int = 16,
    channels: int = 512,
    head_dim: int = 64,
    batch: int = 1,
) -> tuple[AttentionInfo, AttentionInfo]:
    """(spatial, temporal) attention configs at a Make-A-Video-like
    operating point: 64x64 latent grid, 16 frames."""
    heads = max(1, channels // head_dim)
    pixels = grid * grid
    spatial = AttentionInfo(
        role=AttentionRole.SELF,
        kind=AttentionKind.SPATIAL,
        seq_q=pixels,
        seq_kv=pixels,
        head_dim=head_dim,
        num_heads=heads,
        batch=batch * frames,
    )
    temporal = AttentionInfo(
        role=AttentionRole.SELF,
        kind=AttentionKind.TEMPORAL,
        seq_q=frames,
        seq_kv=frames,
        head_dim=head_dim,
        num_heads=heads,
        batch=batch * pixels,
        element_stride_bytes=pixels * channels * 2,
    )
    return spatial, temporal


def run() -> ExperimentResult:
    """Regenerate this experiment and check its claims."""
    spatial_info, temporal_info = attention_configs()
    spatial = simulate_attention_cache(
        spatial_info, A100_80GB, num_sms=NUM_SMS
    )
    temporal = simulate_attention_cache(
        temporal_info, A100_80GB, num_sms=NUM_SMS
    )
    rows = []
    for kernel in ("gemm", "softmax", "elementwise"):
        spatial_rates = spatial.as_dict()[kernel]
        temporal_rates = temporal.as_dict()[kernel]
        rows.append(
            [
                kernel,
                f"{spatial_rates['l1']*100:.1f}%",
                f"{temporal_rates['l1']*100:.1f}%",
                f"{spatial_rates['l2']*100:.1f}%",
                f"{temporal_rates['l2']*100:.1f}%",
            ]
        )
    eps = 0.02  # hit-rate resolution floor for ratio claims
    gemm_l1_gap = spatial.gemm.l1.hit_rate / max(
        temporal.gemm.l1.hit_rate, eps
    )
    softmax_l1_gap = spatial.softmax.l1.hit_rate / max(
        temporal.softmax.l1.hit_rate, eps
    )
    gemm_l2_gap = spatial.gemm.l2.hit_rate / max(
        temporal.gemm.l2.hit_rate, eps
    )
    claims = [
        ClaimCheck(
            claim="temporal GEMM L1 hit rate is ~10x lower",
            paper="~10x lower",
            measured=(
                f"{spatial.gemm.l1.hit_rate*100:.0f}% vs "
                f"{temporal.gemm.l1.hit_rate*100:.0f}% "
                f"({gemm_l1_gap:.0f}x)"
            ),
            holds=gemm_l1_gap >= 8.0,
        ),
        ClaimCheck(
            claim="temporal softmax L1 hit rate is ~10x lower",
            paper="~10x lower",
            measured=(
                f"{spatial.softmax.l1.hit_rate*100:.0f}% vs "
                f"{temporal.softmax.l1.hit_rate*100:.0f}% "
                f"({softmax_l1_gap:.0f}x)"
            ),
            holds=softmax_l1_gap >= 8.0,
        ),
        ClaimCheck(
            claim="temporal GEMM L2 hit rate is ~10x lower",
            paper="~10x lower",
            measured=(
                f"{spatial.gemm.l2.hit_rate*100:.0f}% vs "
                f"{temporal.gemm.l2.hit_rate*100:.0f}% "
                f"({gemm_l2_gap:.0f}x)"
            ),
            holds=gemm_l2_gap >= 8.0,
        ),
        ClaimCheck(
            claim="temporal softmax/elementwise L2 hit rates are the "
            "same or higher",
            paper="same or higher",
            measured=(
                f"softmax {temporal.softmax.l2.hit_rate*100:.0f}% vs "
                f"{spatial.softmax.l2.hit_rate*100:.0f}%; elementwise "
                f"{temporal.elementwise.l2.hit_rate*100:.0f}% vs "
                f"{spatial.elementwise.l2.hit_rate*100:.0f}%"
            ),
            holds=(
                temporal.softmax.l2.hit_rate
                >= spatial.softmax.l2.hit_rate - 0.01
                and temporal.elementwise.l2.hit_rate
                >= spatial.elementwise.l2.hit_rate - 0.01
            ),
        ),
    ]
    return ExperimentResult(
        experiment_id=EXPERIMENT_ID,
        title="Simulated cache hit rates during spatial vs temporal "
        "attention (A100 geometry)",
        headers=[
            "kernel", "L1 spatial", "L1 temporal", "L2 spatial",
            "L2 temporal",
        ],
        rows=rows,
        claims=claims,
        notes=[
            "Nsight Compute is replaced by a trace-driven cache "
            "simulator fed with the kernels' address streams "
            "(DESIGN.md substitutions).",
        ],
        values={
            f"{A100_80GB.name}|{NUM_SMS}": {
                "spatial": spatial.as_dict(),
                "temporal": temporal.as_dict(),
            },
        },
    )
