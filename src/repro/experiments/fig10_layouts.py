"""Figure 10: tensor-dimension rearrangement for spatial vs temporal
attention.

A shape-algebra check: both attention flavours view the same
(B, C, F, H, W) activation, but spatial attention folds frames into the
batch (sequence = H*W) while temporal attention folds pixels into the
batch (sequence = F).
"""

from __future__ import annotations

from repro.experiments.base import ClaimCheck, ExperimentResult
from repro.ir.ops import AttentionKind
from repro.ir.tensor import TensorSpec
from repro.layers.attention import TemporalAttentionLayer

EXPERIMENT_ID = "fig10"


def spatial_view(
    batch: int, channels: int, frames: int, h: int, w: int
) -> tuple[int, int, int]:
    """(effective batch, sequence, width) for spatial attention."""
    return (batch * frames, h * w, channels)


def temporal_view(
    batch: int, channels: int, frames: int, h: int, w: int
) -> tuple[int, int, int]:
    """(effective batch, sequence, width) for temporal attention."""
    return (batch * h * w, frames, channels)


def run(
    batch: int = 1, channels: int = 512, frames: int = 16,
    h: int = 32, w: int = 32,
) -> ExperimentResult:
    """Regenerate this experiment and check its claims."""
    spatial = spatial_view(batch, channels, frames, h, w)
    temporal = temporal_view(batch, channels, frames, h, w)
    layer = TemporalAttentionLayer(channels)
    info = layer.attention_info(
        TensorSpec((batch, channels, frames, h, w))
    )
    rows = [
        ["spatial", *spatial, "image size (H*W)"],
        ["temporal", *temporal, "number of frames (F)"],
    ]
    claims = [
        ClaimCheck(
            claim="spatial sequence length is proportional to image size",
            paper="seq = H*W",
            measured=f"{spatial[1]} (= {h}*{w})",
            holds=spatial[1] == h * w,
        ),
        ClaimCheck(
            claim="temporal sequence length is the frame count",
            paper="seq = F",
            measured=f"{temporal[1]}",
            holds=temporal[1] == frames
            and info.seq_q == frames
            and info.kind is AttentionKind.TEMPORAL,
        ),
        ClaimCheck(
            claim="element count is preserved by the rearrange",
            paper="pure layout change",
            measured=f"{spatial[0]*spatial[1]*spatial[2]} elements",
            holds=(
                spatial[0] * spatial[1] * spatial[2]
                == temporal[0] * temporal[1] * temporal[2]
            ),
        ),
        ClaimCheck(
            claim="the temporal layer folds pixels into the batch",
            paper="other dims shift into batch size",
            measured=f"batch {info.batch} (= B*H*W)",
            holds=info.batch == batch * h * w,
        ),
    ]
    return ExperimentResult(
        experiment_id=EXPERIMENT_ID,
        title="Q/K/V layout for spatial vs temporal attention on a "
        f"(B={batch}, C={channels}, F={frames}, H={h}, W={w}) activation",
        headers=["kind", "batch", "seq len", "width", "seq governed by"],
        rows=rows,
        claims=claims,
        values={
            "spatial": list(spatial),
            "temporal": list(temporal),
            "temporal_layer": {"batch": info.batch, "seq_q": info.seq_q},
        },
    )
