"""Section V analytical framework: sequence length and similarity-matrix
memory as functions of image size.

These are the paper's closed-form expressions, implemented verbatim:

* Self-attention sequence length in a UNet is ``H_L * W_L`` (the
  flattened latent), so attention is an ``(H_L W_L) x (H_L W_L)`` matrix.
* Cross-attention attends the latent to the encoded text, giving an
  ``(H_L W_L) x text_encode`` matrix.
* Similarity-matrix memory for one attention call (FP16, one head,
  batch 1):   2 * (H_L W_L)^2 + 2 * (H_L W_L) * text_encode  bytes.
* Cumulative memory over a UNet pass sums that expression over the
  downsampling stages, with the latent shrinking by ``d`` per stage.

The punchline is the O(L^4) relationship between latent (or image) side
length and attention memory, which is why super-resolution networks
drop attention at high resolution.
"""

from __future__ import annotations

BYTES_PER_PARAM = 2  # FP16, as the paper assumes.


def self_attention_seq_len(h_latent: int, w_latent: int) -> int:
    """Sequence length of a UNet self-attention call."""
    if h_latent <= 0 or w_latent <= 0:
        raise ValueError("latent dims must be positive")
    return h_latent * w_latent


def self_attention_matrix_shape(
    h_latent: int, w_latent: int
) -> tuple[int, int]:
    """(H_L * W_L) x (H_L * W_L), per the paper."""
    seq = self_attention_seq_len(h_latent, w_latent)
    return (seq, seq)


def cross_attention_matrix_shape(
    h_latent: int, w_latent: int, text_encode: int
) -> tuple[int, int]:
    """(H_L * W_L) x text_encode, per the paper."""
    if text_encode <= 0:
        raise ValueError("text encoding length must be positive")
    return (self_attention_seq_len(h_latent, w_latent), text_encode)


def similarity_matrix_bytes(
    h_latent: int, w_latent: int, text_encode: int
) -> float:
    """Memory for one (self + cross) attention call's similarity matrices.

    The paper's expression:  2 * H_L W_L * [H_L W_L + text_encode]
    (FP16 bytes, one head, batch 1).
    """
    pixels = self_attention_seq_len(h_latent, w_latent)
    if text_encode < 0:
        raise ValueError("text encoding length must be non-negative")
    return float(BYTES_PER_PARAM * pixels * (pixels + text_encode))


def cumulative_unet_similarity_bytes(
    h_latent: int,
    w_latent: int,
    text_encode: int,
    downsample_factor: int = 2,
    unet_depth: int = 3,
) -> float:
    """The paper's cumulative-memory formula over a UNet pass.

    Sums the similarity-matrix expression over the ``unet_depth``
    downsampling stages (each visited twice: once down, once up — the
    leading factor of 2), plus the bottleneck stage visited once:

        2 * sum_{n=0}^{depth-1} (HW / d^n) [ HW / d^n + text ]
          +     (HW / d^depth) [ HW / d^depth + text ]

    where the per-stage area shrinks by ``d`` per stage (d is the *area*
    reduction per stage; a stride-2 conv gives d = 4).
    """
    if downsample_factor < 1:
        raise ValueError("downsample factor must be >= 1")
    if unet_depth < 0:
        raise ValueError("unet depth must be non-negative")
    pixels = self_attention_seq_len(h_latent, w_latent)
    total = 0.0
    for stage in range(unet_depth):
        stage_pixels = pixels / downsample_factor**stage
        total += 2.0 * BYTES_PER_PARAM * stage_pixels * (
            stage_pixels + text_encode
        )
    bottleneck = pixels / downsample_factor**unet_depth
    total += BYTES_PER_PARAM * bottleneck * (bottleneck + text_encode)
    return total


def stage_sequence_lengths(
    h_latent: int,
    w_latent: int,
    downsample_factor: int = 2,
    unet_depth: int = 3,
) -> list[int]:
    """Self-attention sequence length at each UNet stage, top to bottom."""
    pixels = self_attention_seq_len(h_latent, w_latent)
    return [
        max(1, pixels // downsample_factor**stage)
        for stage in range(unet_depth + 1)
    ]
