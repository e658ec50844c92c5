"""Attention kernel analysis: lowering shapes and cache behaviour.

Two jobs live here:

1. :func:`attention_matmul_flops` / :func:`similarity_matrix_bytes` —
   the shape algebra shared by the analytical studies (Figures 11/13 use
   "the two main matmul operations" as their FLOP definition).

2. :func:`simulate_attention_cache` — the stand-in for the paper's
   Nsight Compute measurements (Figure 12).  It synthesizes the address
   streams the GEMM / softmax / elementwise kernels inside an attention
   module issue, and replays each kernel's stream in one call through a
   :class:`repro.hw.cache.CacheHierarchy` of per-SM L1s and a shared L2.
   A stream is a NumPy array expanded from (start byte, size) segments
   (a query tile, a K tile or one of its rows, a similarity-matrix
   row), with a parallel array of issuing SMs.

   The model is built on how hits actually arise in these kernels:

   * **GEMM** requests are fully coalesced 128-byte lines; L1 hits come
     from *temporal reuse* — an SM re-reading the K operand for each
     query tile it processes.  Spatial attention (long sequences, many
     query tiles per batch) re-reads K constantly; temporal attention
     (sequence = frame count, a single query tile) never does.  This is
     the mechanism behind the ~10x L1 hit-rate gap.
   * **Softmax** hits come from the second (normalization) pass
     re-reading rows.  Long spatial rows spill registers and make that
     second pass through L1; short temporal rows (tens of frames) are
     register-resident, so every line is touched exactly once.
   * **Elementwise** kernels stream their operand once; their L2 hit
     rate is set by whether the producer kernel's output is still
     L2-resident — which favours the *small* temporal tensors, matching
     the paper's observation that temporal L2 hit rates for
     softmax/elementwise are the same or higher.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from repro.hw.cache import CacheHierarchy, HierarchyStats
from repro.hw.spec import A100_80GB, GPUSpec
from repro.ir.dtypes import FP16, FP32, DType
from repro.ir.ops import AttentionInfo


def attention_matmul_flops(
    batch: int, num_heads: int, seq_q: int, seq_kv: int, head_dim: int
) -> float:
    """FLOPs of the two attention matmuls (QK^T and PV).

    This is the paper's Figure 11/13 FLOP definition ("calculated by the
    two main matmul operations in Attention for simplicity").
    """
    return 4.0 * batch * num_heads * seq_q * seq_kv * head_dim


def similarity_matrix_bytes(
    batch: int,
    num_heads: int,
    seq_q: int,
    seq_kv: int,
    dtype: DType = FP16,
) -> float:
    """Bytes of the materialized N x N similarity matrix."""
    return float(batch * num_heads * seq_q * seq_kv * dtype.size)


@dataclass(frozen=True)
class AttentionCacheReport:
    """Per-kernel L1/L2 access and hit counts for one attention config."""

    gemm: HierarchyStats
    softmax: HierarchyStats
    elementwise: HierarchyStats

    def as_dict(self) -> dict[str, dict[str, float]]:
        """Nested {kernel: {level: hit rate}} mapping."""
        return {
            kernel: {"l1": stats.l1.hit_rate, "l2": stats.l2.hit_rate}
            for kernel, stats in (
                ("gemm", self.gemm),
                ("softmax", self.softmax),
                ("elementwise", self.elementwise),
            )
        }


# Rows shorter than this (bytes) stay in registers through the softmax,
# so the normalization pass issues no second read. PyTorch's dispatch
# uses a warp-level single-pass softmax for short rows.
SOFTMAX_REGISTER_THRESHOLD_BYTES = 8192

_LINE = 128


def _segment_lines(
    starts: np.ndarray, sizes: np.ndarray | int
) -> tuple[np.ndarray, np.ndarray]:
    """Line addresses covering each ``(start byte, size)`` segment, one
    segment after another, and each segment's line count."""
    first = starts // _LINE
    counts = (starts + sizes + _LINE - 1) // _LINE - first
    # Output position minus the segment's offset, plus its first line.
    lines = np.arange(counts.sum()) + np.repeat(
        first - (np.cumsum(counts) - counts), counts
    )
    return lines * _LINE, counts


# CTAs co-resident on one SM. Co-resident CTAs walk the K operand in
# near lock-step; when they share a batch-head (spatial attention: many
# query tiles per batch), the trailing CTAs hit lines the leader just
# fetched. Temporal attention has one query tile per batch-head, so
# co-resident CTAs never share data.
_CORESIDENT_CTAS = 4


def _simulate_gemm(
    info: AttentionInfo,
    spec: GPUSpec,
    num_sms: int,
    tile_q: int,
    tile_kv: int,
    max_groups: int,
) -> HierarchyStats:
    dtype = FP16
    tiles_q = max(1, math.ceil(info.seq_q / tile_q))
    tiles_kv = max(1, math.ceil(info.seq_kv / tile_kv))
    row_bytes = info.head_dim * dtype.size
    # Spread each batch-head's K far apart so streams never alias.
    kv_span = info.seq_kv * max(info.element_stride_bytes, row_bytes)
    region = 1 << max(kv_span - 1, 1).bit_length()
    q_region_base = 1 << 44  # Q lives far away from K.

    batch_heads = info.batch * info.num_heads
    needed_bh = min(
        batch_heads,
        (max_groups * _CORESIDENT_CTAS) // tiles_q + 1,
    )
    # CTAs (batch-head, query tile) in order, in groups of co-resident
    # CTAs; a slot past the last CTA is padding.
    ctas = min(needed_bh * tiles_q, max_groups * _CORESIDENT_CTAS)
    groups = -(-ctas // _CORESIDENT_CTAS)
    cta = np.arange(groups * _CORESIDENT_CTAS).reshape(groups, -1)
    present = cta < ctas
    # Each K tile's segments from its batch-head's base, one per tile
    # when rows pack back to back, else one per row (a strided, temporal
    # view places successive positions ``element_stride_bytes`` apart).
    tile_row = np.arange(tiles_kv)[:, None] * tile_kv
    if info.element_stride_bytes <= row_bytes:
        rows = np.minimum(tile_kv, info.seq_kv - tile_row)
        k_offsets, k_sizes = tile_row * row_bytes, rows * row_bytes
        k_present = np.ones(k_offsets.shape, dtype=bool)
    else:
        row = tile_row + np.arange(tile_kv)
        k_offsets = row * info.element_stride_bytes
        k_sizes = np.full(row.shape, row_bytes)
        k_present = row < info.seq_kv
    # A group loads its CTAs' Q tiles, then per K tile each CTA's copy:
    # a (group, CTA) Q part and a (group, K tile, CTA, segment) K part
    # flatten, group by group, in load order.
    k_shape = (groups, tiles_kv, _CORESIDENT_CTAS, k_offsets.shape[1])

    def load_order(q_part, k_part) -> np.ndarray:
        return np.hstack((
            np.broadcast_to(q_part, cta.shape),
            np.broadcast_to(k_part, k_shape).reshape(groups, -1),
        ))

    q_tile_bytes = tile_q * row_bytes
    bh = (cta // tiles_q)[:, None, :, None]
    starts = load_order(
        q_region_base + cta * q_tile_bytes,
        bh * region + k_offsets[None, :, None, :],
    )
    sizes = load_order(q_tile_bytes, k_sizes[None, :, None, :])
    keep = load_order(
        present, present[:, None, :, None] & k_present[None, :, None, :]
    )
    addresses, counts = _segment_lines(starts[keep], sizes[keep])
    group_sm = np.broadcast_to(
        np.arange(groups)[:, None] % num_sms, keep.shape
    )
    hierarchy = CacheHierarchy(spec.l1_per_sm, spec.l2, num_sms)
    return hierarchy.replay(addresses, np.repeat(group_sm[keep], counts))


def _simulate_softmax(
    info: AttentionInfo,
    spec: GPUSpec,
    num_sms: int,
    s_dtype: DType,
    max_rows: int,
) -> HierarchyStats:
    row_bytes = info.seq_kv * s_dtype.size
    passes = 2 if row_bytes > SOFTMAX_REGISTER_THRESHOLD_BYTES else 1
    total_rows = info.batch * info.num_heads * info.seq_q
    rows = min(total_rows, max_rows)
    # Sample rows uniformly across the similarity matrix so the fraction
    # falling in the L2-warm tail (most recent QK^T writes) is faithful.
    step = max(1, total_rows // rows)
    starts = np.arange(0, total_rows, step)[:rows] * row_bytes
    s_bytes_total = total_rows * row_bytes
    warm_bytes = min(s_bytes_total, spec.l2.capacity_bytes)
    warm_start = s_bytes_total - warm_bytes
    warm, _ = _segment_lines(starts[starts >= warm_start], row_bytes)
    # Each sampled row is read ``passes`` times in a row by one SM.
    addresses, counts = _segment_lines(np.repeat(starts, passes), row_bytes)
    row_sm = np.repeat(np.arange(len(starts)) % num_sms, passes)
    hierarchy = CacheHierarchy(spec.l1_per_sm, spec.l2, num_sms)
    hierarchy.l2.replay(warm)  # the QK^T writes still resident in L2
    return hierarchy.replay(addresses, np.repeat(row_sm, counts))


def _simulate_elementwise(
    info: AttentionInfo,
    spec: GPUSpec,
    num_sms: int,
    s_dtype: DType,
    max_lines: int,
) -> HierarchyStats:
    tensor_bytes = int(
        info.batch * info.num_heads * info.seq_q * info.seq_kv * s_dtype.size
    )
    total_lines = max(1, tensor_bytes // _LINE)
    lines = min(total_lines, max_lines)
    # Sample lines uniformly so the L2-warm tail fraction is faithful.
    step = max(1, total_lines // lines)
    sampled = np.arange(0, total_lines, step)[:lines]
    warm_lines = min(total_lines, spec.l2.capacity_bytes // _LINE)
    warm_start_line = total_lines - warm_lines
    warm = sampled[sampled >= warm_start_line] * _LINE
    # Broadcast scale vector re-read per chunk gives both variants a
    # small amount of genuine L1 reuse: every eighth line read is
    # followed, on the same SM, by a read of the vector.
    broadcast_base = 1 << 45
    index = np.arange(len(sampled))
    addresses = np.stack(
        (sampled * _LINE, broadcast_base + (index // 1024) * _LINE), axis=1
    )
    sms = np.stack((index % num_sms, index % num_sms), axis=1)
    keep = np.stack((np.ones(len(index), dtype=bool), index % 8 == 0), 1)
    hierarchy = CacheHierarchy(spec.l1_per_sm, spec.l2, num_sms)
    hierarchy.l2.replay(warm)  # the producer's output still in L2
    return hierarchy.replay(addresses[keep], sms[keep])


def simulate_attention_cache(
    info: AttentionInfo,
    spec: GPUSpec = A100_80GB,
    *,
    s_dtype: DType = FP32,
    num_sms: int = 4,
    max_groups: int = 24,
    max_rows: int = 2048,
    max_lines: int = 65536,
) -> AttentionCacheReport:
    """Replay an attention module's kernels through the cache simulator.

    Args:
        info: the attention configuration (spatial attention passes a
            contiguous layout; temporal attention passes the strided
            layout of Figure 10).
        spec: GPU whose cache geometry to simulate.
        s_dtype: precision of the materialized similarity matrix
            (PyTorch upcasts to FP32 in the baseline path).
        num_sms: simulated SM count; hit rates converge quickly.
        max_groups / max_rows / max_lines: trace-size caps per kernel.

    Returns:
        Per-level access and hit counts per kernel class; their hit
        rates are comparable to the Figure 12 bars.

    Raises:
        ValueError: when ``num_sms`` or a cap is below 1.
    """
    for name, value in (
        ("num_sms", num_sms), ("max_groups", max_groups),
        ("max_rows", max_rows), ("max_lines", max_lines),
    ):
        if value < 1:
            raise ValueError(f"{name} must be >= 1, got {value!r}")
    tile_q, tile_kv = 128, 64
    return AttentionCacheReport(
        gemm=_simulate_gemm(info, spec, num_sms, tile_q, tile_kv, max_groups),
        softmax=_simulate_softmax(info, spec, num_sms, s_dtype, max_rows),
        elementwise=_simulate_elementwise(
            info, spec, num_sms, s_dtype, max_lines
        ),
    )
