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


def _lines(base: int, num_bytes: int) -> range:
    """Line addresses covering ``num_bytes`` starting at ``base``."""
    first = base // _LINE
    last = (base + num_bytes + _LINE - 1) // _LINE
    return range(first * _LINE, last * _LINE, _LINE)


def _k_tile_lines(
    base: int,
    tile_start: int,
    tile_rows: int,
    seq_kv: int,
    head_dim: int,
    stride_bytes: int,
    dtype: DType,
) -> list[int]:
    """Line addresses of one K tile (rows ``tile_start..+tile_rows``).

    Contiguous layout packs rows back to back; a strided (temporal) view
    places successive sequence positions ``stride_bytes`` apart.
    """
    row_bytes = head_dim * dtype.size
    rows = min(tile_rows, seq_kv - tile_start)
    if stride_bytes <= row_bytes:
        return list(_lines(base + tile_start * row_bytes, rows * row_bytes))
    addresses: list[int] = []
    for row in range(tile_start, tile_start + rows):
        addresses.extend(_lines(base + row * stride_bytes, row_bytes))
    return addresses


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
    ctas = [
        (bh, qt) for bh in range(needed_bh) for qt in range(tiles_q)
    ]
    q_tile_bytes = tile_q * row_bytes
    addresses: list[int] = []
    sms: list[int] = []
    for group_index, start in enumerate(range(0, len(ctas), _CORESIDENT_CTAS)):
        if group_index >= max_groups:
            break
        group_start = len(addresses)
        members = ctas[start:start + _CORESIDENT_CTAS]
        for bh, qt in members:
            q_base = q_region_base + (bh * tiles_q + qt) * q_tile_bytes
            addresses.extend(_lines(q_base, q_tile_bytes))
        for kvt in range(tiles_kv):
            for bh, qt in members:
                addresses.extend(_k_tile_lines(
                    bh * region, kvt * tile_kv, tile_kv,
                    info.seq_kv, info.head_dim,
                    info.element_stride_bytes, dtype,
                ))
        sms.extend([group_index % num_sms] * (len(addresses) - group_start))
    hierarchy = CacheHierarchy(spec.l1_per_sm, spec.l2, num_sms)
    return hierarchy.replay(addresses, sms)


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
    sampled = list(range(0, total_rows, step))[:rows]
    s_bytes_total = total_rows * row_bytes
    warm_bytes = min(s_bytes_total, spec.l2.capacity_bytes)
    warm_start = s_bytes_total - warm_bytes
    warm: list[int] = []
    addresses: list[int] = []
    sms: list[int] = []
    for index, row in enumerate(sampled):
        row_lines = _lines(row * row_bytes, row_bytes)
        if row * row_bytes >= warm_start:
            warm.extend(row_lines)
        for _ in range(passes):
            addresses.extend(row_lines)
        sms.extend([index % num_sms] * (passes * len(row_lines)))
    hierarchy = CacheHierarchy(spec.l1_per_sm, spec.l2, num_sms)
    hierarchy.l2.replay(warm)  # the QK^T writes still resident in L2
    return hierarchy.replay(addresses, sms)


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
    sampled = list(range(0, total_lines, step))[:lines]
    warm_lines = min(total_lines, spec.l2.capacity_bytes // _LINE)
    warm_start_line = total_lines - warm_lines
    warm = [line * _LINE for line in sampled if line >= warm_start_line]
    # Broadcast scale vector re-read per chunk gives both variants a
    # small amount of genuine L1 reuse.
    broadcast_base = 1 << 45
    addresses: list[int] = []
    sms: list[int] = []
    for index, line in enumerate(sampled):
        sm = index % num_sms
        addresses.append(line * _LINE)
        sms.append(sm)
        if index % 8 == 0:
            addresses.append(broadcast_base + (index // 1024) * _LINE)
            sms.append(sm)
    hierarchy = CacheHierarchy(spec.l1_per_sm, spec.l2, num_sms)
    hierarchy.l2.replay(warm)  # the producer's output still in L2
    return hierarchy.replay(addresses, sms)


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
