"""The attention kernels' address streams, built line by line in lists.

These are the stream builders of :mod:`repro.kernels.attention` as they
were before the streams were built as NumPy arrays from (start byte,
size) segments: one Python ``list.extend`` per K tile row, query tile
or similarity-matrix row.  Each function returns the lists the kernel
replays, in load order; the arrays the simulator replays must equal
them element for element.
"""

from __future__ import annotations

import math

from repro.hw.spec import GPUSpec
from repro.ir.dtypes import FP16, DType
from repro.ir.ops import AttentionInfo
from repro.kernels.attention import (
    _CORESIDENT_CTAS,
    _LINE,
    SOFTMAX_REGISTER_THRESHOLD_BYTES,
)


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


def gemm_stream(
    info: AttentionInfo,
    num_sms: int,
    tile_q: int,
    tile_kv: int,
    max_groups: int,
) -> tuple[list[int], list[int]]:
    """(addresses, SM ids) of the GEMM kernel."""
    dtype = FP16
    tiles_q = max(1, math.ceil(info.seq_q / tile_q))
    tiles_kv = max(1, math.ceil(info.seq_kv / tile_kv))
    row_bytes = info.head_dim * dtype.size
    kv_span = info.seq_kv * max(info.element_stride_bytes, row_bytes)
    region = 1 << max(kv_span - 1, 1).bit_length()
    q_region_base = 1 << 44

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
    return addresses, sms


def softmax_stream(
    info: AttentionInfo,
    spec: GPUSpec,
    num_sms: int,
    s_dtype: DType,
    max_rows: int,
) -> tuple[list[int], list[int], list[int]]:
    """(L2-warm addresses, addresses, SM ids) of the softmax kernel."""
    row_bytes = info.seq_kv * s_dtype.size
    passes = 2 if row_bytes > SOFTMAX_REGISTER_THRESHOLD_BYTES else 1
    total_rows = info.batch * info.num_heads * info.seq_q
    rows = min(total_rows, max_rows)
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
    return warm, addresses, sms


def elementwise_stream(
    info: AttentionInfo,
    spec: GPUSpec,
    num_sms: int,
    s_dtype: DType,
    max_lines: int,
) -> tuple[list[int], list[int], list[int]]:
    """(L2-warm addresses, addresses, SM ids) of the elementwise kernel."""
    tensor_bytes = int(
        info.batch * info.num_heads * info.seq_q * info.seq_kv * s_dtype.size
    )
    total_lines = max(1, tensor_bytes // _LINE)
    lines = min(total_lines, max_lines)
    step = max(1, total_lines // lines)
    sampled = list(range(0, total_lines, step))[:lines]
    warm_lines = min(total_lines, spec.l2.capacity_bytes // _LINE)
    warm_start_line = total_lines - warm_lines
    warm = [line * _LINE for line in sampled if line >= warm_start_line]
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
    return warm, addresses, sms
