"""The attention kernels replay exactly the line-by-line reference streams.

``simulate_attention_cache`` builds each kernel's address, SM and
L2-warm arrays from (start byte, size) segments; every element, in
order, must equal the list builders in ``attention_stream_reference``.
"""

from dataclasses import replace
from itertools import product

import numpy as np
import pytest

import repro.kernels.attention as attention
from repro.hw.cache import HierarchyStats
from repro.hw.spec import A100_80GB, CacheSpec
from repro.ir.dtypes import FP16, FP32
from repro.ir.ops import AttentionInfo, AttentionKind, AttentionRole
from tests.kernels.attention_stream_reference import (
    elementwise_stream,
    gemm_stream,
    softmax_stream,
)

# An L2 small enough that only the tail of a small similarity matrix is
# warm, beside A100's, which holds all of it.
SMALL_L2 = replace(A100_80GB, l2=CacheSpec(64 * 1024, 128, 16, 1e12))


class _RecordingHierarchy:
    """Stands in for ``CacheHierarchy``: keeps the streams, simulates
    nothing."""

    streams: list[dict] = []

    def __init__(self, l1_spec, l2_spec, num_sms):
        self.record = {"warm": None}
        self.streams.append(self.record)
        self.l2 = self

    def replay(self, addresses, sms=None):
        if sms is None:  # ``hierarchy.l2.replay(warm)``
            self.record["warm"] = np.asarray(addresses).tolist()
            return None
        self.record["addresses"] = np.asarray(addresses).tolist()
        self.record["sms"] = np.asarray(sms).tolist()
        return HierarchyStats()


def _info(layout: str, seq: int, head_dim: int) -> AttentionInfo:
    heads = 2
    if layout == "spatial":
        return AttentionInfo(
            role=AttentionRole.SELF, kind=AttentionKind.SPATIAL,
            seq_q=seq, seq_kv=seq, head_dim=head_dim,
            num_heads=heads, batch=3,
        )
    pixels = 4
    return AttentionInfo(
        role=AttentionRole.SELF, kind=AttentionKind.TEMPORAL,
        seq_q=seq, seq_kv=seq, head_dim=head_dim,
        num_heads=heads, batch=pixels,
        element_stride_bytes=pixels * heads * head_dim * 2,
    )


# Caps that bind on every config they run, and caps that bind on none;
# 2100-long rows are read twice by the softmax (FP32) and run only
# under the binding caps, which keep their streams short.
CAPS = {
    "binding": {"max_groups": 1, "max_rows": 7, "max_lines": 10},
    "loose": {"max_groups": 1000, "max_rows": 100_000, "max_lines": 100_000},
}
SEQS = {"binding": (16, 100, 2100), "loose": (16, 100, 300)}


@pytest.mark.parametrize("caps", sorted(CAPS))
@pytest.mark.parametrize("layout", ["spatial", "temporal"])
def test_streams_equal_reference(monkeypatch, layout, caps):
    monkeypatch.setattr(attention, "CacheHierarchy", _RecordingHierarchy)
    monkeypatch.setattr(_RecordingHierarchy, "streams", [])
    # Sequence lengths off the 128/64 tile grid, rows of 80 and 160
    # bytes (not whole lines), and FP16 rows below the softmax register
    # threshold beside FP32 ones above it.
    for seq, head_dim, num_sms, (spec, s_dtype) in product(
        SEQS[caps], (40, 64, 80), (1, 4, 7),
        ((A100_80GB, FP16), (SMALL_L2, FP32)),
    ):
        info = _info(layout, seq, head_dim)
        case = (seq, head_dim, num_sms, spec.l2.capacity_bytes, s_dtype)
        _RecordingHierarchy.streams.clear()
        attention.simulate_attention_cache(
            info, spec, s_dtype=s_dtype, num_sms=num_sms, **CAPS[caps]
        )
        gemm, softmax, elementwise = _RecordingHierarchy.streams
        addresses, sms = gemm_stream(
            info, num_sms, 128, 64, CAPS[caps]["max_groups"]
        )
        assert gemm == {"warm": None, "addresses": addresses, "sms": sms}, case
        warm, addresses, sms = softmax_stream(
            info, spec, num_sms, s_dtype, CAPS[caps]["max_rows"]
        )
        assert softmax == {"warm": warm, "addresses": addresses, "sms": sms}, (
            case
        )
        warm, addresses, sms = elementwise_stream(
            info, spec, num_sms, s_dtype, CAPS[caps]["max_lines"]
        )
        assert elementwise == {
            "warm": warm, "addresses": addresses, "sms": sms
        }, case
