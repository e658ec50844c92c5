"""Sequence-length-bucketed hardware specialization.

Figure 8's observation: "the sequence lengths confine themselves to
distinct buckets, which could allow future systems to tailor hardware
towards sequence lengths of interest."  This module quantifies that
proposal: given a trace, it ranks the distinct attention sequence
lengths by the execution time they carry, then evaluates the Amdahl
gain of an accelerator that speeds up attention at the top-K bucket
lengths by a given factor.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.analysis.amdahl import amdahl_speedup
from repro.ir.trace import Trace
from repro.ordered_sum import ordered_sum


@dataclass(frozen=True)
class SeqLenBucket:
    """All attention kernels sharing one (self-attention) seq length."""

    seq_len: int
    attention_time_s: float
    calls: int
    time_fraction: float
    """Fraction of *total* trace time in this bucket's kernels."""


def attention_time_by_seq_len(trace: Trace) -> list[SeqLenBucket]:
    """Bucket attention-kernel time by query sequence length.

    Every kernel carrying attention metadata contributes to its call's
    bucket; buckets are returned sorted by time, largest first.
    """
    total = trace.total_time_s
    if total <= 0:
        raise ValueError("trace has no time")
    times: dict[int, float] = {}
    calls: dict[int, int] = {}
    for event in trace:
        info = event.op.attention
        if info is None:
            continue
        times[info.seq_q] = times.get(info.seq_q, 0.0) + event.cost.time_s
        if event.is_attention_anchor:
            calls[info.seq_q] = calls.get(info.seq_q, 0) + 1
    buckets = [
        SeqLenBucket(
            seq_len=seq,
            attention_time_s=time_s,
            calls=calls.get(seq, 0),
            time_fraction=time_s / total,
        )
        for seq, time_s in times.items()
    ]
    buckets.sort(key=lambda bucket: bucket.attention_time_s, reverse=True)
    return buckets


@dataclass(frozen=True)
class SpecializationReport:
    """Payoff of specializing hardware for the top-K buckets."""

    target_seq_lens: tuple[int, ...]
    covered_fraction: float
    bucket_speedup: float
    end_to_end_speedup: float
    coverage_of_attention: float


def evaluate_specialization(
    trace: Trace,
    *,
    top_k: int = 2,
    bucket_speedup: float = 4.0,
) -> SpecializationReport:
    """End-to-end gain from accelerating the hottest seq-len buckets.

    ``bucket_speedup`` is the factor a tailored unit achieves on the
    attention kernels of the selected lengths (e.g. a fixed-size systolic
    schedule with no tile padding at exactly those shapes).
    """
    if top_k <= 0:
        raise ValueError("top_k must be positive")
    if bucket_speedup <= 0:
        raise ValueError("bucket speedup must be positive")
    buckets = attention_time_by_seq_len(trace)
    if not buckets:
        raise ValueError("trace has no attention kernels")
    chosen = buckets[:top_k]
    covered = ordered_sum(b.time_fraction for b in chosen)
    attention_total = ordered_sum(b.attention_time_s for b in buckets)
    coverage_of_attention = (
        ordered_sum(b.attention_time_s for b in chosen) / attention_total
    )
    return SpecializationReport(
        target_seq_lens=tuple(bucket.seq_len for bucket in chosen),
        covered_fraction=covered,
        bucket_speedup=bucket_speedup,
        end_to_end_speedup=amdahl_speedup(covered, bucket_speedup),
        coverage_of_attention=coverage_of_attention,
    )
