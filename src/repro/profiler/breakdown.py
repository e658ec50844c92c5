"""Operator-time breakdowns and Flash-Attention speedup analysis.

Produces the quantities behind Figure 6 (normalized operator-category
bars, baseline vs Flash) and Table II (end-to-end speedups), plus the
attention-module-only speedups of Section IV-B.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.ir.ops import AttentionKind, OpCategory
from repro.ir.trace import Trace


@dataclass(frozen=True)
class OperatorBreakdown:
    """Execution time per operator category for one run."""

    total_time_s: float
    time_by_category: dict[OpCategory, float]

    def fraction(self, category: OpCategory) -> float:
        """Share of total time spent in ``category`` (0 when absent)."""
        if self.total_time_s == 0:
            return 0.0
        return self.time_by_category.get(category, 0.0) / self.total_time_s

    def fractions(self) -> dict[OpCategory, float]:
        """Time share of every category present in the run."""
        return {
            category: self.fraction(category)
            for category in self.time_by_category
        }

    def dominant_category(self) -> OpCategory:
        """The category with the most execution time."""
        return max(self.time_by_category, key=self.time_by_category.get)

    def normalized_to(self, reference_time_s: float) -> dict[OpCategory, float]:
        """Category times as fractions of another run's total.

        Figure 6 plots the Flash-Attention bar normalized to the same
        model's *baseline* execution time.
        """
        if reference_time_s <= 0:
            raise ValueError("reference time must be positive")
        return {
            category: time_s / reference_time_s
            for category, time_s in self.time_by_category.items()
        }


def breakdown(trace: Trace) -> OperatorBreakdown:
    """Compute the operator-category breakdown of a trace."""
    return OperatorBreakdown(
        total_time_s=trace.total_time_s,
        time_by_category=trace.time_by_category(),
    )


@dataclass(frozen=True)
class SpeedupReport:
    """Baseline-vs-Flash comparison for one model (Table II row)."""

    baseline_time_s: float
    flash_time_s: float
    baseline_attention_time_s: float
    flash_attention_time_s: float

    @property
    def end_to_end_speedup(self) -> float:
        return self.baseline_time_s / self.flash_time_s

    @property
    def attention_module_speedup(self) -> float:
        """Isolated speedup of the attention kernels (Section IV-B)."""
        if self.flash_attention_time_s == 0:
            return float("inf")
        return self.baseline_attention_time_s / self.flash_attention_time_s

    @property
    def baseline_attention_fraction(self) -> float:
        return self.baseline_attention_time_s / self.baseline_time_s


def attention_core_time(trace: Trace) -> float:
    """Time in attention *kernels* (QK^T/scale/softmax/PV or fused).

    Excludes the Q/K/V/out projection GEMMs: those belong to the
    attention module in the Figure 6 category breakdown but are not
    accelerated by Flash Attention, so speedup analysis isolates the
    core.
    """
    total = 0.0
    for event in trace:
        if event.op.attention is not None:
            total += event.cost.time_s
    return total


def attention_module_time(trace: Trace) -> float:
    """Time attributed to the Attention category (module-hook view).

    Includes the projection GEMMs the attention modules launch — this
    is what the paper's red Figure 6 bars measure, and the projections'
    insensitivity to Flash Attention is part of why transformer-TTI
    attention-module speedups are modest.
    """
    return trace.time_by_category().get(OpCategory.ATTENTION, 0.0)


def speedup_report(baseline: Trace, flash: Trace) -> SpeedupReport:
    """Compare a baseline trace against a Flash-Attention trace."""
    return SpeedupReport(
        baseline_time_s=baseline.total_time_s,
        flash_time_s=flash.total_time_s,
        baseline_attention_time_s=attention_module_time(baseline),
        flash_attention_time_s=attention_module_time(flash),
    )


@dataclass(frozen=True)
class TemporalSpatialReport:
    """Figure 11: temporal vs spatial attention time and FLOPs."""

    spatial_time_s: float
    temporal_time_s: float
    spatial_matmul_flops: float
    temporal_matmul_flops: float

    @property
    def time_ratio(self) -> float:
        """Temporal over spatial execution time (paper: ~2x)."""
        return self.temporal_time_s / self.spatial_time_s

    @property
    def flop_ratio(self) -> float:
        """Spatial over temporal matmul FLOPs (paper: ~9x)."""
        return self.spatial_matmul_flops / self.temporal_matmul_flops


def _matmul_flops_of_kind(trace: Trace, kind: AttentionKind) -> float:
    """FLOPs of the two attention matmuls, per the paper's definition."""
    from repro.ir.ops import FusedAttention, Gemm

    total = 0.0
    for _, op, cost, _, repeat in trace.rows():
        info = op.attention
        if info is None or info.kind is not kind:
            continue
        if isinstance(op, Gemm):
            total += cost.flops
        elif isinstance(op, FusedAttention):
            pairs = (
                info.batch * info.num_heads * info.seq_q * info.seq_kv
            )
            total += 4.0 * pairs * info.head_dim * repeat
    return total


def _module_time_of_kind(trace: Trace, kind: AttentionKind) -> float:
    """Module-level attention time: every kernel the attention layer
    emitted, including projections and layout rearranges.

    Kernel attribution follows module paths, exactly as the paper's
    forward-hook annotation does.
    """
    markers = {
        AttentionKind.SPATIAL: ("spatial_attention", "spatial_transformer"),
        AttentionKind.TEMPORAL: ("temporal_attention",),
        AttentionKind.TOKEN: ("attention", "self_attn", "cross_attn"),
    }[kind]
    total = 0.0
    for path, _, cost, _, _ in trace.rows():
        path_parts = path.split(".")
        if any(marker in path_parts for marker in markers):
            total += cost.time_s
    return total


def temporal_spatial_report(trace: Trace) -> TemporalSpatialReport:
    """Aggregate Figure 11 quantities from a TTV model trace."""
    return TemporalSpatialReport(
        spatial_time_s=_module_time_of_kind(trace, AttentionKind.SPATIAL),
        temporal_time_s=_module_time_of_kind(trace, AttentionKind.TEMPORAL),
        spatial_matmul_flops=_matmul_flops_of_kind(
            trace, AttentionKind.SPATIAL
        ),
        temporal_matmul_flops=_matmul_flops_of_kind(
            trace, AttentionKind.TEMPORAL
        ),
    )
